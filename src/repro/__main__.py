"""Command-line interface: ``python -m repro``.

Runs one of the paper's scenarios under a chosen protocol and prints
the paper-style result table.

Examples::

    python -m repro figure3 --protocol gmp --substrate fluid
    python -m repro figure2 --protocol gmp --weights 1,2,1,3 --duration 200
    python -m repro figure4 --protocol 802.11 --substrate dcf
    python -m repro figure3 --substrate fluid --duration 60 \
        --faults "crash:1@20;recover:1@40" --rate-interval 1
    python -m repro figure3 --substrate fluid --profile \
        --metrics-out m.jsonl --trace-out t.json
    python -m repro figure3 --substrate fluid --explain-out explain.txt
    python -m repro figure3 --substrate fluid --explain-out explain.json
    python -m repro sweep --scenarios figure3,figure4 --seeds 1,2,3 \
        --workers 4 --json sweep.json
    python -m repro fidelity --tables 1,2,3,4,fig1 --seeds 1,2,3 \
        --json FIDELITY.json --markdown FIDELITY.md
    python -m repro figure3 --substrate fluid \
        --churn "poisson:rate=0.3,mean_hold=6,hold=pareto" --duration 60
    python -m repro fuzz --budget 60 --seed 1
    python -m repro figure3 --substrate fluid --duration 60 \
        --churn "poisson:rate=0.3,mean_hold=6" \
        --health --alerts-out alerts.jsonl
    python -m repro serve scale100 --substrate fluid --pace 20 \
        --port 8787 --session-dir serve-session
    python -m repro serve --replay serve-session/commands.jsonl

Fault specs (``--faults``) are semicolon-separated events; see
:mod:`repro.faults.spec` for the grammar.  ``--metrics-out`` /
``--trace-out`` / ``--profile`` turn on the telemetry subsystem
(:mod:`repro.telemetry`); ``--metrics-out`` streams its JSONL records
to disk *during* the run (:mod:`repro.obs.stream`), so a killed or
watchdog-aborted run keeps its metrics; ``--trace-categories
channel.tx`` adds one event per DCF frame to its event log; the trace
JSON loads in Perfetto or ``about:tracing``.  GMP runs with telemetry
on also print, per flow, why it runs at its rate
(:mod:`repro.fidelity.explain`): its bottleneck clique, dominant local
condition, gap to the centralized maxmin reference, when it entered a
±5% band around that reference, and each rate adjustment with the
condition change that triggered it.  ``--explain-out PATH`` saves that
narrative, or the per-flow records as JSON when PATH ends in
``.json``.  ``fidelity`` regenerates the paper's Tables 1-4 and
Figure 1 and checks every EXPERIMENTS.md shape assertion
(:mod:`repro.fidelity`).

``--health`` arms the in-run health monitor (:mod:`repro.obs`) whose
alerts print as they fire (``--alerts-out`` also appends them as JSON
lines); ``serve`` hosts a paced run behind a live HTTP observability
and control plane (:mod:`repro.obs.serve`) and replays a served
session's command journal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.scenarios.spec import (
    SCENARIO_FACTORIES,
    add_run_flags,
    replay_check,
    spec_from_args,
)
from repro.telemetry import Telemetry
from repro.telemetry.exporters import format_summary, write_chrome_trace


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        # Parameter-grid mode has its own option surface; hand the rest
        # of the command line to the sweep engine's parser.
        from repro.scenarios.sweep import sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] == "fidelity":
        from repro.fidelity.harness import fidelity_main

        return fidelity_main(argv[1:])
    if argv and argv[0] == "fuzz":
        from repro.fuzz.cli import fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "check":
        from repro.check import check_main

        return check_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.obs.serve import serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("scenario", choices=tuple(SCENARIO_FACTORIES))
    add_run_flags(parser)
    parser.add_argument(
        "--max-events",
        type=int,
        default=None,
        help="kernel watchdog: hard budget on dispatched events",
    )
    parser.add_argument(
        "--stall-limit",
        type=int,
        default=1_000_000,
        help="kernel watchdog: max events without simulated time advancing",
    )
    parser.add_argument(
        "--wall-deadline",
        type=float,
        default=None,
        help="kernel watchdog: real seconds the run may take",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="stream telemetry metrics + events as JSONL to PATH while "
        "the run is in flight; a killed or aborted run keeps everything "
        "flushed so far",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON (Perfetto-loadable) to PATH",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the kernel (per-tag wall time, events/sec) and "
        "print the telemetry summary",
    )
    parser.add_argument(
        "--explain-out",
        default=None,
        metavar="PATH",
        help="persist the per-flow rate narrative to PATH, or the "
        "per-flow records as JSON when PATH ends in .json (GMP runs; "
        "implies telemetry)",
    )
    parser.add_argument(
        "--trace-categories",
        default=None,
        metavar="CATS",
        help="also record these comma-separated opt-in event categories "
        '(suffix * for prefixes, e.g. "channel.*"; channel.tx is one '
        "event per DCF frame) in the telemetry event log; implies "
        "telemetry",
    )
    parser.add_argument(
        "--sanitize",
        choices=("replay",),
        default=None,
        help="run the scenario twice under the replay sanitizer and "
        "diff the L0 (events) and L1 (measurements) digests (exit 1 and "
        "name the first divergent event on mismatch)",
    )
    parser.add_argument(
        "--health",
        action="store_true",
        help="arm the in-run health monitor: an event-rate stall probe "
        "plus the anomaly detectors scanned up to the current time, "
        "alerts printed as they fire (implies telemetry)",
    )
    parser.add_argument(
        "--alerts-out",
        default=None,
        metavar="PATH",
        help="append every delivered health alert as a JSON line to "
        "PATH (implies --health)",
    )
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.alerts_out:
        args.health = True
    telemetry_on = bool(
        args.metrics_out
        or args.trace_out
        or args.profile
        or args.explain_out
        or args.trace_categories is not None
        or args.health
    )
    categories = [
        part.strip() for part in (args.trace_categories or "").split(",") if part.strip()
    ]
    telemetry = (
        Telemetry(profile=args.profile, trace_categories=categories)
        if telemetry_on
        else None
    )

    if args.sanitize is not None and telemetry is not None:
        print(
            "error: --sanitize replay runs the scenario twice and cannot "
            "share one telemetry instance across runs; drop "
            "--metrics-out/--trace-out/--profile/--trace-categories/"
            "--explain-out/--health/--alerts-out",
            file=sys.stderr,
        )
        return 2

    stream = None
    health = None
    replay_report = None
    watchdogs = {
        "max_events": args.max_events,
        "stall_limit": args.stall_limit,
        "wall_deadline": args.wall_deadline,
    }
    try:
        if args.health:
            from repro.obs import HealthMonitor, console_delivery, jsonl_delivery

            deliveries = [console_delivery()]
            if args.alerts_out:
                deliveries.append(jsonl_delivery(args.alerts_out))
            health = HealthMonitor(deliveries=deliveries)
        if args.metrics_out:
            from repro.obs import StreamPublisher

            assert telemetry is not None
            stream = StreamPublisher(telemetry, args.metrics_out)
        if args.sanitize is not None:
            replay_report, result, _ = replay_check(spec, **watchdogs)
        else:
            result = spec.run(
                telemetry=telemetry, stream=stream, health=health, **watchdogs
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        if stream is not None and stream.aborted:
            print(
                f"partial telemetry flushed to {args.metrics_out} before the abort",
                file=sys.stderr,
            )
        return 2

    print(result.summary_table())
    if "rate_limits" in result.extras:
        limits = ", ".join(
            f"f{flow_id}={limit:.0f}" if limit is not None else f"f{flow_id}=-"
            for flow_id, limit in sorted(result.extras["rate_limits"].items())
        )
        print(f"final rate limits: {limits}")
    if "faults" in result.extras:
        for when, text in result.extras["faults"]:
            print(f"fault @ t={when:.3f}s: {text}")
    if "churn" in result.extras:
        churn_report = result.extras["churn"]
        print(
            f"churn: {churn_report.arrivals} arrival(s), "
            f"{churn_report.departures} departure(s), "
            f"{churn_report.skipped_at_cap} skipped at cap; "
            + ("teardown clean" if churn_report.clean else "STATE RESIDUE")
        )
        convergence = result.extras.get("per_arrival_convergence", {})
        settled = [t for t in convergence.values() if t is not None]
        if settled:
            print(
                f"per-arrival convergence: median "
                f"{sorted(settled)[len(settled) // 2]:.1f}s over "
                f"{len(settled)}/{len(convergence)} arrival(s)"
            )

    if telemetry is not None:
        if stream is not None:
            print(
                f"metrics: {stream.records_streamed} JSONL records in "
                f"{stream.flushes} flushes -> {args.metrics_out}"
            )
        if args.trace_out:
            events = write_chrome_trace(args.trace_out, telemetry)
            print(
                f"trace: {events} events -> {args.trace_out} "
                "(load in https://ui.perfetto.dev)"
            )
        if args.profile:
            print()
            print(format_summary(telemetry))
        if "maxmin_reference" in result.extras:
            from repro.fidelity.explain import explain_all

            explanations = explain_all(result)
            narrative = "\n\n".join(
                ["per-flow rate narrative"]
                + [explanation.narrative() for explanation in explanations]
            )
            print()
            print(narrative)
            if args.explain_out:
                text = narrative
                if args.explain_out.endswith(".json"):
                    text = json.dumps(
                        [explanation.to_json() for explanation in explanations],
                        indent=2,
                        sort_keys=True,
                    )
                Path(args.explain_out).write_text(text + "\n", encoding="utf-8")
                print(f"explanations -> {args.explain_out}")
        elif args.explain_out:
            print(
                "warning: --explain-out needs a GMP run (no maxmin "
                "reference recorded); nothing written",
                file=sys.stderr,
            )
        if telemetry.events_dropped:
            print(f"telemetry: {telemetry.events_dropped} events dropped at the cap")
    if health is not None:
        print(health.log.render())
        if args.alerts_out and health.alerts():
            print(f"delivered alerts -> {args.alerts_out}")
    if replay_report is not None:
        print()
        print(replay_report.render())
        if not replay_report.matched:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
