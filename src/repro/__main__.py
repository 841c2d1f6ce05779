"""Command-line interface: ``python -m repro``.

Runs one of the paper's scenarios under a chosen protocol and prints
the paper-style result table.

Examples::

    python -m repro figure3 --protocol gmp --substrate fluid
    python -m repro figure2 --protocol gmp --weights 1,2,1,3 --duration 200
    python -m repro figure4 --protocol 802.11 --substrate dcf
    python -m repro figure3 --substrate fluid \
        --faults "crash:1@20;recover:1@40" --rate-interval 1
    python -m repro figure3 --substrate fluid --profile \
        --metrics-out m.jsonl --trace-out t.json
    python -m repro figure3 --substrate fluid --profile \
        --inspect-out narrative.txt
    python -m repro sweep --scenarios figure3,figure4 --seeds 1,2,3 \
        --workers 4 --json sweep.json
    python -m repro fidelity --tables 1,2,3,4 --seeds 1,2,3 \
        --json FIDELITY.json --markdown FIDELITY.md
    python -m repro explain figure3 --flow 2
    python -m repro figure3 --substrate fluid \
        --churn "poisson:rate=0.3,mean_hold=6,hold=pareto" --duration 60
    python -m repro fuzz --budget 60 --seed 1
    python -m repro figure3 --substrate fluid \
        --stream-out live.jsonl --stream-db live.db
    python -m repro figure3 --substrate fluid --duration 60 \
        --churn "poisson:rate=0.3,mean_hold=6" \
        --health --alerts-out alerts.jsonl
    python -m repro serve scale100 --substrate fluid --pace 20 \
        --port 8787 --session-dir serve-session
    python -m repro serve --replay serve-session/commands.jsonl

Fault specs (``--faults``) are semicolon-separated events; see
:mod:`repro.faults.spec` for the grammar.  ``--metrics-out`` /
``--trace-out`` / ``--profile`` turn on the telemetry subsystem
(:mod:`repro.telemetry`); the trace JSON loads in Perfetto or
``about:tracing``, and GMP runs additionally print the convergence
narrative from :mod:`repro.analysis.inspector` (``--inspect-out``
persists it).  ``fidelity`` regenerates the paper's Tables 1-4 and
checks every EXPERIMENTS.md shape assertion (:mod:`repro.fidelity`);
``explain`` attributes each flow's rate to its bottleneck clique,
active local condition, and centralized-reference gap.

``--stream-out`` / ``--stream-db`` stream telemetry to disk *during*
the run (:mod:`repro.obs`), so a killed or watchdog-aborted run keeps
its metrics; ``--health`` arms the in-run health monitor whose alerts
print as they fire (``--alerts-out`` also appends them as JSON lines);
``serve`` hosts a paced run behind a live HTTP observability and
control plane (:mod:`repro.obs.serve`) and replays a served session's
command journal.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.inspector import inspect_run
from repro.churn.spec import parse_churn_spec
from repro.core.config import GmpConfig
from repro.errors import ReproError
from repro.faults.spec import parse_fault_spec
from repro.scenarios.figures import figure2
from repro.scenarios.runner import (
    PROTOCOLS,
    SUBSTRATES,
    replay_check,
    run_scenario,
)
from repro.scenarios.sweep import SCENARIO_FACTORIES, scenario_factory
from repro.sim.trace import TraceCollector
from repro.telemetry import Telemetry
from repro.telemetry.exporters import (
    format_summary,
    write_chrome_trace,
    write_metrics_jsonl,
)


def _build_scenario(args: argparse.Namespace):
    if args.scenario == "figure2":
        weights = tuple(float(part) for part in args.weights.split(","))
        return figure2(weights=weights)  # type: ignore[arg-type]
    return scenario_factory(args.scenario)()


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
    if argv and argv[0] == "explain":
        from repro.fidelity.explain import explain_main

        return explain_main(argv[1:])
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
    parser.add_argument("--protocol", choices=PROTOCOLS, default="gmp")
    parser.add_argument("--substrate", choices=SUBSTRATES, default="fluid")
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--period", type=float, default=2.0, help="GMP period (s)")
    parser.add_argument("--beta", type=float, default=0.10)
    parser.add_argument(
        "--traffic",
        choices=("cbr", "poisson", "onoff", "pareto-onoff"),
        default="cbr",
    )
    parser.add_argument(
        "--churn",
        default=None,
        help="dynamic workload, e.g. "
        '"poisson:rate=0.3,mean_hold=6,hold=pareto" or '
        '"adversary:burst=2,on=2,off=2"',
    )
    parser.add_argument(
        "--weights",
        default="1,1,1,1",
        help="figure2 flow weights, comma-separated (e.g. 1,2,1,3)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help='fault schedule, e.g. "crash:1@20;recover:1@40;ctrl:0.5@10-30"',
    )
    parser.add_argument(
        "--rate-interval",
        type=float,
        default=None,
        help="record per-flow rates over windows of this many seconds",
    )
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
        help="write telemetry metrics + events as JSONL to PATH",
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
        "--inspect-out",
        default=None,
        metavar="PATH",
        help="persist the convergence-inspector narrative to PATH "
        "(GMP runs; implies telemetry)",
    )
    parser.add_argument(
        "--trace-categories",
        default=None,
        metavar="CATS",
        help="enable the structured trace collector for these comma-"
        'separated categories (suffix * for prefixes, e.g. "channel.*")',
    )
    parser.add_argument(
        "--sanitize",
        choices=("replay",),
        default=None,
        help="run the scenario twice under the replay sanitizer and "
        "diff the event digests (exit 1 and name the first divergent "
        "event on mismatch)",
    )
    parser.add_argument(
        "--stream-out",
        default=None,
        metavar="PATH",
        help="stream telemetry records to a JSONL file *while the run "
        "is in flight* (implies telemetry); a killed run keeps "
        "everything flushed so far",
    )
    parser.add_argument(
        "--stream-db",
        default=None,
        metavar="PATH",
        help="stream telemetry records into a SQLite database "
        "(append-safe across runs; implies telemetry)",
    )
    parser.add_argument(
        "--stream-interval",
        type=float,
        default=1.0,
        help="simulated seconds between streaming flushes "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--health",
        action="store_true",
        help="arm the in-run health monitor: an event-rate stall probe "
        "plus the anomaly detectors scanned up to the current time, "
        "alerts printed as they fire (implies telemetry)",
    )
    parser.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        help="simulated seconds between health evaluations "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--alerts-out",
        default=None,
        metavar="PATH",
        help="append every delivered health alert as a JSON line to "
        "PATH (implies --health)",
    )
    args = parser.parse_args(argv)

    if args.alerts_out:
        args.health = True
    streaming = bool(args.stream_out or args.stream_db)
    telemetry_on = bool(
        args.metrics_out
        or args.trace_out
        or args.profile
        or args.inspect_out
        or streaming
        or args.health
    )
    telemetry = (
        Telemetry(enabled=True, profile=args.profile) if telemetry_on else None
    )
    trace = None
    if args.trace_categories is not None:
        categories = [
            part.strip() for part in args.trace_categories.split(",") if part.strip()
        ]
        trace = TraceCollector(
            enabled=True, categories=categories or None, limit=200_000
        )

    if args.sanitize is not None and (telemetry is not None or trace is not None):
        print(
            "error: --sanitize replay runs the scenario twice and cannot "
            "share one telemetry/trace collector across runs; drop "
            "--metrics-out/--trace-out/--profile/--trace-categories/"
            "--stream-out/--stream-db/--health/--alerts-out",
            file=sys.stderr,
        )
        return 2

    stream = None
    health = None
    if streaming:
        from repro.obs import JsonlSink, SqliteSink, StreamPublisher

        sinks = []
        if args.stream_out:
            sinks.append(JsonlSink(args.stream_out))
        if args.stream_db:
            sinks.append(SqliteSink(args.stream_db))
        assert telemetry is not None
        stream = StreamPublisher(
            telemetry, sinks, interval=args.stream_interval
        )
    if args.health:
        from repro.obs import HealthMonitor, console_delivery, jsonl_delivery

        deliveries = [console_delivery()]
        if args.alerts_out:
            deliveries.append(jsonl_delivery(args.alerts_out))
        health = HealthMonitor(args.health_interval, deliveries=deliveries)

    replay_report = None
    try:
        scenario = _build_scenario(args)
        faults = parse_fault_spec(args.faults) if args.faults else None
        churn = parse_churn_spec(args.churn) if args.churn else None
        kwargs = dict(
            protocol=args.protocol,
            substrate=args.substrate,
            duration=args.duration,
            seed=args.seed,
            traffic=args.traffic,
            gmp_config=GmpConfig(period=args.period, beta=args.beta),
            faults=faults,
            churn=churn,
            rate_interval=args.rate_interval,
            max_events=args.max_events,
            stall_limit=args.stall_limit,
            wall_deadline=args.wall_deadline,
        )
        if args.sanitize is not None:
            replay_report, result, _ = replay_check(scenario, **kwargs)
        else:
            result = run_scenario(
                scenario,
                telemetry=telemetry,
                trace=trace,
                stream=stream,
                health=health,
                **kwargs,
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        if stream is not None and stream.aborted:
            print(
                "partial telemetry flushed to the streaming sink(s) "
                "before the abort",
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
        if args.metrics_out:
            lines = write_metrics_jsonl(args.metrics_out, telemetry)
            print(f"metrics: {lines} JSONL records -> {args.metrics_out}")
        if args.trace_out:
            events = write_chrome_trace(args.trace_out, telemetry, trace=trace)
            print(
                f"trace: {events} events -> {args.trace_out} "
                "(load in https://ui.perfetto.dev)"
            )
        if args.profile:
            print()
            print(format_summary(telemetry))
        if "maxmin_reference" in result.extras:
            narrative = inspect_run(result).narrative()
            print()
            print(narrative)
            if args.inspect_out:
                Path(args.inspect_out).write_text(
                    narrative + "\n", encoding="utf-8"
                )
                print(f"inspector narrative -> {args.inspect_out}")
        elif args.inspect_out:
            print(
                "warning: --inspect-out needs a GMP run (no maxmin "
                "reference recorded); nothing written",
                file=sys.stderr,
            )
    if trace is not None:
        note = f"structured trace: {len(trace)} records"
        if trace.dropped:
            note += f" ({trace.dropped} dropped at the limit)"
        print(note)
    if stream is not None:
        targets = ", ".join(
            path for path in (args.stream_out, args.stream_db) if path
        )
        print(
            f"stream: {stream.records_streamed} records in "
            f"{stream.flushes} flushes -> {targets}"
        )
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
