"""The repo benchmark: ``python benchmarks/e2e/run.py``.

Runs every workload of ``BENCHMARK.json`` (or one, with
``--workload``), each pass in a fresh subprocess, one at a time;
prints every metric by name with its unit, checks the outputs and
writes the results file.  The benchmark driver's form is::

    run.py --workload NAME --seed N --seconds S --trace 0|1

which ends with one JSON line: the end-to-end metrics from untraced
passes (``--trace 0``) or the per-layer metrics from the traced passes
(``--trace 1``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WALL_DEADLINE_S, WORKLOADS  # noqa: E402

#: End-to-end metrics that are host time or memory (noisy: median of
#: the passes); the others are simulated and must repeat exactly.
HOST_METRICS = ("setup_s", "wall_s", "sim_rate", "events_per_s", "peak_rss_mb")
SIM_METRICS = ("throughput_u", "imm", "min_flow_rate", "maxmin_gap")

#: The parent kills a child this long after its kernel watchdog
#: (``WALL_DEADLINE_S``) should have failed it.
PARENT_GRACE_S = 25.0

#: A median of two is their mean, which one disturbed pass moves.
MIN_TIMED_PASSES = 3

DEFAULT_OUT = ROOT / ".bench_e2e" / "results.json"


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(spec: dict[str, Any], timeout: float) -> dict[str, Any]:
    """One child, to completion.  A child that raises, stalls past
    ``timeout`` or prints no result is a failed run with an ``error``."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {timeout:g} s (killed)"}
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return {"error": lines[-1] if lines else f"exit code {proc.returncode}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "child printed no result"}


def host_info(warmup: dict[str, Any]) -> dict[str, Any]:
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": warmup.get("python"),
        "numpy": warmup.get("numpy"),
        "load_1min": load,
        "load_exceeds_nproc": load > nproc,
    }


class WorkloadRun:
    """Passes of one workload at one seed, and what they add up to."""

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.quick = quick
        self.passes: list[dict[str, Any]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.per_layer: dict[str, float] = {}
        self.trace: dict[str, Any] = {}

    @property
    def digest(self) -> str | None:
        return self.passes[0]["sim_digest"] if self.passes else None

    def one(self, mode: str, *, reference: bool) -> dict[str, Any] | None:
        """Run one pass; returns it if it counts, else records why not."""
        spec = {
            "mode": mode,
            "workload": self.workload.name,
            "seed": self.seed,
            "quick": self.quick,
            "reference": reference,
        }
        self.attempted += 1
        out = spawn(spec, WALL_DEADLINE_S + PARENT_GRACE_S)
        error = out.get("error")
        if error is None and not self.workload.dynamic and out["min_flow_rate"] == 0:
            error = "a flow starved (min_flow_rate == 0)"
        if error is None and self.digest not in (None, out["sim_digest"]):
            error = f"sim_digest {out['sim_digest'][:12]} differs from {self.digest[:12]}"
        if error is not None:
            self.failures.append(f"{mode}: {error}")
            return None
        out["mode"] = mode
        self.passes.append(out)
        return out

    def bare(self) -> list[dict[str, Any]]:
        return [p for p in self.passes if p["mode"] == "bare"]

    def untraced(self, *, repeats: int, seconds: float | None) -> None:
        """``repeats`` bare passes; with ``seconds``, as many as fit in
        that time but at least :data:`MIN_TIMED_PASSES`."""
        started = time.monotonic()
        while True:
            self.one("bare", reference=not any("maxmin_gap" in p for p in self.passes))
            if seconds is None:
                if self.attempted >= repeats:
                    return
            else:
                # A pass that stalls to its deadline must not be repeated
                # until the caller's own time limit: give up at 3x.
                elapsed = time.monotonic() - started
                enough = self.attempted >= MIN_TIMED_PASSES
                if elapsed >= 3 * seconds or (
                    enough and elapsed + 0.5 * elapsed / self.attempted >= seconds
                ):
                    return

    def traced(self) -> None:
        """The profiled and the wrapped pass (after one bare pass when
        no untraced pass ran), folded into the per-layer ledger."""
        if not self.bare() and self.one("bare", reference=False) is None:
            return
        profile = self.one("profile", reference=False)
        wrapped = self.one("wrapped", reference=True) if profile else None
        if profile and wrapped:
            bare_wall_s = statistics.median(p["wall_s"] for p in self.bare())
            self.per_layer = tracing.ledger(bare_wall_s, profile, wrapped)
            self.trace = wrapped["trace"]

    def end_to_end(self) -> dict[str, dict[str, Any]]:
        """Median (min, max, n, samples) per host metric over the bare
        passes; the simulated metrics once, since they repeat."""
        bare = self.bare()
        if not bare:
            return {}
        metrics: dict[str, dict[str, Any]] = {}
        for name in HOST_METRICS:
            samples = [p[name] for p in bare]
            metrics[name] = {
                "value": statistics.median(samples),
                "min": min(samples),
                "max": max(samples),
                "n": len(samples),
                "samples": samples,
            }
        for name in SIM_METRICS:
            values = [p[name] for p in bare if name in p]
            if values:
                metrics[name] = {"value": values[0], "n": len(bare)}
        return metrics

    def report(self, spec: dict[str, Any]) -> dict[str, Any]:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        failed = len(self.failures)
        end_to_end = self.end_to_end()
        for name, metric in end_to_end.items():
            metric["unit"] = units[name]
        return {
            "attempted": self.attempted,
            "failed": failed,
            "failure_rate": failed / self.attempted if self.attempted else 0.0,
            "failures": self.failures,
            "sim_digest": self.digest,
            "end_to_end": end_to_end,
            "per_layer": {
                m["name"]: {"value": self.per_layer[m["name"]], "unit": m["unit"]}
                for m in spec["per_layer"]
                if self.per_layer
            },
            "trace": self.trace,
        }


def print_report(name: str, seed: int, report: dict[str, Any]) -> None:
    ok = report["attempted"] - report["failed"]
    print(f"\n{name}  seed {seed}  {ok}/{report['attempted']} passes ok")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    for metric, m in report["end_to_end"].items():
        spread = (
            f"  [min {m['min']:.6g}  max {m['max']:.6g}  n={m['n']}]" if "min" in m else ""
        )
        print(f"  {metric:<34}{m['unit']:<10}{m['value']:<14.6g}{spread}")
    print(f"  {'failure_rate':<34}{'ratio':<10}{report['failure_rate']:<14.6g}")
    if report["per_layer"]:
        print("  -- per layer (traced passes) --")
    for metric, m in report["per_layer"].items():
        print(f"  {metric:<34}{m['unit']:<10}{m['value']:<14.6g}")


def driver_line(report: dict[str, Any], wanted: list[dict[str, Any]], section: str) -> str | None:
    """The benchmark driver's last line, or None when a metric is
    missing (then no result is printed and the exit code says why)."""
    have = report[section]
    if any(m["name"] not in have for m in wanted):
        return None
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                m["name"]: {"value": have[m["name"]]["value"], "unit": m["unit"]}
                for m in wanted
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5, help="untraced passes per workload")
    parser.add_argument(
        "--seconds", type=float, help="untraced passes for about this long instead of --repeats"
    )
    parser.add_argument("--quick", action="store_true", help="durations / 10, one repeat")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced passes")
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="driver form: 0 = untraced passes only, 1 = traced passes only; "
        "ends with one JSON line (needs --workload)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="results file")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    if args.seed < 0 or args.repeats < 1:
        parser.error("--seed must be >= 0 and --repeats >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    spec = load_spec()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    repeats = 1 if args.quick else args.repeats
    want_untraced = args.trace != 1
    want_traced = args.trace == 1 or (args.trace is None and not args.no_trace)

    # One discarded import-only child fills the page cache and .pyc
    # files, so the first timed child does not pay for them.
    warmup = spawn({"mode": "import"}, PARENT_GRACE_S)
    if "error" in warmup:
        print(f"error: warm-up child failed: {warmup['error']}", file=sys.stderr)
        return 2
    host = host_info(warmup)
    print(
        f"host: nproc {host['nproc']}  python {host['python']}  numpy {host['numpy']}  "
        f"load(1 min) {host['load_1min']:.2f}"
    )
    if host["load_exceeds_nproc"]:
        print("WARNING: load average exceeds nproc; host-time metrics are suspect")

    results: dict[str, Any] = {
        "schema": "bench-e2e/1",
        "claim": None,
        "seed": args.seed,
        "quick": args.quick,
        "host": host,
        "workloads": {},
    }
    for name in names:
        run = WorkloadRun(name, args.seed, args.quick)
        if want_untraced:
            run.untraced(repeats=repeats, seconds=args.seconds)
        if want_traced:
            run.traced()
        report = run.report(spec)
        results["workloads"][name] = report
        print_report(name, args.seed, report)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults: {args.out}")

    failed = sum(r["failed"] for r in results["workloads"].values())
    if args.trace is None:
        return 1 if failed else 0
    section = "per_layer" if args.trace else "end_to_end"
    line = driver_line(results["workloads"][names[0]], spec[section], section)
    if line is None:
        print("error: no result; every pass of a kind failed", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
