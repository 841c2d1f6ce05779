"""Gate the hot-path micro-benchmarks against the committed baseline.

The CI ``perf`` job runs the pytest-benchmark suite and compares its
raw JSON output with ``benchmarks/bench-baseline.json``::

    python -m pytest benchmarks/test_performance.py \
        --benchmark-min-rounds=5 --benchmark-json=bench.json
    python benchmarks/compare_bench.py bench.json --threshold 2.0

The check fails when a benchmark's mean exceeds ``--threshold`` times
its baseline mean, when a baseline entry is missing from the run, and
when the run holds a benchmark with no baseline entry (so a new
benchmark cannot go ungated unnoticed).  The default threshold is
deliberately loose (2x) because shared CI runners are noisy; the job
catches order-of-magnitude regressions (an accidentally disabled
cache, a quadratic scan reintroduced), not percent-level drift.

After an intentional performance change, or to gate a new benchmark,
re-record the baseline from a fresh run::

    python benchmarks/compare_bench.py bench.json --record

The baseline holds :func:`parse_benchmark_json`'s reduction of that
run, so both sides of the comparison come from the same reducer.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def parse_benchmark_json(path: pathlib.Path) -> dict[str, dict[str, float]]:
    """Reduce a pytest-benchmark JSON to {test name: {mean_s, min_s, rounds}}."""
    with path.open(encoding="utf-8") as handle:
        payload = json.load(handle)
    return {
        bench["name"]: {
            "mean_s": bench["stats"]["mean"],
            "min_s": bench["stats"]["min"],
            "rounds": bench["stats"]["rounds"],
        }
        for bench in payload["benchmarks"]
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="pytest-benchmark JSON from this run")
    parser.add_argument(
        "--baseline",
        default=str(pathlib.Path(__file__).with_name("bench-baseline.json")),
    )
    parser.add_argument("--threshold", type=float, default=2.0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="write the fresh run to --baseline instead of comparing",
    )
    args = parser.parse_args(argv)

    fresh = parse_benchmark_json(pathlib.Path(args.fresh))
    baseline_path = pathlib.Path(args.baseline)
    if args.record:
        baseline_path.write_text(
            json.dumps({"benchmarks": fresh}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"recorded {len(fresh)} benchmarks -> {baseline_path}")
        return 0
    with baseline_path.open(encoding="utf-8") as handle:
        baseline = json.load(handle)["benchmarks"]

    failures: list[str] = []
    for name in sorted(baseline.keys() | fresh.keys()):
        if name not in fresh:
            failures.append(f"{name}: missing from fresh run")
            continue
        if name not in baseline:
            failures.append(f"{name}: no baseline entry (re-record with --record)")
            continue
        measured = fresh[name]["mean_s"]
        reference = baseline[name]["mean_s"]
        allowed = reference * args.threshold
        verdict = "ok" if measured <= allowed else "REGRESSED"
        print(
            f"{name}: {measured * 1e3:.2f} ms "
            f"(baseline {reference * 1e3:.2f} ms, "
            f"allowed {allowed * 1e3:.2f} ms) {verdict}"
        )
        if measured > allowed:
            failures.append(
                f"{name}: {measured * 1e3:.2f} ms exceeds "
                f"{args.threshold:g}x baseline ({allowed * 1e3:.2f} ms)"
            )

    if failures:
        print("\nperf regression check FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print("\nperf regression check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
