"""Compare two results files of ``run.py``: ``compare.py A.json B.json``.

One row per workload x end-to-end metric, A being the base: each
side's median and quartiles, the ratio B/A with its base, and a
verdict.  The threshold is the metric's bound from ``BENCHMARK.json``
(a share of A's median) or its absolute floor in :data:`FLOORS`,
whichever is larger:

* ``REGRESSION`` — B's median is worse than A's by more than the
  threshold;
* ``unresolved`` — the run-to-run spread (inter-quartile) of either
  side exceeds the threshold, so a difference of that size cannot be
  told from noise — unless every B sample is better than every A
  sample;
* ``ok`` — otherwise.

Exits non-zero on a regression or when B's failure rate is higher.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]

#: ``imm`` and ``maxmin_gap`` swing 10-40 % from one run seed to the
#: next, so ``BENCHMARK.json`` cannot bound them across seeds; at one
#: seed they repeat exactly and are held to an absolute floor here.
ACCURACY = (
    {"name": "imm", "unit": "ratio", "better": "higher", "bound": 0.0},
    {"name": "maxmin_gap", "unit": "ratio", "better": "lower", "bound": 0.0},
)

#: Differences smaller than this are neither a regression nor
#: unresolved: 50 ms of set-up is below what a user notices (figure3
#: sets up in under 2 ms, where 25 % is timer noise), and 0.02 is the
#: accuracy tolerance the issue fixed.
FLOORS = {"setup_s": 0.05, "imm": 0.02, "maxmin_gap": 0.02}


def quartiles(metric: dict[str, Any]) -> tuple[float, float, float]:
    """(q1, median, q3); a simulated metric repeats, so it has no spread."""
    samples = metric.get("samples", [])
    if len(samples) < 2:
        return (metric["value"],) * 3
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def threshold(m: dict[str, Any], base: float) -> float:
    return max(m["bound"] * abs(base), FLOORS.get(m["name"], 0.0))


def verdict(a: dict[str, Any], b: dict[str, Any], m: dict[str, Any]) -> str:
    sign = 1.0 if m["better"] == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    limit = threshold(m, qa[1])
    if max(q[2] - q[0] for q in (qa, qb)) > limit:
        sa, sb = a.get("samples", [a["value"]]), b.get("samples", [b["value"]])
        b_always_better = max(sign * x for x in sb) < min(sign * x for x in sa)
        return "ok (every B better)" if b_always_better else "unresolved"
    return "REGRESSION" if sign * (qb[1] - qa[1]) > limit else "ok"


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> tuple[list[str], bool]:
    """The table rows and whether B regressed."""
    rows: list[str] = []
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            continue
        for m in (*spec["end_to_end"], *ACCURACY):
            ma, mb = wa["end_to_end"].get(m["name"]), wb["end_to_end"].get(m["name"])
            if ma is None or mb is None:
                rows.append(f"{workload:<20}{m['name']:<15}missing on one side")
                bad = True
                continue
            qa, qb = quartiles(ma), quartiles(mb)
            result = verdict(ma, mb, m)
            bad |= result == "REGRESSION"
            rows.append(
                f"{workload:<20}{m['name']:<15}"
                f"A {qa[1]:<11.6g}[{qa[0]:.6g}, {qa[2]:.6g}]  "
                f"B {qb[1]:<11.6g}[{qb[0]:.6g}, {qb[2]:.6g}]  "
                f"B/A {qb[1] / qa[1]:.4f} of {qa[1]:.6g} {m['unit']}  "
                f"({m['better']} is better, may worsen by {threshold(m, qa[1]):.4g})  {result}"
            )
        higher = wb["failure_rate"] > wa["failure_rate"]
        bad |= higher
        digest = "identical" if wa["sim_digest"] == wb["sim_digest"] else "differs"
        rows.append(
            f"{workload:<20}{'failure_rate':<15}"
            f"A {wa['failed']}/{wa['attempted']}  B {wb['failed']}/{wb['attempted']}  "
            f"{'HIGHER' if higher else 'ok'}   sim_digest {digest}"
        )
    return rows, bad


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if (a["seed"], a["quick"]) != (b["seed"], b["quick"]):
        print("error: the two files differ in --seed or --quick", file=sys.stderr)
        return 2
    rows, bad = compare(a, b, spec)
    print("\n".join(rows))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
