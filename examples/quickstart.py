#!/usr/bin/env python
"""Quickstart: run GMP on the paper's three-link chain (Figure 3).

Three flows with a common destination share a single contention
clique; plain 802.11 starves the multihop flows, GMP equalizes them.

Usage::

    python examples/quickstart.py [--substrate dcf|fluid] [--duration SECONDS]
"""

import argparse

from repro import RunSpec
from repro.analysis.report import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--substrate",
        choices=("dcf", "fluid"),
        default="fluid",
        help="fluid is fast; dcf is the packet-level 802.11 simulator",
    )
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    spec = RunSpec(
        scenario="figure3",
        protocol="gmp",
        substrate=args.substrate,
        duration=args.duration,
        seed=args.seed,
        period=1.0,
    )
    scenario = spec.build_scenario()
    print(f"Scenario: {scenario.name} — {scenario.notes}")
    print(f"Flows: {[f'{f.flow_id}:{f.source}->{f.destination}' for f in scenario.flows]}")
    print()

    result = spec.run()

    rows = [
        [f"flow {flow_id}", f"{result.hop_counts[flow_id]} hops", rate]
        for flow_id, rate in sorted(result.flow_rates.items())
    ]
    print(format_table(["flow", "path", "rate (pkt/s)"], rows, title="GMP result"))
    print()
    print(f"effective throughput U = {result.effective_throughput:.1f} pkt*hops/s")
    print(f"maxmin fairness index I_mm = {result.i_mm:.3f}")
    print(f"equality index I_eq = {result.i_eq:.3f}")
    print(f"rate-adjustment requests issued: {result.extras['requests_issued']}")


if __name__ == "__main__":
    main()
