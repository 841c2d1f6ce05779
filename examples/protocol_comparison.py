#!/usr/bin/env python
"""Compare GMP against plain 802.11 and 2PP on the Figure-3 chain.

Reproduces the structure of the paper's Table 3: per-flow rates, the
effective network throughput U, and both fairness indices, one column
per protocol.

Usage::

    python examples/protocol_comparison.py [--duration SECONDS] [--substrate dcf|fluid]
"""

import argparse

from repro import RunSpec
from repro.analysis.report import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--substrate", choices=("dcf", "fluid"), default="dcf")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    results = {}
    for protocol in ("802.11", "2pp", "gmp"):
        spec = RunSpec(
            scenario="figure3",
            protocol=protocol,
            substrate=args.substrate,
            duration=args.duration,
            seed=args.seed,
            period=2.0,
        )
        results[protocol] = spec.run()
        print(f"ran {protocol:7s} ({args.substrate}, {args.duration:g}s)")

    scenario = spec.build_scenario()
    protocols = list(results)
    rows = []
    for flow_id in sorted(scenario.flows.destinations() and results["gmp"].flow_rates):
        rows.append(
            [f"<{scenario.flows.get(flow_id).source},{scenario.flows.get(flow_id).destination}>"]
            + [results[p].flow_rates[flow_id] for p in protocols]
        )
    rows.append(["U"] + [results[p].effective_throughput for p in protocols])
    rows.append(["I_mm"] + [results[p].i_mm for p in protocols])
    rows.append(["I_eq"] + [results[p].i_eq for p in protocols])
    print()
    print(
        format_table(
            ["flow"] + protocols, rows, title="Figure-3 chain (paper Table 3 layout)"
        )
    )
    print()
    print("Expected shape: I_mm(gmp) >> I_mm(2pp) > I_mm(802.11);")
    print("plain 802.11 starves the multihop flows, 2PP favors the 1-hop flow.")


if __name__ == "__main__":
    main()
