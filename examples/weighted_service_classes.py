#!/usr/bin/env python
"""Weighted bandwidth allocation — service classes via flow weights.

"We may establish several service classes in the network and assign
larger weights to applications belonging to higher classes" (§2.1).
On the Figure-2 topology we give the three clique-1 flows the weights
(2, 1, 3) of the paper's Table 2 and check that GMP's allocation is
roughly proportional to them, while flow 1 opportunistically uses the
leftover capacity of clique 0.

Usage::

    python examples/weighted_service_classes.py [--duration SECONDS] [--substrate dcf|fluid]
"""

import argparse

from repro import RunSpec
from repro.analysis.report import format_table

WEIGHTS = (1.0, 2.0, 1.0, 3.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--substrate", choices=("dcf", "fluid"), default="fluid")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    spec = RunSpec(
        scenario="figure2",
        weights=WEIGHTS,
        protocol="gmp",
        substrate=args.substrate,
        duration=args.duration,
        seed=args.seed,
        period=1.0,
    )
    scenario = spec.build_scenario()
    result = spec.run()

    normalized = result.normalized_rates(scenario.flows)
    rows = [
        [
            f"f{flow.flow_id}",
            flow.weight,
            result.flow_rates[flow.flow_id],
            normalized[flow.flow_id],
        ]
        for flow in scenario.flows
    ]
    print(
        format_table(
            ["flow", "weight", "rate (pkt/s)", "normalized rate"],
            rows,
            title="Weighted maxmin on the Figure-2 topology (Table 2 layout)",
        )
    )
    print()
    print(
        "Flows 2, 3, 4 share clique 1: their rates should be roughly "
        "proportional to weights 2:1:3 (equal normalized rates)."
    )
    print(
        "Flow 1 rides higher than its weight suggests — it reuses the "
        "bandwidth of clique 0 that flow 2 cannot consume."
    )


if __name__ == "__main__":
    main()
