#!/usr/bin/env python
"""Fairness study over random topologies.

Samples random connected networks with random multihop flows and
reports the fairness gain of GMP over plain 802.11 — the kind of
aggregate evidence a deployment decision would want beyond the paper's
three hand-built topologies.

Usage::

    python examples/random_network_study.py [--samples N] [--nodes N]
"""

import argparse

from repro import RunSpec
from repro.analysis.report import format_table
from repro.scenarios.spec import LITERAL
from repro.topology.builders import random_topology
from repro.topology.network import DEFAULT_TX_RANGE


def build(seed: int, num_nodes: int, num_flows: int) -> dict:
    """A random connected placement with flows at 400 pkt/s, as a
    literal topology."""
    topology = random_topology(num_nodes, width=800.0, height=800.0, seed=seed)
    if topology.tx_range != DEFAULT_TX_RANGE:
        raise SystemExit(f"{num_nodes} nodes do not connect at the default radio range")
    ids = topology.node_ids
    flows = []
    for k in range(num_flows):
        source = ids[(seed + 3 * k) % len(ids)]
        dest = ids[(seed + 5 * k + 1) % len(ids)]
        if source == dest:
            dest = ids[(ids.index(dest) + 1) % len(ids)]
        flows.append([source, dest, 1.0, 400.0])
    nodes = [[topology.node(i).x, topology.node(i).y] for i in ids]
    return {"nodes": nodes, "flows": flows}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=5)
    parser.add_argument("--nodes", type=int, default=9)
    parser.add_argument("--flows", type=int, default=4)
    parser.add_argument("--duration", type=float, default=30.0)
    args = parser.parse_args()

    rows = []
    gains = []
    for seed in range(args.samples):
        kwargs = dict(
            scenario=LITERAL,
            topology=build(seed, args.nodes, args.flows),
            substrate="fluid",
            duration=args.duration,
            seed=seed,
            capacity_pps=500.0,
        )
        plain = RunSpec(protocol="802.11", **kwargs).run()
        gmp = RunSpec(
            protocol="gmp", period=0.5, gmp={"additive_increase": 4.0}, **kwargs
        ).run()
        gains.append(gmp.i_eq - plain.i_eq)
        rows.append(
            [
                seed,
                plain.i_mm,
                gmp.i_mm,
                plain.i_eq,
                gmp.i_eq,
                plain.effective_throughput,
                gmp.effective_throughput,
            ]
        )

    print(
        format_table(
            [
                "seed",
                "802.11 I_mm",
                "GMP I_mm",
                "802.11 I_eq",
                "GMP I_eq",
                "802.11 U",
                "GMP U",
            ],
            rows,
            title=f"{args.samples} random networks, {args.nodes} nodes, {args.flows} flows",
            float_format="{:.3f}",
        )
    )
    print()
    print(f"mean I_eq gain (GMP - 802.11): {sum(gains) / len(gains):+.3f}")


if __name__ == "__main__":
    main()
