#!/usr/bin/env python
"""Wireless mesh with an Internet gateway — the paper's motivating case.

"For new users to participate in a wireless mesh network, they want to
be sure that their end-to-end traffic is treated fairly as everyone
else" (§1).  We build a 3x3 mesh whose corner node is the gateway;
every other node sends a flow to it (all flows share one destination,
the §4 single-destination case).  Under plain 802.11 the far nodes
starve; GMP equalizes everyone regardless of hop count.

Usage::

    python examples/mesh_gateway.py [--duration SECONDS]
"""

import argparse

from repro import RunSpec
from repro.analysis.report import format_table
from repro.routing.link_state import link_state_routes
from repro.scenarios.spec import LITERAL

GATEWAY = 0

#: A 3x3 mesh, 200 m spacing (node ``3 * row + col``), every node but
#: the corner gateway sending one flow to it (flow ``i`` from node ``i``).
MESH = {
    "nodes": [[200.0 * col, 200.0 * row] for row in range(3) for col in range(3)],
    "flows": [[node, GATEWAY] for node in range(1, 9)],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    results = {}
    for protocol in ("802.11", "gmp"):
        spec = RunSpec(
            scenario=LITERAL,
            topology=MESH,
            protocol=protocol,
            substrate="fluid",
            duration=args.duration,
            seed=args.seed,
            period=1.0,
        )
        results[protocol] = spec.run()
        print(f"ran {protocol} for {args.duration:g}s")

    scenario = spec.build_scenario()
    routes = link_state_routes(scenario.topology)
    rows = []
    for flow in scenario.flows:
        hops = routes.hop_count(flow.source, GATEWAY)
        rows.append(
            [
                f"node {flow.source}",
                hops,
                results["802.11"].flow_rates[flow.flow_id],
                results["gmp"].flow_rates[flow.flow_id],
            ]
        )
    rows.sort(key=lambda row: row[1])
    print()
    print(
        format_table(
            ["user", "hops to gateway", "802.11 (pkt/s)", "GMP (pkt/s)"],
            rows,
            title="Per-user goodput toward the gateway",
        )
    )
    print()
    for protocol, result in results.items():
        print(
            f"{protocol:7s}: I_mm={result.i_mm:.3f}  I_eq={result.i_eq:.3f}  "
            f"U={result.effective_throughput:.0f}"
        )


if __name__ == "__main__":
    main()
