#!/usr/bin/env python
"""Node churn: crash the middle relay of the Figure-3 chain mid-run.

Two desire-limited flows share the 0-1-2-3 chain: flow 1 spans the
whole chain, flow 2 uses only the last hop.  At t = ``--crash-at`` the
relay (node 1) dies — flow 1 is partitioned and must fall to zero while
flow 2 keeps its desired rate; at t = ``--recover-at`` the relay comes
back and both flows should return to the full-topology maxmin.  The
script prints the per-interval rate series around both transients and
the measured time-to-reconverge against the surviving-topology
reference.

Usage::

    python examples/node_failure_recovery.py [--duration SECONDS]
"""

import argparse

from repro import RunSpec
from repro.analysis.report import format_table
from repro.analysis.resilience import (
    evaluate_transient,
    surviving_maxmin_reference,
)
from repro.scenarios.spec import LITERAL

RELAY = 1
DESIRED = 40.0
CAPACITY = 400.0

#: The Figure-3 chain 0-1-2-3 (200 m spacing) with flows 0->3 and 2->3.
CHAIN = {
    "nodes": [[0.0, 0.0], [200.0, 0.0], [400.0, 0.0], [600.0, 0.0]],
    "flows": [[0, 3, 1.0, DESIRED], [2, 3, 1.0, DESIRED]],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--crash-at", type=float, default=20.0)
    parser.add_argument("--recover-at", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    crash_at = min(args.crash_at, args.duration * 0.3)
    recover_at = min(args.recover_at, args.duration * 0.6)
    spec = RunSpec(
        scenario=LITERAL,
        topology=CHAIN,
        protocol="gmp",
        substrate="fluid",
        duration=args.duration,
        seed=args.seed,
        capacity_pps=CAPACITY,
        period=0.5,
        gmp={"additive_increase": 4.0},
        # repr() spells each time exactly, so the schedule holds these floats.
        faults=f"crash:{RELAY}@{crash_at!r};recover:{RELAY}@{recover_at!r}",
        rate_interval=1.0,
    )
    scenario = spec.build_scenario()
    print("Scenario: the figure-3 chain; the middle relay crashes and recovers")
    print(
        f"relay node {RELAY} crashes at t={crash_at:g}s, "
        f"recovers at t={recover_at:g}s"
    )
    print()

    result = spec.run()

    header = ["t (s)"] + [
        f"flow {flow_id} (pkt/s)" for flow_id in sorted(result.interval_rates)
    ]
    rows = []
    for index in range(len(next(iter(result.interval_rates.values())))):
        rows.append(
            [f"{index:d}-{index + 1:d}"]
            + [
                result.interval_rates[flow_id][index]
                for flow_id in sorted(result.interval_rates)
            ]
        )
    print(
        format_table(
            header, rows, title="per-interval delivery rates", float_format="{:.1f}"
        )
    )
    print()

    for when, text in result.extras["faults"]:
        print(f"fault @ t={when:g}s: {text}")
    print()

    outage_ref = surviving_maxmin_reference(
        scenario.topology, scenario.flows, {RELAY}, CAPACITY
    )
    recovery_ref = surviving_maxmin_reference(
        scenario.topology, scenario.flows, set(), CAPACITY
    )
    for label, fault_time, reference in (
        ("crash", crash_at, outage_ref),
        ("recovery", recover_at, recovery_ref),
    ):
        metrics = evaluate_transient(
            result,
            fault_time=fault_time,
            reference=reference,
            epsilon=0.1,
            atol=4.0,
        )
        settle = (
            f"{metrics.time_to_reconverge:.1f}s"
            if metrics.time_to_reconverge is not None
            else "never (within the run)"
        )
        print(
            f"{label}: reference {dict(sorted(reference.items()))}, "
            f"time-to-reconverge {settle}, "
            f"goodput lost {metrics.goodput_lost:.0f} packets, "
            f"min rate dip {metrics.min_rate_dip:.1f} pkt/s"
        )

    audit = result.extras["invariants"]
    print()
    print(f"packet-conservation audit: {'ok' if audit.ok else 'VIOLATED'}")


if __name__ == "__main__":
    main()
