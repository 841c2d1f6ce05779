"""2PP — the two-phase end-to-end fair allocation of Li (ICDCS'05).

The paper describes 2PP as: "ensure a basic fair share of bandwidth
for all flows and then favor short flows in allocating the remaining
bandwidth ... based on the linear programming approach".  We implement
it in the clique-capacity model:

* **Phase 1 (basic fair share).**  Every clique's capacity is divided
  equally among all flow-link traversals inside it; a flow's basic
  share is the minimum over the cliques its path crosses.  This is the
  "highly conservative" share the paper criticizes — a flow crossing a
  busy clique gets a small share even if that clique is otherwise
  lightly used.
* **Phase 2 (LP).**  Remaining clique capacity is handed out by
  maximizing total extra throughput, which drives all surplus to the
  flows with the fewest clique traversals (short/side flows).

The resulting per-flow rates are enforced as static source rate
limits; nodes queue per flow (10 packets) and serve flows round-robin,
per the paper's §7.2 description of 2PP's buffer strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.lp import maximize_total_extra
from repro.errors import AnalysisError
from repro.flows.flow import FlowSet
from repro.routing.table import RouteSet
from repro.topology.cliques import Clique, clique_traversals
from repro.topology.network import Link, canonical


@dataclass(frozen=True)
class TwoPhaseAllocation:
    """Result of the 2PP computation.

    Attributes:
        basic: phase-1 basic fair share per flow (packets/second).
        extra: phase-2 LP surplus per flow.
        rates: total allocation (basic + extra), capped at the desired
            rate.
    """

    basic: dict[int, float]
    extra: dict[int, float]
    rates: dict[int, float]


def two_phase_rates(
    flows: FlowSet,
    routes: RouteSet,
    cliques: list[Clique],
    capacity: float,
    *,
    clique_capacities: dict[tuple[int, int], float] | None = None,
) -> TwoPhaseAllocation:
    """Compute 2PP's end-to-end rates.

    Raises:
        AnalysisError: on empty flow sets or non-positive capacities.
    """
    if len(flows) == 0:
        raise AnalysisError("2PP allocation of an empty flow set")
    flow_ids = [flow.flow_id for flow in flows]
    capacities, traversals = clique_traversals(
        cliques,
        {
            flow.flow_id: routes.path_links(flow.source, flow.destination)
            for flow in flows
        },
        capacity,
        clique_capacities,
    )

    # Phase 1 (Li's basic fair share): every clique divides its
    # capacity equally among its member links regardless of load, each
    # link divides its share equally among the flows crossing it, and a
    # flow's basic share is the minimum over its path links.  This is
    # deliberately conservative — a lightly-loaded link in a big clique
    # still only gets 1/|clique| of the capacity.
    flows_per_link: dict[Link, int] = {}
    for flow in flows:
        for a_link in sorted(
            {
                canonical(a_link)
                for a_link in routes.path_links(flow.source, flow.destination)
            }
        ):
            flows_per_link[a_link] = flows_per_link.get(a_link, 0) + 1
    link_share: dict[Link, float] = {}
    for clique, clique_capacity in zip(cliques, capacities):
        share = clique_capacity / len(clique.links)
        for a_link in clique.links:
            current = link_share.get(a_link)
            link_share[a_link] = share if current is None else min(current, share)
    basic: dict[int, float] = {}
    for flow in flows:
        path = {
            canonical(a_link)
            for a_link in routes.path_links(flow.source, flow.destination)
        }
        shares = [
            link_share[a_link] / flows_per_link[a_link]
            for a_link in path
            if a_link in link_share
        ]
        share = min(shares) if shares else flow.desired_rate
        basic[flow.flow_id] = min(share, flow.desired_rate)

    # Phase 2: LP over the remaining capacity.
    consumption = np.zeros((len(cliques), len(flow_ids)))
    for column, flow_id in enumerate(flow_ids):
        for position in traversals[flow_id]:
            consumption[position, column] += 1.0
    used = consumption @ np.array([basic[flow_id] for flow_id in flow_ids])
    slack = np.array(capacities) - used
    upper = np.array(
        [flows.get(flow_id).desired_rate - basic[flow_id] for flow_id in flow_ids]
    )
    extra_vector = maximize_total_extra(consumption, slack, upper)
    extra = {flow_id: float(extra_vector[k]) for k, flow_id in enumerate(flow_ids)}

    rates = {
        flow_id: min(
            basic[flow_id] + extra[flow_id], flows.get(flow_id).desired_rate
        )
        for flow_id in flow_ids
    }
    return TwoPhaseAllocation(basic=basic, extra=extra, rates=rates)
