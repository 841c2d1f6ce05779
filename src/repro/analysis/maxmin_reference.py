"""Centralized weighted-maxmin reference solver.

Computes the global maxmin allocation GMP is supposed to converge to,
by progressive filling ("water-filling") over the clique-capacity
model: a flow consumes one unit of a clique's capacity for every one
of its path links inside that clique, and all normalized rates rise
together until each flow is stopped by its desirable rate or by a
saturated clique.

This is the ground truth the tests and benchmarks compare the
distributed protocol against; the paper itself derives the expected
outcomes of Tables 1–2 from the same reasoning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.flows.flow import FlowSet
from repro.routing.table import RouteSet
from repro.topology.cliques import Clique, clique_traversals

_EPSILON = 1e-9


@dataclass(frozen=True)
class MaxminSolution:
    """Result of the reference computation.

    Attributes:
        rates: packets/second per flow.
        normalized: ``rates / weight`` per flow.
        bottlenecks: per flow, the clique id that froze it (None when
            the flow reached its desirable rate).
        clique_usage: consumed capacity per clique id.
    """

    rates: dict[int, float]
    normalized: dict[int, float]
    bottlenecks: dict[int, tuple[int, int] | None]
    clique_usage: dict[tuple[int, int], float]


def weighted_maxmin_rates(
    flows: FlowSet,
    routes: RouteSet,
    cliques: list[Clique],
    capacity: float,
    *,
    clique_capacities: dict[tuple[int, int], float] | None = None,
) -> MaxminSolution:
    """Progressive-filling weighted maxmin under clique constraints.

    Args:
        flows: the end-to-end flows.
        routes: routing tables defining each flow's path.
        cliques: maximal contention cliques.
        capacity: default packets/second a clique can serialize.
        clique_capacities: optional per-clique overrides.

    Raises:
        AnalysisError: on non-positive capacities or empty flow sets.
    """
    if len(flows) == 0:
        raise AnalysisError("maxmin of an empty flow set")
    # Traversal counts: how many units of clique C one packet of flow f
    # consumes (= number of f's path links inside C).
    capacities, traversals = clique_traversals(
        cliques,
        {
            flow.flow_id: routes.path_links(flow.source, flow.destination)
            for flow in flows
        },
        capacity,
        clique_capacities,
    )

    level = {flow.flow_id: 0.0 for flow in flows}  # normalized rates
    frozen: dict[int, tuple[int, int] | None] = {}
    remaining = dict(capacities)

    # Per-clique member flows in flow order: weight_in sums the same
    # terms in the same order as a full scan (a flow outside the clique
    # contributed an exact +0.0), without touching non-member flows.
    weights = {flow.flow_id: flow.weight for flow in flows}
    clique_flows: dict[tuple[int, int], list[int]] = {
        clique_id: [] for clique_id in capacities
    }
    for flow in flows:
        for clique_id in traversals[flow.flow_id]:
            clique_flows[clique_id].append(flow.flow_id)

    def weight_in(clique_id: tuple[int, int]) -> float:
        """Combined capacity drain per unit of normalized-rate growth."""
        return sum(
            weights[flow_id] * traversals[flow_id][clique_id]
            for flow_id in clique_flows[clique_id]
            if flow_id not in frozen
        )

    while len(frozen) < len(flows):
        # Next event: a flow reaches its desirable rate, or a clique
        # saturates.
        step = math.inf
        for flow in flows:
            if flow.flow_id in frozen:
                continue
            headroom = flow.desired_rate / flow.weight - level[flow.flow_id]
            step = min(step, headroom)
        saturating: list[tuple[int, int]] = []
        for clique_id, slack in remaining.items():
            drain = weight_in(clique_id)
            if drain > _EPSILON:
                step = min(step, slack / drain)
        if not math.isfinite(step):
            break
        step = max(step, 0.0)

        for flow in flows:
            if flow.flow_id not in frozen:
                level[flow.flow_id] += step
        for clique_id in remaining:
            remaining[clique_id] -= step * weight_in(clique_id)
            if remaining[clique_id] <= _EPSILON:
                saturating.append(clique_id)

        newly_frozen = False
        for flow in flows:
            if flow.flow_id in frozen:
                continue
            if level[flow.flow_id] >= flow.desired_rate / flow.weight - _EPSILON:
                frozen[flow.flow_id] = None
                newly_frozen = True
                continue
            for clique_id in saturating:
                if traversals[flow.flow_id].get(clique_id):
                    frozen[flow.flow_id] = clique_id
                    newly_frozen = True
                    break
        if not newly_frozen:
            break  # defensive: no progress possible

    rates = {
        flow.flow_id: level[flow.flow_id] * flow.weight for flow in flows
    }
    usage = {
        clique_id: capacities[clique_id] - remaining[clique_id]
        for clique_id in capacities
    }
    bottlenecks = {flow.flow_id: frozen.get(flow.flow_id) for flow in flows}
    return MaxminSolution(
        rates=rates,
        normalized=dict(level),
        bottlenecks=bottlenecks,
        clique_usage=usage,
    )
