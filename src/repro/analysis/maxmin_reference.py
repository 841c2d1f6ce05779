"""Centralized weighted-maxmin reference solver.

Computes the global maxmin allocation GMP is supposed to converge to,
by progressive filling ("water-filling") over the clique-capacity
model: a flow consumes one unit of a clique's capacity for every one
of its path links inside that clique, and all normalized rates rise
together until each flow is stopped by its desirable rate or by a
saturated clique.  The loop is
:func:`~repro.topology.cliques.progressive_fill`, the one the fluid MAC
solves each round with (a link there is a one-hop flow of weight 1).

This is the ground truth the tests and benchmarks compare the
distributed protocol against; the paper itself derives the expected
outcomes of Tables 1–2 from the same reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.flows.flow import FlowSet
from repro.routing.table import RouteSet
from repro.topology.cliques import Clique, clique_traversals, progressive_fill


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
    flow_list = list(flows)
    capacities, traversals = clique_traversals(
        cliques,
        {
            flow.flow_id: routes.path_links(flow.source, flow.destination)
            for flow in flow_list
        },
        capacity,
        clique_capacities,
    )
    levels, stopped, remaining = progressive_fill(
        [flow.desired_rate / flow.weight for flow in flow_list],
        [flow.weight for flow in flow_list],
        [traversals[flow.flow_id] for flow in flow_list],
        capacities,
    )
    return MaxminSolution(
        rates={
            flow.flow_id: level * flow.weight for flow, level in zip(flow_list, levels)
        },
        normalized={flow.flow_id: level for flow, level in zip(flow_list, levels)},
        bottlenecks={
            flow.flow_id: None if pos is None else cliques[pos].clique_id
            for flow, pos in zip(flow_list, stopped)
        },
        clique_usage={
            clique.clique_id: clique_capacity - left
            for clique, clique_capacity, left in zip(cliques, capacities, remaining)
        },
    )
