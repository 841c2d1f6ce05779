"""Distance-vector route computation (synchronous Bellman–Ford).

Emulates RIP-style convergence: every node repeatedly advertises its
distance vector to its neighbors until no distance changes.  Ties are
broken toward the smaller-id neighbor, matching the link-state
implementation so the two substrates are interchangeable.
"""

from __future__ import annotations

from repro.errors import RoutingError
from repro.routing.table import RouteSet
from repro.topology.network import Topology

_INF = float("inf")


def distance_vector_routes(
    topology: Topology, *, max_rounds: int | None = None
) -> RouteSet:
    """Routing tables computed by synchronous distance-vector rounds.

    Args:
        topology: the network.
        max_rounds: safety cap on advertisement rounds; defaults to the
            node count (Bellman–Ford converges in at most |V|-1 rounds
            on static topologies).

    Raises:
        RoutingError: if the computation fails to converge within the
            round cap (impossible on a static topology; defensive).
    """
    ids = topology.node_ids
    if max_rounds is None:
        max_rounds = max(len(ids), 1)

    # distance[i][t] and via[i][t]: i's current belief about destination t.
    distance: dict[int, dict[int, float]] = {
        i: {t: (0.0 if t == i else _INF) for t in ids} for i in ids
    }
    via: dict[int, dict[int, int]] = {i: {} for i in ids}

    for _round in range(max_rounds + 1):
        changed = False
        for i in ids:
            for neighbor in sorted(topology.neighbors(i)):
                for t in ids:
                    candidate = distance[neighbor][t] + 1.0
                    best = distance[i][t]
                    current_via = via[i].get(t)
                    better = candidate < best
                    same_cost_smaller_hop = (
                        candidate == best
                        and current_via is not None
                        and neighbor < current_via
                    )
                    if better or same_cost_smaller_hop:
                        distance[i][t] = candidate
                        via[i][t] = neighbor
                        changed = True
        if not changed:
            break
    else:  # pragma: no cover - defensive; static graphs always converge
        raise RoutingError(f"distance-vector did not converge in {max_rounds} rounds")

    return RouteSet(
        ids,
        {
            t: {i: via[i][t] for i in ids if i != t and distance[i][t] < _INF}
            for t in ids
        },
    )
