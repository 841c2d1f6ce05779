"""Link-state route computation (Dijkstra per destination).

Each node is assumed to know the full topology (as a link-state
protocol would flood it) and runs Dijkstra.  Ties between equal-cost
paths are broken toward the smaller neighbor id so that every node
computes consistent, loop-free next hops.
"""

from __future__ import annotations

import heapq
from functools import partial

from repro.routing.table import RouteSet
from repro.topology.network import Topology


def _dijkstra_parents(
    topology: Topology, destination: int
) -> dict[int, int]:
    """Shortest-path tree toward ``destination``.

    Returns ``parent`` where ``parent[i]`` is i's next hop toward the
    destination (computed by running Dijkstra *from* the destination on
    the undirected connectivity graph; costs are hop counts).
    """
    dist: dict[int, float] = {destination: 0.0}
    parent: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = [(0.0, destination, destination)]
    while heap:
        cost, tiebreak, current = heapq.heappop(heap)
        del tiebreak
        if cost > dist.get(current, float("inf")):
            continue
        for neighbor in sorted(topology.neighbors(current)):
            candidate = cost + 1.0
            if candidate < dist.get(neighbor, float("inf")):
                dist[neighbor] = candidate
                parent[neighbor] = current
                heapq.heappush(heap, (candidate, neighbor, neighbor))
    return parent


def link_state_routes(topology: Topology) -> RouteSet:
    """Shortest-path (hop count) routes; each destination's tree is
    one Dijkstra, run when the destination is first asked about.

    Unreachable destinations are simply absent from the trees;
    :meth:`~repro.routing.table.RouteSet.next_hop` raises for them.
    """
    return RouteSet(
        topology.node_ids, resolve=partial(_dijkstra_parents, topology)
    )
