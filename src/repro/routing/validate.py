"""Routing validation.

The congestion-avoidance scheme's no-deadlock argument (paper §2.2:
"No cyclic waiting is possible if routing is acyclic") requires
per-destination acyclicity; these checks enforce it before a scenario
runs.
"""

from __future__ import annotations

from repro.errors import RoutingError
from repro.routing.table import RouteSet


def routing_is_acyclic(routes: RouteSet, destination: int) -> bool:
    """True if the next-hop graph toward ``destination`` has no cycle.

    The next-hop graph has an edge ``i -> next_hop(i, destination)``
    for every node with a route; acyclicity means every forwarding
    walk terminates at the destination.
    """
    tree = routes.tree(destination)
    state: dict[int, int] = {}  # 0 = visiting, 1 = done

    for start in tree:
        walk: list[int] = []
        current = start
        while True:
            mark = state.get(current)
            if mark == 1 or current == destination:
                break
            if mark == 0:
                return False  # reached a node already on this walk
            state[current] = 0
            walk.append(current)
            next_hop = tree.get(current)
            if next_hop is None:
                break
            current = next_hop
        for visited in walk:
            state[visited] = 1
    return True


def assert_acyclic(routes: RouteSet, destinations: list[int]) -> None:
    """Raise :class:`RoutingError` if any destination's next-hop graph
    contains a cycle."""
    for destination in destinations:
        if not routing_is_acyclic(routes, destination):
            raise RoutingError(
                f"next-hop graph toward {destination} contains a cycle"
            )
