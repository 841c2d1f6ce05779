"""Greedy geographic routing (GPSR-style).

The paper notes that "the routing table may be implicit under
geographic routing [GPSR]" (§2.1).  This module provides the greedy
forwarding mode: each node forwards toward the neighbor strictly
closest to the destination.  Packets reaching a local minimum (no
neighbor closer than the current node — a "void") have no greedy
route; GPSR's perimeter mode is out of scope, so such destinations are
simply absent from the table, exactly like disconnected ones in the
other substrates.

The output is an ordinary :class:`~repro.routing.table.RouteSet`, so
every consumer (scenario runner, GMP's virtual networks) works
unchanged.

Greedy routing is always loop-free: the distance to the destination
strictly decreases at every hop.
"""

from __future__ import annotations

from repro.routing.table import RouteSet
from repro.topology.network import Topology


def greedy_geographic_routes(topology: Topology) -> RouteSet:
    """Greedy geographic routing tables for every node.

    A route toward ``destination`` exists at node ``i`` iff some
    neighbor of ``i`` is strictly closer (in Euclidean distance) to the
    destination than ``i`` itself, and the same holds recursively along
    the greedy walk until the destination is reached.
    """
    ids = topology.node_ids
    trees: dict[int, dict[int, int]] = {}

    for destination in ids:
        # First pass: the locally greedy next hop for every node.
        greedy_hop: dict[int, int] = {}
        for node_id in ids:
            if node_id == destination:
                continue
            best = node_id
            best_distance = topology.distance(node_id, destination)
            for neighbor in sorted(topology.neighbors(node_id)):
                candidate = topology.distance(neighbor, destination)
                if candidate < best_distance:
                    best = neighbor
                    best_distance = candidate
            if best != node_id:
                greedy_hop[node_id] = best

        # Second pass: keep only nodes whose greedy walk actually
        # reaches the destination (no dead-ends into a void).
        reaches: dict[int, bool] = {destination: True}

        def walk(start: int) -> bool:
            path = []
            current = start
            while current not in reaches:
                next_hop = greedy_hop.get(current)
                if next_hop is None:
                    for visited in path + [current]:
                        reaches[visited] = False
                    return False
                path.append(current)
                current = next_hop
            result = reaches[current]
            for visited in path:
                reaches[visited] = result
            return result

        trees[destination] = {
            node_id: greedy_hop[node_id]
            for node_id in ids
            if node_id != destination and walk(node_id)
        }

    return RouteSet(ids, trees)
