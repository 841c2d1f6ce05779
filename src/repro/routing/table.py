"""Routing tables and the network-wide route set."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.errors import RoutingError
from repro.topology.network import Link

#: Next-hop tree toward one destination: node → its next hop.  The
#: destination itself and nodes that cannot reach it are absent.
Tree = dict[int, int]


class RouteSet:
    """All routes of a network, stored per *destination*.

    This is the object the rest of the library consumes: the scenario
    runner asks it for flow paths, GMP asks which links serve a given
    destination (to build virtual networks).  A destination's next-hop
    tree is resolved on first use and then fixed for the life of the
    set — nothing re-routes (faults gate links in the MAC) — so a run
    pays for the destinations its traffic names, not for every node.

    Args:
        node_ids: every node of the network.
        trees: next-hop trees already computed, keyed by destination.
        resolve: computes the tree of a destination not in ``trees``;
            without it such a destination is unreachable from anywhere.
    """

    def __init__(
        self,
        node_ids: Iterable[int],
        trees: Mapping[int, Tree] | None = None,
        *,
        resolve: Callable[[int], Tree] | None = None,
    ) -> None:
        self._node_ids = sorted(node_ids)
        self._nodes = frozenset(self._node_ids)
        self._trees: dict[int, Tree] = dict(trees or {})
        self._resolve = resolve

    def tree(self, destination: int) -> Tree:
        """Next-hop tree toward ``destination`` (empty when nothing
        routes there, e.g. an unknown node)."""
        tree = self._trees.get(destination)
        if tree is None:
            if self._resolve is None or destination not in self._nodes:
                return {}
            tree = self._trees[destination] = self._resolve(destination)
        return tree

    def table(self, node_id: int) -> RoutingTable:
        """The routing table of ``node_id``.

        Raises:
            RoutingError: for unknown nodes.
        """
        if node_id not in self._nodes:
            raise RoutingError(f"no routing table for node {node_id}")
        return RoutingTable(node_id, self)

    def next_hop(self, node_id: int, destination: int) -> int:
        """Neighbor ``node_id`` forwards to for ``destination``.

        Raises:
            RoutingError: if the destination is unreachable.
        """
        if destination == node_id:
            return node_id
        try:
            return self.tree(destination)[node_id]
        except KeyError:
            raise RoutingError(
                f"node {node_id} has no route to {destination}"
            ) from None

    def path(self, source: int, destination: int) -> list[int]:
        """Node sequence from ``source`` to ``destination`` inclusive.

        Raises:
            RoutingError: if the route is missing or contains a loop.
        """
        path = [source]
        current = source
        limit = len(self._node_ids) + 1
        while current != destination:
            current = self.next_hop(current, destination)
            if current in path:
                raise RoutingError(
                    f"routing loop toward {destination}: {path + [current]}"
                )
            path.append(current)
            if len(path) > limit:
                raise RoutingError(
                    f"path from {source} to {destination} exceeds node count"
                )
        return path

    def path_links(self, source: int, destination: int) -> list[Link]:
        """Directed links of the path from ``source`` to ``destination``."""
        path = self.path(source, destination)
        return list(zip(path, path[1:]))

    def hop_count(self, source: int, destination: int) -> int:
        """Number of links on the route."""
        return len(self.path(source, destination)) - 1

    def node_ids(self) -> list[int]:
        """All nodes with a routing table, sorted."""
        return list(self._node_ids)


@dataclass(frozen=True)
class RoutingTable:
    """Next-hop table of one node: a view of its row of a
    :class:`RouteSet` (asking about a destination resolves that
    destination's tree).

    Attributes:
        node_id: owner of the table.
        routes: the set the table reads.
    """

    node_id: int
    routes: RouteSet

    def next_hop(self, destination: int) -> int:
        """Neighbor to forward to for ``destination`` (the owner itself
        when it *is* the destination).

        Raises:
            RoutingError: if the destination is unreachable.
        """
        return self.routes.next_hop(self.node_id, destination)

    def has_route(self, destination: int) -> bool:
        """True if the destination is reachable (or is the owner)."""
        return (
            destination == self.node_id
            or self.node_id in self.routes.tree(destination)
        )

    def destinations(self) -> list[int]:
        """All reachable destinations, sorted (excluding the owner)."""
        return [
            destination
            for destination in self.routes.node_ids()
            if destination != self.node_id and self.has_route(destination)
        ]
