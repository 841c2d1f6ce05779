"""The :class:`Topology` container and directed-link helpers.

A *wireless link* exists between two nodes whose distance is at most
the transmission range; traffic on a link is directed, so the rest of
the library represents a link as an ordered pair ``(i, j)`` of node
identifiers meaning "i transmits to j".

Besides the decode range (``tx_range``), the topology records a
carrier-sense range (``cs_range``, also used as the interference
range): a node senses energy — and a reception is corrupted — within
``cs_range`` of a transmitter even when the frame cannot be decoded.
The default 250 m / 550 m pair mirrors the classic ns-2 802.11
configuration that the paper's setup ("transmission range of 250
meters") implies.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import TopologyError
from repro.topology.node import Node
from repro.topology.spatial import SpatialIndex

#: A directed wireless link: (transmitter node id, receiver node id).
Link = tuple[int, int]

DEFAULT_TX_RANGE = 250.0
DEFAULT_CS_RANGE = 550.0


def link(i: int, j: int) -> Link:
    """Construct a directed link from ``i`` to ``j``."""
    return (i, j)


def reverse(a_link: Link) -> Link:
    """The same wireless link in the opposite direction."""
    return (a_link[1], a_link[0])


def canonical(a_link: Link) -> Link:
    """The ``(min, max)`` representative of a link: contention is
    direction-insensitive, so both directions share it."""
    i, j = a_link
    return (i, j) if i <= j else (j, i)


class Topology:
    """A static multihop wireless network.

    Nodes are placed on a plane; undirected connectivity is derived
    from ``tx_range``.  Range-derived structures (the neighbor map and
    per-sender sensing sets) are computed once the topology is frozen
    (first connectivity query) through a uniform-grid spatial index
    (:class:`~repro.topology.spatial.SpatialIndex`, cell size
    ``cs_range``), so construction cost is near-linear in the node
    count at fixed density instead of the historical O(n²) all-pairs
    scan, and the MAC hot paths see O(1) set lookups.

    Args:
        tx_range: decode range in meters.
        cs_range: carrier-sense / interference range in meters; must be
            at least ``tx_range``.
    """

    def __init__(
        self,
        *,
        tx_range: float = DEFAULT_TX_RANGE,
        cs_range: float = DEFAULT_CS_RANGE,
    ) -> None:
        if tx_range <= 0:
            raise TopologyError(f"tx_range must be positive: {tx_range}")
        if cs_range < tx_range:
            raise TopologyError(
                f"cs_range ({cs_range}) must be >= tx_range ({tx_range})"
            )
        self.tx_range = float(tx_range)
        self.cs_range = float(cs_range)
        self._nodes: dict[int, Node] = {}
        self._neighbors: dict[int, frozenset[int]] | None = None
        self._index: SpatialIndex | None = None
        self._ids: list[int] = []
        self._rows: dict[int, int] = {}
        self._sensing: dict[int, frozenset[int]] = {}

    # --- construction -------------------------------------------------------

    def add_node(self, node_id: int, x: float, y: float) -> Node:
        """Place a node; returns the created :class:`Node`.

        Raises:
            TopologyError: on duplicate node ids.
        """
        if node_id in self._nodes:
            raise TopologyError(f"duplicate node id {node_id}")
        node = Node(node_id=node_id, x=float(x), y=float(y))
        self._nodes[node_id] = node
        # Invalidate derived state (neighbor map, spatial index,
        # sensing-set cache).
        self._neighbors = None
        self._index = None
        self._sensing.clear()
        return node

    def add_nodes(self, positions: Iterable[tuple[float, float]]) -> list[Node]:
        """Place several nodes with consecutive ids starting after the
        current largest id (0 for an empty topology)."""
        start = max(self._nodes, default=-1) + 1
        return [
            self.add_node(start + offset, x, y)
            for offset, (x, y) in enumerate(positions)
        ]

    # --- basic queries --------------------------------------------------------

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def node_ids(self) -> list[int]:
        """All node identifiers in ascending order."""
        return sorted(self._nodes)

    def node(self, node_id: int) -> Node:
        """Look up a node.

        Raises:
            TopologyError: if the node does not exist.
        """
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id}") from None

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance in meters between nodes ``i`` and ``j``.

        Computed on demand from the coordinates (no O(n²) cache); the
        range predicates below answer from precomputed sets instead of
        calling this.
        """
        return self.node(i).distance_to(self.node(j))

    # --- connectivity -----------------------------------------------------------

    def spatial_index(self) -> SpatialIndex:
        """The uniform-grid index over current node positions (cell
        size ``cs_range``), rebuilt lazily after node additions."""
        if self._index is None:
            ids = sorted(self._nodes)
            self._ids = ids
            self._rows = {node_id: row for row, node_id in enumerate(ids)}
            xs = np.fromiter(
                (self._nodes[node_id].x for node_id in ids), float, len(ids)
            )
            ys = np.fromiter(
                (self._nodes[node_id].y for node_id in ids), float, len(ids)
            )
            self._index = SpatialIndex(xs, ys, self.cs_range)
        return self._index

    def _neighbor_map(self) -> dict[int, frozenset[int]]:
        if self._neighbors is None:
            index = self.spatial_index()
            ids = self._ids
            adjacency: dict[int, list[int]] = {node_id: [] for node_id in ids}
            for row_i, row_j in index.pairs(self.tx_range).tolist():
                i, j = ids[row_i], ids[row_j]
                adjacency[i].append(j)
                adjacency[j].append(i)
            self._neighbors = {
                node_id: frozenset(peers) for node_id, peers in adjacency.items()
            }
        return self._neighbors

    def neighbors(self, node_id: int) -> frozenset[int]:
        """Nodes within decode range of ``node_id`` (excluding itself)."""
        self.node(node_id)
        return self._neighbor_map()[node_id]

    def has_link(self, i: int, j: int) -> bool:
        """True if ``i`` and ``j`` can exchange frames directly."""
        return j in self.neighbors(i)

    def links(self) -> list[Link]:
        """Every directed link, sorted for determinism."""
        result = [
            (i, j) for i in self.node_ids for j in sorted(self.neighbors(i))
        ]
        return result

    def undirected_links(self) -> list[Link]:
        """One representative ``(min, max)`` pair per wireless link."""
        return [
            (i, j)
            for i in self.node_ids
            for j in sorted(self.neighbors(i))
            if i < j
        ]

    def validate_link(self, a_link: Link) -> None:
        """Raise :class:`TopologyError` unless ``a_link`` exists."""
        i, j = a_link
        if not self.has_link(i, j):
            raise TopologyError(f"no wireless link between {i} and {j}")

    # --- radio ranges ------------------------------------------------------------

    def decodes(self, sender: int, receiver: int) -> bool:
        """True if ``receiver`` can decode frames from ``sender``."""
        self.node(receiver)
        return receiver in self.neighbors(sender)

    def senses(self, sender: int, listener: int) -> bool:
        """True if ``listener`` detects channel energy when ``sender``
        transmits (decodable or not)."""
        self.node(listener)
        return listener in self.sensing_nodes(sender)

    def interferes(self, sender: int, receiver: int) -> bool:
        """True if a transmission by ``sender`` corrupts an overlapping
        reception at ``receiver``.  Same radius as :meth:`senses`."""
        return self.senses(sender, receiver)

    def sensing_nodes(self, sender: int) -> frozenset[int]:
        """All nodes that sense ``sender``'s transmissions.

        Answered from the spatial index and cached per sender — this
        sits on the MAC hot paths (carrier-sense attribution in both
        substrates), which used to rescan every node id per call.
        """
        cached = self._sensing.get(sender)
        if cached is None:
            self.node(sender)
            index = self.spatial_index()
            rows = index.ball(self._rows[sender], self.cs_range)
            ids = self._ids
            cached = frozenset(ids[row] for row in rows.tolist())
            self._sensing[sender] = cached
        return cached

    def __iter__(self) -> Iterator[Node]:
        for node_id in self.node_ids:
            yield self._nodes[node_id]
