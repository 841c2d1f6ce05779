"""Link contention relation and contention graph.

Two wireless links *contend* if they cannot carry successful
transmissions simultaneously (paper §2.1).  Under the RTS/CTS protocol
interference model this holds exactly when the links share a node or
some endpoint of one link lies within interference range of some
endpoint of the other (the DATA or the CTS/ACK of one exchange would
corrupt the other).

The relation is direction-insensitive: ``(i, j)`` contends with
``(u, v)`` iff ``(j, i)`` does.  Contention graphs are therefore built
over *undirected* link representatives ``(min, max)``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import TopologyError
from repro.topology.network import Link, Topology, canonical


def links_contend(topology: Topology, first: Link, second: Link) -> bool:
    """True if the two wireless links cannot be active simultaneously.

    A link never contends with itself (or its own reverse).
    """
    a = canonical(first)
    b = canonical(second)
    if a == b:
        return False
    if set(a) & set(b):
        return True
    return any(topology.interferes(x, y) for x in a for y in b)


def _contention_adjacency(
    topology: Topology, vertices: list[Link]
) -> tuple[dict[Link, frozenset[Link]], list[int]]:
    """Adjacency of the contention graph over ``vertices``, built
    locally instead of via O(L²) :func:`links_contend` probes.

    Two distinct canonical links contend iff they share a node or some
    endpoint of one lies within interference range of some endpoint of
    the other — equivalently, writing ``close(x)`` for the vertices
    with an endpoint in ``{x} ∪ ball(x, cs_range)``, the contenders of
    ``(i, j)`` are exactly ``close(i) ∪ close(j)`` minus the link
    itself.  ``ball`` comes from the topology's per-sender sensing
    sets (spatial index), so construction touches only spatially
    nearby link pairs: near-linear in the link count at fixed density.
    The equivalence with pairwise ``links_contend`` probes is pinned
    by ``tests/test_topology_spatial.py``.

    Returns the adjacency both as link frozensets (the graph API) and
    as per-vertex bitmasks over vertex positions (bit ``k`` ⇔
    ``vertices[k]``), which the clique enumerator consumes directly.
    """
    incident: dict[int, list[int]] = {}
    for position, (i, j) in enumerate(vertices):
        incident.setdefault(i, []).append(position)
        incident.setdefault(j, []).append(position)
    incident_arrays = {
        node_id: np.asarray(positions, dtype=np.int64)
        for node_id, positions in incident.items()
    }

    def close_links(node_id: int) -> np.ndarray:
        blocks = [incident_arrays[node_id]]
        for other in sorted(topology.sensing_nodes(node_id)):
            block = incident_arrays.get(other)
            if block is not None:
                blocks.append(block)
        return np.unique(np.concatenate(blocks))

    close_cache: dict[int, np.ndarray] = {}
    adjacency: dict[Link, frozenset[Link]] = {}
    masks: list[int] = []
    row = np.zeros(len(vertices), dtype=bool)
    for position, a_link in enumerate(vertices):
        i, j = a_link
        near_i = close_cache.get(i)
        if near_i is None:
            near_i = close_cache[i] = close_links(i)
        near_j = close_cache.get(j)
        if near_j is None:
            near_j = close_cache[j] = close_links(j)
        contenders = np.union1d(near_i, near_j)
        adjacency[a_link] = frozenset(
            vertices[k] for k in contenders.tolist() if k != position
        )
        row[contenders] = True
        row[position] = False
        masks.append(
            int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        )
        row[contenders] = False
    return adjacency, masks


class ContentionGraph:
    """Adjacency structure over undirected wireless links.

    Vertices are canonical ``(min, max)`` link pairs; an edge joins two
    links that contend.  Built once per scenario and shared by the
    clique enumeration, the fluid MAC, and GMP's bandwidth-saturated
    condition.  Construction is localized through the topology's
    spatial index (see :func:`_contention_adjacency`) — only links
    whose endpoints fall within ``cs_range + 2·tx_range`` of each
    other can contend, so no all-pairs probing is needed.
    """

    def __init__(self, topology: Topology, links: Iterable[Link] | None = None) -> None:
        self.topology = topology
        if links is None:
            vertices = list(topology.undirected_links())
        else:
            vertices = sorted({canonical(a_link) for a_link in links})
            for a_link in vertices:
                topology.validate_link(a_link)
        self._vertices: list[Link] = vertices
        self._adjacency, self._masks = _contention_adjacency(topology, vertices)

    @property
    def links(self) -> list[Link]:
        """All vertices (canonical undirected links), sorted."""
        return list(self._vertices)

    def canonical(self, a_link: Link) -> Link:
        """Canonical representative of ``a_link``.

        Raises:
            TopologyError: if the link is not part of this graph.
        """
        canon = canonical(a_link)
        if canon not in self._adjacency:
            raise TopologyError(f"link {a_link} not in contention graph")
        return canon

    def contenders(self, a_link: Link) -> frozenset[Link]:
        """Links that contend with ``a_link`` (canonical forms)."""
        return self._adjacency[self.canonical(a_link)]

    def contender_masks(self) -> list[int]:
        """Per-vertex contention adjacency as bitmasks: entry ``k``
        has bit ``m`` set iff ``links[k]`` contends with ``links[m]``
        (positions into :attr:`links`).  This is the representation
        the clique enumerator works in."""
        return list(self._masks)

    def degree(self, a_link: Link) -> int:
        """Number of links contending with ``a_link``."""
        return len(self.contenders(a_link))

    def are_adjacent(self, first: Link, second: Link) -> bool:
        """True if the two links contend (graph edge present)."""
        return self.canonical(second) in self.contenders(first)
