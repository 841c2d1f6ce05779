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


class ContentionGraph:
    """Adjacency structure over undirected wireless links.

    Vertices are canonical ``(min, max)`` link pairs; an edge joins two
    links that contend.  ``links=None`` spans the whole topology;
    otherwise the graph is the one *induced* on the given links.

    Nothing is computed per link at construction.  Two distinct
    canonical links contend iff they share a node or some endpoint of
    one lies within interference range of some endpoint of the other —
    equivalently, writing ``close(x)`` for the vertices with an endpoint
    in ``{x} ∪ ball(x, cs_range)``, the contenders of ``(i, j)`` are
    exactly ``close(i) ∪ close(j)`` minus the link itself.  ``ball``
    comes from the topology's per-sender sensing sets (spatial index),
    so a row touches only spatially nearby links, and it is formed when
    first asked for: :meth:`contenders` / :meth:`are_adjacent` cost the
    rows they read, :meth:`contender_masks` the rows of this graph's own
    vertex set.  The equivalence with pairwise :func:`links_contend`
    probes is pinned by ``tests/test_topology_spatial.py``.
    """

    def __init__(self, topology: Topology, links: Iterable[Link] | None = None) -> None:
        self.topology = topology
        # None while spanning the whole topology: vertices are listed,
        # and incident links grouped, only by the calls that need them.
        self._vertices: list[Link] | None = None
        self._incident: dict[int, list[Link]] | None = None
        if links is not None:
            self._vertices = sorted({canonical(a_link) for a_link in links})
            self._incident = {}
            for a_link in self._vertices:
                topology.validate_link(a_link)
                for node_id in a_link:
                    self._incident.setdefault(node_id, []).append(a_link)
        self._close: dict[int, frozenset[Link]] = {}
        self._rows: dict[Link, frozenset[Link]] = {}

    @property
    def links(self) -> list[Link]:
        """All vertices (canonical undirected links), sorted."""
        if self._vertices is None:
            self._vertices = self.topology.undirected_links()
        return list(self._vertices)

    def _incident_links(self, node_id: int) -> Iterable[Link]:
        if self._incident is not None:
            return self._incident.get(node_id, ())
        return [
            canonical((node_id, peer)) for peer in self.topology.neighbors(node_id)
        ]

    def _close_links(self, node_id: int) -> frozenset[Link]:
        """Vertices with an endpoint at, or within carrier-sense range
        of, ``node_id``."""
        close = self._close.get(node_id)
        if close is None:
            members = set(self._incident_links(node_id))
            for other in self.topology.sensing_nodes(node_id):
                members.update(self._incident_links(other))
            close = self._close[node_id] = frozenset(members)
        return close

    def canonical(self, a_link: Link) -> Link:
        """Canonical representative of ``a_link``.

        Raises:
            TopologyError: if the link is not part of this graph.
        """
        canon = i, j = canonical(a_link)
        if self._incident is not None:
            present = canon in self._incident.get(i, ())
        else:
            present = i in self.topology and self.topology.has_link(i, j)
        if not present:
            raise TopologyError(f"link {a_link} not in contention graph")
        return canon

    def contenders(self, a_link: Link) -> frozenset[Link]:
        """Links that contend with ``a_link`` (canonical forms)."""
        canon = self.canonical(a_link)
        row = self._rows.get(canon)
        if row is None:
            i, j = canon
            row = self._rows[canon] = (
                self._close_links(i) | self._close_links(j)
            ) - {canon}
        return row

    def contender_masks(self) -> list[int]:
        """Per-vertex contention adjacency as bitmasks: entry ``k``
        has bit ``m`` set iff ``links[k]`` contends with ``links[m]``
        (positions into :attr:`links`).  This is the representation
        the clique enumerator works in."""
        vertices = self.links
        bit = {a_link: 1 << position for position, a_link in enumerate(vertices)}
        close_masks: dict[int, int] = {}

        def close_mask(node_id: int) -> int:
            mask = close_masks.get(node_id)
            if mask is None:
                mask = 0
                for a_link in self._close_links(node_id):
                    mask |= bit[a_link]
                close_masks[node_id] = mask
            return mask

        return [
            (close_mask(i) | close_mask(j)) & ~bit[(i, j)] for i, j in vertices
        ]

    def degree(self, a_link: Link) -> int:
        """Number of links contending with ``a_link``."""
        return len(self.contenders(a_link))

    def are_adjacent(self, first: Link, second: Link) -> bool:
        """True if the two links contend (graph edge present)."""
        return self.canonical(second) in self.contenders(first)
