"""Dissemination scope and overhead accounting (§6.2).

Wireless-link state must reach every node with a link contending with
it — all nodes within two hops of either endpoint.  The paper uses
per-node dominating sets to rebroadcast efficiently; our default
control plane is out-of-band (state exchange is instantaneous at
period boundaries), but the *scope* rules are enforced so that no node
ever consults state it could not have received, and the rebroadcast
cost that the in-band scheme would incur is accounted for.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import TopologyError
from repro.topology.contention import ContentionGraph
from repro.topology.dominating import dominating_set
from repro.topology.neighbors import within_two_hops
from repro.topology.network import Link, Topology, canonical


class _PerNode(dict):  # type: ignore[type-arg]
    """``node -> resolve(node)``, computed on first lookup."""

    def __init__(self, resolve: Callable[[int], frozenset[int]]) -> None:
        super().__init__()
        self._resolve = resolve

    def __missing__(self, node: int) -> frozenset[int]:
        value = self[node] = self._resolve(node)
        return value


class DisseminationScope:
    """Dissemination visibility over a static topology.

    The paper's requirement is that a link's state reach "all nodes
    that have a link contending with (i, j)".  Its realization —
    "all those nodes within two hops away from either i or j" — is
    insufficient when the carrier-sense range exceeds the transmission
    range: two links can contend without being joined by any
    connectivity path of length two.  We therefore take the union of
    the two-hop neighborhood and the endpoints of contending links
    (the latter computed from the contention graph, which every node
    derives from its sensed neighborhood after deployment).
    """

    def __init__(
        self, topology: Topology, contention: ContentionGraph | None = None
    ) -> None:
        self.topology = topology
        self.contention = contention
        # Resolved per node on first use: only the audiences of violating
        # links and the broadcast accounting ever read them.
        self._within2 = _PerNode(
            lambda node: within_two_hops(topology, node) | {node}
        )
        self.dominating = _PerNode(lambda node: dominating_set(topology, node))
        # Overhead accounting for the in-band scheme this models.
        self.link_state_broadcasts = 0
        self.notice_broadcasts = 0

    def _contending_nodes(self, a_link: Link) -> frozenset[int]:
        if self.contention is None:
            return frozenset()
        canon = canonical(a_link)
        try:
            contenders = self.contention.contenders(canon)
        except TopologyError:  # link not part of the contention graph
            return frozenset()
        return frozenset(node for other in contenders for node in other)

    def audience_of_link(self, a_link: Link) -> frozenset[int]:
        """Nodes entitled to the state of wireless link ``a_link``:
        everyone within two hops of either endpoint, plus the
        endpoints of every contending link."""
        i, j = canonical(a_link)
        return self._within2[i] | self._within2[j] | self._contending_nodes(a_link)

    def audience_of_node(self, node: int) -> frozenset[int]:
        """Nodes within two hops of ``node`` (inclusive) — the audience
        of a bandwidth-violation notice."""
        return self._within2[node]

    def link_visible(self, node: int, a_link: Link) -> bool:
        """May ``node`` consult the state of ``a_link``?"""
        return node in self.audience_of_link(a_link)

    def record_link_state_change(self, a_link: Link) -> None:
        """Account the broadcasts the in-band scheme would send: both
        endpoints broadcast, and their dominating-set members
        rebroadcast."""
        i, j = canonical(a_link)
        self.link_state_broadcasts += 2
        self.link_state_broadcasts += len(self.dominating[i]) + len(
            self.dominating[j]
        )

    def record_notice(self, origin: int) -> None:
        """Account one violation-notice dissemination from ``origin``."""
        self.notice_broadcasts += 1 + len(self.dominating[origin])
