"""Virtual nodes, virtual links, and the grand virtual network (§5.2).

Each physical node ``i`` serving destination ``t`` is modeled as a
virtual node ``i_t`` carrying one queue.  All virtual nodes for ``t``
form the *virtual network* of ``t``; a virtual link ``(i_t, j_t)``
exists when ``j`` is ``i``'s next hop toward ``t``.  The union over
destinations is the *grand virtual network*.

In code a virtual node is the pair ``(node_id, dest)`` and a virtual
link is ``(link, dest)`` with ``link`` the directed physical pair —
only nodes on some flow's routing path are instantiated, matching the
paper's "a node serves a destination if it is on the routing path of a
flow with that destination".
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.flows.flow import FlowSet
from repro.routing.table import RouteSet
from repro.topology.network import Link

#: A virtual node: (physical node id, destination).
VirtualNode = tuple[int, int]
#: A virtual link: (directed physical link, destination).
VirtualLink = tuple[Link, int]


class GrandVirtualNetwork:
    """Derived structure of all virtual networks for a flow set.

    The structure is *incremental*: :meth:`add_flow` and
    :meth:`remove_flow` maintain every derived map so a churn engine
    can add and retire flows mid-run without rebuilding (virtual links,
    served destinations, and upstream/downstream adjacency are
    refcounted through the per-virtual-link flow sets and vanish with
    their last flow).
    """

    def __init__(self, routes: RouteSet, flows: FlowSet) -> None:
        self.routes = routes
        self.flows = flows
        self._vlinks: dict[int, set[Link]] = {}  # dest -> directed links
        self._upstream: dict[VirtualNode, set[int]] = {}
        self._downstream: dict[VirtualNode, int] = {}
        self._served: dict[int, set[int]] = {}  # node -> destinations
        self._local_flows: dict[VirtualNode, list[int]] = {}
        self._flow_links: dict[int, list[Link]] = {}
        self._flows_on_vlink: dict[VirtualLink, set[int]] = {}

        for flow in flows:
            self.add_flow(flow)

    # --- incremental maintenance ------------------------------------------------

    def add_flow(self, flow) -> None:
        """Graft one flow's path into the grand virtual network.

        Raises:
            ProtocolError: on an empty routing path or a flow id
                already present.
        """
        if flow.flow_id in self._flow_links:
            raise ProtocolError(f"flow {flow.flow_id} already in the GVN")
        path_links = self.routes.path_links(flow.source, flow.destination)
        if not path_links:
            raise ProtocolError(f"flow {flow.flow_id} has an empty path")
        self._flow_links[flow.flow_id] = path_links
        dest = flow.destination
        links_for_dest = self._vlinks.setdefault(dest, set())
        for i, j in path_links:
            links_for_dest.add((i, j))
            self._flows_on_vlink.setdefault(((i, j), dest), set()).add(
                flow.flow_id
            )
            self._served.setdefault(i, set()).add(dest)
            self._served.setdefault(j, set()).add(dest)
            self._upstream.setdefault((j, dest), set()).add(i)
            self._downstream[(i, dest)] = j
        self._local_flows.setdefault((flow.source, dest), []).append(
            flow.flow_id
        )

    def remove_flow(self, flow) -> list[VirtualLink]:
        """Tear one flow's path out again (flow departure).

        Virtual links, upstream/downstream adjacency, and served
        destinations survive only while some *other* flow still uses
        them; everything whose last user departed is deleted.  Returns
        the virtual links that vanished so the protocol can garbage-
        collect per-virtual-link decision state.

        Raises:
            ProtocolError: for a flow id the GVN does not know.
        """
        flow_id = flow.flow_id
        path_links = self._flow_links.pop(flow_id, None)
        if path_links is None:
            raise ProtocolError(f"unknown flow {flow_id}")
        dest = flow.destination
        vanished: list[VirtualLink] = []
        for i, j in path_links:
            vlink = ((i, j), dest)
            users = self._flows_on_vlink.get(vlink)
            if users is not None:
                users.discard(flow_id)
                if users:
                    continue
                del self._flows_on_vlink[vlink]
            vanished.append(vlink)
            self._vlinks[dest].discard((i, j))
            self._upstream_discard((j, dest), i)
            # Downstream is single-valued: delete only while no other
            # flow keeps (i, dest) pointing somewhere.
            if not any(
                a_link[0] == i
                for a_link in self._vlinks[dest]
            ):
                self._downstream.pop((i, dest), None)
        if not self._vlinks.get(dest):
            self._vlinks.pop(dest, None)
        locals_here = self._local_flows.get((flow.source, dest))
        if locals_here is not None:
            if flow_id in locals_here:
                locals_here.remove(flow_id)
            if not locals_here:
                del self._local_flows[(flow.source, dest)]
        self._rebuild_served(dest)
        return vanished

    def _upstream_discard(self, vnode: VirtualNode, upstream: int) -> None:
        neighbors = self._upstream.get(vnode)
        if neighbors is None:
            return
        neighbors.discard(upstream)
        if not neighbors:
            del self._upstream[vnode]

    def _rebuild_served(self, dest: int) -> None:
        """Recompute which nodes still serve ``dest`` from its links."""
        serving: set[int] = set()
        for i, j in self._vlinks.get(dest, ()):
            serving.add(i)
            serving.add(j)
        for node in list(self._served):
            on = dest in self._served[node]
            should = node in serving
            if on and not should:
                self._served[node].discard(dest)
                if not self._served[node]:
                    del self._served[node]

    def flow_residue(self, flow_id: int) -> list[str]:
        """Any structure still referencing a supposedly removed flow.

        Returns human-readable descriptions (empty when clean); the
        post-departure audit in :mod:`repro.core.protocol` folds these
        into its report.
        """
        residue: list[str] = []
        if flow_id in self._flow_links:
            residue.append(f"flow {flow_id}: path links retained in GVN")
        for vlink, users in sorted(self._flows_on_vlink.items()):
            if flow_id in users:
                residue.append(
                    f"flow {flow_id}: still member of virtual link {vlink}"
                )
        for vnode, locals_here in sorted(self._local_flows.items()):
            if flow_id in locals_here:
                residue.append(
                    f"flow {flow_id}: still a local flow of virtual node {vnode}"
                )
        return residue

    # --- queries --------------------------------------------------------------

    def destinations(self) -> list[int]:
        """All destinations with a virtual network, sorted."""
        return sorted(self._vlinks)

    def virtual_links(self, dest: int) -> list[Link]:
        """Directed physical links of the virtual network for ``dest``."""
        return sorted(self._vlinks.get(dest, ()))

    def all_virtual_links(self) -> list[VirtualLink]:
        """Every (link, dest) pair in the grand virtual network."""
        return sorted(
            (a_link, dest)
            for dest, links in self._vlinks.items()
            for a_link in links
        )

    def serves(self, node: int, dest: int) -> bool:
        """True if node ``node`` has a virtual node for ``dest``."""
        return dest in self._served.get(node, ())

    def served_destinations(self, node: int) -> list[int]:
        """Destinations node ``node`` serves, sorted."""
        return sorted(self._served.get(node, ()))

    def upstream_neighbors(self, node: int, dest: int) -> frozenset[int]:
        """Physical nodes with a virtual link into ``(node, dest)``."""
        return frozenset(self._upstream.get((node, dest), ()))

    def downstream_neighbor(self, node: int, dest: int) -> int | None:
        """Next hop of the virtual node ``(node, dest)``; None at the
        destination itself (or for non-serving nodes)."""
        return self._downstream.get((node, dest))

    def local_flows(self, node: int, dest: int) -> list[int]:
        """Flow ids sourced at ``node`` destined for ``dest``."""
        return list(self._local_flows.get((node, dest), ()))

    def flow_links(self, flow_id: int) -> list[Link]:
        """Directed links on a flow's routing path.

        Raises:
            ProtocolError: for unknown flow ids.
        """
        try:
            return list(self._flow_links[flow_id])
        except KeyError:
            raise ProtocolError(f"unknown flow {flow_id}") from None
