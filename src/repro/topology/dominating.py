"""Greedy per-node dominating sets.

Paper §6.2: "each node i ... identifies a minimum subset of one-hop
neighbors, called i's dominating set, whose adjacent links reach all
two-hop neighbors."  Link-state updates broadcast by i are rebroadcast
only by members of this set, which suffices to cover every node within
two hops of i.

Minimum set cover is NP-hard; we use the standard greedy
(ln n)-approximation, with deterministic ties (smallest node id).
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.neighbors import two_hop_neighbors
from repro.topology.network import Topology


def dominating_set(topology: Topology, node_id: int) -> frozenset[int]:
    """One-hop neighbors of ``node_id`` that jointly reach all of its
    two-hop neighbors.

    Returns the empty set when ``node_id`` has no two-hop neighbors.

    Raises:
        TopologyError: if some two-hop neighbor is not reachable
            through any one-hop neighbor (cannot happen on a
            consistent topology; guards against future non-geometric
            overrides).
    """
    targets = set(two_hop_neighbors(topology, node_id))
    if not targets:
        return frozenset()

    coverage = {
        neighbor: frozenset(topology.neighbors(neighbor)) & targets
        for neighbor in topology.neighbors(node_id)
    }
    chosen: set[int] = set()
    uncovered = set(targets)
    while uncovered:
        best = max(
            coverage,
            key=lambda neighbor: (len(coverage[neighbor] & uncovered), -neighbor),
        )
        gained = coverage[best] & uncovered
        if not gained:
            raise TopologyError(
                f"two-hop neighbors {sorted(uncovered)} of node {node_id} "
                "are unreachable through any one-hop neighbor"
            )
        chosen.add(best)
        uncovered -= gained
    return frozenset(chosen)
