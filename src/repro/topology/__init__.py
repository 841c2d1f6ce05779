"""Wireless topology substrate.

Models a static multihop wireless network: node placement, range-based
link derivation, one/two-hop neighborhoods, greedy minimum dominating
sets (used by GMP's dissemination), the link contention graph, and
maximal ("proper") contention cliques.
"""

from repro.topology.builders import (
    chain_topology,
    clustered_topology,
    grid_topology,
    parallel_chains_topology,
    random_topology,
)
from repro.topology.cliques import Clique, CliqueSystem, maximal_cliques
from repro.topology.contention import ContentionGraph, links_contend
from repro.topology.dominating import dominating_set
from repro.topology.neighbors import one_hop_neighbors, two_hop_neighbors
from repro.topology.network import Link, Topology, canonical, link, reverse
from repro.topology.node import Node
from repro.topology.spatial import SpatialIndex

__all__ = [
    "Node",
    "Link",
    "Topology",
    "SpatialIndex",
    "link",
    "reverse",
    "canonical",
    "chain_topology",
    "clustered_topology",
    "grid_topology",
    "parallel_chains_topology",
    "random_topology",
    "one_hop_neighbors",
    "two_hop_neighbors",
    "dominating_set",
    "ContentionGraph",
    "links_contend",
    "Clique",
    "CliqueSystem",
    "maximal_cliques",
]
