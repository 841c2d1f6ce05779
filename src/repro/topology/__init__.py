"""Wireless topology substrate.

Models a static multihop wireless network: node placement, range-based
link derivation, one/two-hop neighborhoods, the link contention graph,
and maximal ("proper") contention cliques.
"""

from repro.topology.builders import (
    chain_topology,
    clustered_topology,
    grid_topology,
    random_topology,
)
from repro.topology.cliques import Clique, CliqueSystem, maximal_cliques
from repro.topology.contention import ContentionGraph
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
    "random_topology",
    "one_hop_neighbors",
    "two_hop_neighbors",
    "ContentionGraph",
    "Clique",
    "CliqueSystem",
    "maximal_cliques",
]
