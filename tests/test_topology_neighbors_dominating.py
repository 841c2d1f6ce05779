"""Unit tests for neighborhood queries."""

from repro.topology.builders import chain_topology, grid_topology
from repro.topology.neighbors import (
    one_hop_neighbors,
    two_hop_neighbors,
    within_two_hops,
)


def test_chain_one_hop():
    chain = chain_topology(5)
    assert one_hop_neighbors(chain, 2) == frozenset({1, 3})
    assert one_hop_neighbors(chain, 0) == frozenset({1})


def test_chain_two_hop():
    chain = chain_topology(6)
    assert two_hop_neighbors(chain, 0) == frozenset({2})
    assert two_hop_neighbors(chain, 2) == frozenset({0, 4})


def test_two_hop_excludes_self_and_one_hop():
    grid = grid_topology(3, 3)
    node = 4  # center
    one = one_hop_neighbors(grid, node)
    two = two_hop_neighbors(grid, node)
    assert node not in two
    assert not (one & two)


def test_within_two_hops_is_union():
    chain = chain_topology(5)
    assert within_two_hops(chain, 2) == frozenset({0, 1, 3, 4})


def test_isolated_node_has_empty_neighborhoods():
    chain = chain_topology(1)
    assert one_hop_neighbors(chain, 0) == frozenset()
    assert two_hop_neighbors(chain, 0) == frozenset()
