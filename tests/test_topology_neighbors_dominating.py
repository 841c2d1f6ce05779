"""Unit tests for neighborhood queries and dominating sets."""

import pytest

from repro.topology.builders import chain_topology, grid_topology
from repro.topology.dominating import dominating_set
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


def test_dominating_set_covers_all_two_hop_neighbors():
    grid = grid_topology(4, 4)
    for node_id in grid.node_ids:
        chosen = dominating_set(grid, node_id)
        covered = set()
        for member in chosen:
            covered.update(grid.neighbors(member))
        assert two_hop_neighbors(grid, node_id) <= covered


def test_dominating_set_members_are_one_hop_neighbors():
    grid = grid_topology(3, 4)
    for node_id in grid.node_ids:
        assert dominating_set(grid, node_id) <= grid.neighbors(node_id)


def test_dominating_set_empty_when_no_two_hop_neighbors():
    pair = chain_topology(2)
    assert dominating_set(pair, 0) == frozenset()


def test_chain_dominating_set_is_single_neighbor():
    chain = chain_topology(5)
    # Node 2's two-hop neighbors {0, 4} are covered only by {1, 3}.
    assert dominating_set(chain, 2) == frozenset({1, 3})
    # Node 0's two-hop neighbor {2} is covered by node 1 alone.
    assert dominating_set(chain, 0) == frozenset({1})


def test_dominating_set_is_greedy_minimal_on_grid_center():
    grid = grid_topology(3, 3, spacing=200.0)
    chosen = dominating_set(grid, 4)
    # Greedy should never pick more members than it has two-hop targets.
    assert 1 <= len(chosen) <= len(two_hop_neighbors(grid, 4))


def test_dominating_sets_covers_every_node():
    grid = grid_topology(3, 3)
    for node in grid.node_ids:
        covered = set().union(*(one_hop_neighbors(grid, m) for m in dominating_set(grid, node)))
        assert two_hop_neighbors(grid, node) <= covered


@pytest.mark.parametrize("num_nodes", [2, 3, 4, 7])
def test_dominating_set_deterministic(num_nodes):
    first = dominating_set(chain_topology(num_nodes), 0)
    second = dominating_set(chain_topology(num_nodes), 0)
    assert first == second
