"""Unit tests for topology builders."""

import pytest

from repro.errors import TopologyError
from repro.topology.builders import (
    chain_topology,
    grid_topology,
    random_topology,
)

from helpers import parallel_chains_topology


def test_chain_structure():
    chain = chain_topology(5, spacing=200.0)
    assert len(chain) == 5
    assert chain.undirected_links() == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_chain_rejects_bad_parameters():
    with pytest.raises(TopologyError):
        chain_topology(0)
    with pytest.raises(TopologyError):
        chain_topology(3, spacing=300.0)  # exceeds tx range
    with pytest.raises(TopologyError):
        chain_topology(3, spacing=0.0)


def test_grid_structure():
    grid = grid_topology(2, 3, spacing=200.0)
    assert len(grid) == 6
    # Row-major ids: node 4 is row 1, col 1.
    assert grid.node(4).x == 200.0
    assert grid.node(4).y == 200.0
    assert grid.has_link(0, 1)
    assert grid.has_link(0, 3)
    assert not grid.has_link(0, 4)  # diagonal is ~283 m > 250 m


def test_grid_rejects_bad_parameters():
    with pytest.raises(TopologyError):
        grid_topology(0, 3)
    with pytest.raises(TopologyError):
        grid_topology(2, 2, spacing=1000.0)


def test_parallel_chains_links_stay_within_chains():
    topology = parallel_chains_topology(3, 3)
    for i, j in topology.undirected_links():
        assert i // 3 == j // 3, "links must not cross chains"
    # Within a chain, consecutive nodes are linked.
    assert topology.has_link(0, 1)
    assert topology.has_link(4, 5)


def test_parallel_chains_adjacent_chains_sense_each_other():
    topology = parallel_chains_topology(3, 3, chain_spacing=350.0)
    # Closest nodes of adjacent chains: 350 m apart -> sensed, not linked.
    assert topology.senses(0, 3)
    assert not topology.has_link(0, 3)
    # Non-adjacent chains (700 m) are out of sensing range.
    assert not topology.senses(0, 6)


def test_parallel_chains_rejects_overlapping_chain_spacing():
    with pytest.raises(TopologyError):
        parallel_chains_topology(2, 2, chain_spacing=200.0)


def test_random_topology_is_reproducible():
    first = random_topology(12, seed=5)
    second = random_topology(12, seed=5)
    assert [(n.x, n.y) for n in first] == [(n.x, n.y) for n in second]


def test_random_topology_connected_by_default():
    topology = random_topology(15, width=800.0, height=800.0, seed=1)
    # BFS from node 0 must reach everyone.
    seen = {0}
    frontier = [0]
    while frontier:
        current = frontier.pop()
        for neighbor in topology.neighbors(current):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    assert len(seen) == len(topology)


def test_random_topology_sparse_density_densifies_until_connected():
    # Far below the connectivity threshold no redraw can connect 30
    # nodes at tx_range 250 in a 100 km square; the builder grows the
    # ranges (preserving their ratio) until a placement connects.
    topology = random_topology(
        30, width=100_000.0, height=100_000.0, seed=0, max_attempts=3
    )
    assert topology.tx_range > 250.0
    assert topology.cs_range == pytest.approx(topology.tx_range * (550.0 / 250.0))
    seen = {0}
    frontier = [0]
    while frontier:
        for neighbor in topology.neighbors(frontier.pop()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    assert len(seen) == len(topology)


def test_random_topology_dense_request_keeps_requested_ranges():
    topology = random_topology(15, width=800.0, height=800.0, seed=1)
    assert topology.tx_range == 250.0
    assert topology.cs_range == 550.0


def test_random_topology_rejects_zero_nodes():
    with pytest.raises(TopologyError):
        random_topology(0)


def test_random_topology_draws_through_named_rng_stream():
    # Placement must come from the sim.rng registry's named stream —
    # not a raw np.random.default_rng(seed) — so topology draws are
    # isolated from protocol/MAC streams derived from the same seed.
    from repro.sim.rng import RngRegistry
    from repro.topology.builders import PLACEMENT_STREAM

    topology = random_topology(6, seed=11, require_connected=False)
    stream = RngRegistry(11).stream(PLACEMENT_STREAM)
    xs = stream.uniform(0.0, 800.0, size=6)
    ys = stream.uniform(0.0, 800.0, size=6)
    for node_id, x, y in zip(topology.node_ids, xs.tolist(), ys.tolist()):
        assert topology.node(node_id).x == x
        assert topology.node(node_id).y == y


def test_random_topology_is_reproducible_per_seed():
    first = random_topology(10, seed=4)
    second = random_topology(10, seed=4)
    assert [
        (first.node(i).x, first.node(i).y) for i in first.node_ids
    ] == [(second.node(i).x, second.node(i).y) for i in second.node_ids]
    different = random_topology(10, seed=5)
    assert [
        (first.node(i).x, first.node(i).y) for i in first.node_ids
    ] != [(different.node(i).x, different.node(i).y) for i in different.node_ids]
