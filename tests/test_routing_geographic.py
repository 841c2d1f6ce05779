"""Tests for greedy geographic routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing.geographic import greedy_geographic_routes
from repro.routing.link_state import link_state_routes
from repro.routing.validate import routing_is_acyclic
from repro.topology.builders import chain_topology, grid_topology, random_topology
from repro.topology.network import Topology


def test_chain_greedy_matches_shortest_path():
    chain = chain_topology(5)
    routes = greedy_geographic_routes(chain)
    assert routes.path(0, 4) == [0, 1, 2, 3, 4]
    assert routes.path(4, 0) == [4, 3, 2, 1, 0]


def test_grid_greedy_reaches_all_destinations():
    grid = grid_topology(3, 3)
    routes = greedy_geographic_routes(grid)
    for src in grid.node_ids:
        for dst in grid.node_ids:
            if src != dst:
                path = routes.path(src, dst)
                assert path[0] == src and path[-1] == dst


def test_distance_strictly_decreases_along_path():
    grid = grid_topology(4, 4)
    routes = greedy_geographic_routes(grid)
    for src in grid.node_ids:
        for dst in grid.node_ids:
            if src == dst:
                continue
            path = routes.path(src, dst)
            distances = [grid.distance(node, dst) for node in path]
            assert all(a > b for a, b in zip(distances, distances[1:]))


def test_void_leaves_destination_unreachable():
    """A placement with a void: node 0 is the local minimum toward
    node 3 (its neighbors are all farther away), and no link bridges
    the gap, so greedy routing has no route."""
    topology = Topology(tx_range=250.0)
    topology.add_nodes(
        [
            (0.0, 0.0),  # 0: local minimum toward 3
            (-200.0, 100.0),  # 1: neighbor, farther from 3
            (-200.0, -100.0),  # 2: neighbor, farther from 3
            (400.0, 0.0),  # 3: across the void
            (500.0, 0.0),  # 4: neighbor of 3
        ]
    )
    routes = greedy_geographic_routes(topology)
    assert not routes.table(0).has_route(3)
    with pytest.raises(RoutingError):
        routes.path(0, 3)
    # The right-hand pair still routes between themselves.
    assert routes.path(3, 4) == [3, 4]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2000))
def test_greedy_routes_are_acyclic_on_random_topologies(seed):
    topology = random_topology(10, width=800.0, height=800.0, seed=seed)
    routes = greedy_geographic_routes(topology)
    for destination in topology.node_ids:
        assert routing_is_acyclic(routes, destination)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2000))
def test_greedy_paths_never_shorter_than_link_state(seed):
    """Greedy paths are valid but possibly longer than shortest paths."""
    topology = random_topology(9, width=700.0, height=700.0, seed=seed)
    shortest = link_state_routes(topology)
    greedy = greedy_geographic_routes(topology)
    for src in topology.node_ids:
        for dst in topology.node_ids:
            if src == dst or not greedy.table(src).has_route(dst):
                continue
            assert greedy.hop_count(src, dst) >= shortest.hop_count(src, dst)


def test_runner_accepts_geographic_routing():
    from repro.scenarios.spec import RunSpec

    result = RunSpec(
        scenario="figure3",
        protocol="802.11",
        substrate="fluid",
        duration=5.0,
        seed=1,
        routing="geographic",
    ).run()
    assert sum(result.flow_rates.values()) > 0
