"""Unit and property tests for the routing substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing.distance_vector import distance_vector_routes
from repro.routing.geographic import greedy_geographic_routes
from repro.routing.link_state import _dijkstra_parents, link_state_routes
from repro.routing.table import RouteSet, RoutingTable
from repro.routing.validate import assert_acyclic, routing_is_acyclic
from repro.scenarios.figures import figure2, figure3, figure4
from repro.scenarios.scale import scale300
from repro.topology.builders import chain_topology, grid_topology, random_topology


def test_routing_table_next_hop_and_self():
    table = RouteSet([1, 2, 3], {3: {1: 2, 2: 3}}).table(1)
    assert table == RoutingTable(node_id=1, routes=table.routes)
    assert table.next_hop(3) == 2
    assert table.next_hop(1) == 1
    assert table.has_route(3)
    assert not table.has_route(9)
    with pytest.raises(RoutingError):
        table.next_hop(9)


def test_chain_link_state_paths():
    chain = chain_topology(5)
    routes = link_state_routes(chain)
    assert routes.path(0, 4) == [0, 1, 2, 3, 4]
    assert routes.path_links(0, 3) == [(0, 1), (1, 2), (2, 3)]
    assert routes.hop_count(0, 4) == 4
    assert routes.hop_count(2, 2) == 0


def test_grid_link_state_paths_are_shortest():
    grid = grid_topology(3, 3)
    routes = link_state_routes(grid)
    # Corner to corner on a 3x3 grid: 4 hops.
    assert routes.hop_count(0, 8) == 4


def test_distance_vector_matches_link_state_hop_counts():
    for topology in [chain_topology(6), grid_topology(3, 4)]:
        ls = link_state_routes(topology)
        dv = distance_vector_routes(topology)
        for src in topology.node_ids:
            for dst in topology.node_ids:
                assert ls.hop_count(src, dst) == dv.hop_count(src, dst)


def test_distance_vector_matches_link_state_next_hops():
    topology = grid_topology(3, 3)
    ls = link_state_routes(topology)
    dv = distance_vector_routes(topology)
    for node in topology.node_ids:
        for dst in topology.node_ids:
            if dst != node:
                assert ls.next_hop(node, dst) == dv.next_hop(node, dst)


def test_unreachable_destination_raises():
    # Two islands out of range of each other.
    from repro.topology.network import Topology

    topology = Topology()
    topology.add_nodes([(0.0, 0.0), (100.0, 0.0), (5000.0, 0.0)])
    routes = link_state_routes(topology)
    assert routes.table(0).has_route(1)
    assert not routes.table(0).has_route(2)
    with pytest.raises(RoutingError):
        routes.path(0, 2)


def test_route_set_unknown_node_raises():
    routes = link_state_routes(chain_topology(3))
    with pytest.raises(RoutingError):
        routes.table(42)


def test_path_detects_loops():
    routes = RouteSet([0, 1, 9], {9: {0: 1, 1: 0}})
    with pytest.raises(RoutingError):
        routes.path(0, 9)


def test_routing_is_acyclic_detects_cycle():
    routes = RouteSet([0, 1, 9], {9: {0: 1, 1: 0}})
    assert not routing_is_acyclic(routes, 9)
    with pytest.raises(RoutingError):
        assert_acyclic(routes, [9])


def test_routing_is_acyclic_accepts_tree():
    routes = link_state_routes(grid_topology(3, 3))
    for destination in range(9):
        assert routing_is_acyclic(routes, destination)
    assert_acyclic(routes, list(range(9)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_topology_routes_are_acyclic_and_consistent(seed):
    topology = random_topology(12, width=900.0, height=900.0, seed=seed)
    routes = link_state_routes(topology)
    for destination in topology.node_ids:
        assert routing_is_acyclic(routes, destination)
    # Path via next hop of the first node must be a suffix-consistent walk.
    for src in topology.node_ids:
        for dst in topology.node_ids:
            if src == dst:
                continue
            path = routes.path(src, dst)
            assert path[0] == src and path[-1] == dst
            # Sub-path optimality: the remainder of a shortest path is
            # itself the routed path from the intermediate node.
            middle = path[1]
            assert routes.path(middle, dst) == path[1:]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_distance_vector_agrees_with_link_state_on_random(seed):
    topology = random_topology(10, width=800.0, height=800.0, seed=seed)
    ls = link_state_routes(topology)
    dv = distance_vector_routes(topology)
    for src in topology.node_ids:
        for dst in topology.node_ids:
            assert ls.hop_count(src, dst) == dv.hop_count(src, dst)


# --- routes are stored per destination and resolved on first use ----------------

TOPOLOGIES = {
    "figure2": lambda: figure2().topology,
    "figure3": lambda: figure3().topology,
    "figure4": lambda: figure4().topology,
    "random25": lambda: random_topology(25, width=1200.0, height=1200.0, seed=7),
    "scale300": lambda: scale300().topology,
}
BUILDERS = [link_state_routes, distance_vector_routes, greedy_geographic_routes]


@pytest.mark.parametrize("build", BUILDERS, ids=lambda build: build.__name__)
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_lazy_per_node_views_equal_the_eager_trees_on_all_pairs(name, build):
    topology = TOPOLOGIES[name]()
    ids = topology.node_ids
    eager = build(topology)
    assert_acyclic(eager, ids)  # resolves every destination up front
    trees = {dest: dict(eager.tree(dest)) for dest in ids}
    if build is link_state_routes:
        assert trees == {dest: _dijkstra_parents(topology, dest) for dest in ids}

    # A fresh set asked row by row: every node's view of every
    # destination, so trees resolve interleaved with the look-ups.
    lazy = build(topology)
    for node in ids:
        table = lazy.table(node)
        assert table.next_hop(node) == node and table.has_route(node)
        reachable = []
        for dest in ids:
            if dest == node:
                continue
            if node in trees[dest]:
                reachable.append(dest)
                assert table.has_route(dest)
                assert lazy.next_hop(node, dest) == trees[dest][node]
                assert table.next_hop(dest) == trees[dest][node]
            else:
                assert not table.has_route(dest)
                with pytest.raises(RoutingError):
                    lazy.next_hop(node, dest)
        assert table.destinations() == reachable
    assert not lazy.table(ids[0]).has_route(-1)  # not a node: no route, no error


def test_run_resolves_the_flow_destinations_and_nothing_else(monkeypatch):
    from repro.churn.spec import ChurnSpec
    from repro.routing import link_state
    from repro.scenarios.runner import run_scenario

    resolved = []

    def counting(topology, destination):
        resolved.append(destination)
        return _dijkstra_parents(topology, destination)

    monkeypatch.setattr(link_state, "_dijkstra_parents", counting)
    scenario = scale300()
    wanted = sorted({flow.destination for flow in scenario.flows})
    run = dict(protocol="gmp", substrate="fluid", duration=0.5, seed=1)
    run_scenario(scenario, **run)
    assert sorted(resolved) == wanted and len(wanted) == 8

    # A dynamic run may graft a flow toward any node: all of them are
    # resolved (and checked acyclic) up front, each exactly once.
    resolved.clear()
    run_scenario(scenario, churn=ChurnSpec(rate=2.0, mean_hold=8.0), **run)
    assert sorted(resolved) == sorted(scenario.topology.node_ids)
