"""Unit and cross-validation tests for contention and cliques."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology.builders import chain_topology, random_topology
from repro.topology.cliques import maximal_cliques
from repro.topology.contention import ContentionGraph
from repro.topology.network import Topology

from helpers import links_contend


def test_links_sharing_a_node_contend():
    chain = chain_topology(3)
    assert links_contend(chain, (0, 1), (1, 2))


def test_link_does_not_contend_with_itself_or_reverse():
    chain = chain_topology(2)
    assert not links_contend(chain, (0, 1), (0, 1))
    assert not links_contend(chain, (0, 1), (1, 0))


def test_contention_is_symmetric():
    chain = chain_topology(6)
    for a in [(0, 1), (2, 3)]:
        for b in [(1, 2), (4, 5)]:
            assert links_contend(chain, a, b) == links_contend(chain, b, a)


def test_distant_links_do_not_contend():
    chain = chain_topology(8, spacing=200.0)
    # Endpoints of (0,1) and (5,6) are at least 800 m apart > 550 m.
    assert not links_contend(chain, (0, 1), (5, 6))


def test_contention_through_cs_range_without_link():
    topology = Topology(tx_range=250.0, cs_range=550.0)
    # Two separate pairs, 400 m between the closest endpoints.
    topology.add_nodes([(0.0, 0.0), (200.0, 0.0), (600.0, 0.0), (800.0, 0.0)])
    assert not topology.has_link(1, 2)
    assert links_contend(topology, (0, 1), (2, 3))


def test_contention_graph_vertices_default_to_all_links():
    chain = chain_topology(4)
    graph = ContentionGraph(chain)
    assert graph.links == [(0, 1), (1, 2), (2, 3)]


def test_contention_graph_canonicalizes_direction():
    chain = chain_topology(3)
    graph = ContentionGraph(chain)
    assert graph.canonical((1, 0)) == (0, 1)
    assert graph.are_adjacent((1, 0), (2, 1))


def test_contention_graph_rejects_unknown_link():
    chain = chain_topology(3)
    graph = ContentionGraph(chain)
    with pytest.raises(TopologyError):
        graph.contenders((0, 2))


def test_contention_graph_restricted_to_given_links():
    chain = chain_topology(5)
    graph = ContentionGraph(chain, links=[(0, 1), (1, 2)])
    assert graph.links == [(0, 1), (1, 2)]
    assert graph.degree((0, 1)) == 1


def test_chain_three_links_single_clique():
    chain = chain_topology(4, spacing=200.0)
    cliques = maximal_cliques(ContentionGraph(chain))
    assert len(cliques) == 1
    assert cliques[0].links == frozenset({(0, 1), (1, 2), (2, 3)})


def test_isolated_link_forms_singleton_clique():
    topology = Topology(tx_range=250.0, cs_range=550.0)
    topology.add_nodes([(0.0, 0.0), (200.0, 0.0), (2000.0, 0.0), (2200.0, 0.0)])
    cliques = maximal_cliques(ContentionGraph(topology))
    assert sorted(clique.links for clique in cliques) == [
        frozenset({(0, 1)}),
        frozenset({(2, 3)}),
    ]


def test_clique_ids_use_smallest_node_and_sequence():
    chain = chain_topology(4)
    (clique,) = maximal_cliques(ContentionGraph(chain))
    assert clique.clique_id == (0, 0)
    assert clique.nodes() == frozenset({0, 1, 2, 3})


def test_clique_membership_ignores_direction():
    chain = chain_topology(4)
    (clique,) = maximal_cliques(ContentionGraph(chain))
    assert (1, 0) in clique
    assert (0, 1) in clique


def test_long_chain_cliques_are_windows():
    chain = chain_topology(10, spacing=200.0)
    cliques = maximal_cliques(ContentionGraph(chain))
    # cs range 550 with 200 m spacing: links within index distance <= 3
    # contend (closest endpoints <= 400 m), so cliques are windows of
    # four consecutive links.
    sizes = sorted(len(clique.links) for clique in cliques)
    assert max(sizes) == 4
    for clique in cliques:
        indices = sorted(a for (a, _b) in clique.sorted_links())
        assert indices == list(range(indices[0], indices[0] + len(indices)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cliques_match_networkx_on_random_topologies(seed):
    topology = random_topology(10, width=800.0, height=800.0, seed=seed)
    graph = ContentionGraph(topology)
    ours = {clique.links for clique in maximal_cliques(graph)}

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.links)
    for a_link in graph.links:
        for other in graph.contenders(a_link):
            nx_graph.add_edge(a_link, other)
    theirs = {frozenset(members) for members in nx.find_cliques(nx_graph)}
    assert ours == theirs


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_every_link_belongs_to_some_clique(seed):
    topology = random_topology(8, width=700.0, height=700.0, seed=seed)
    graph = ContentionGraph(topology)
    cliques = maximal_cliques(graph)
    for a_link in graph.links:
        assert any(a_link in clique for clique in cliques)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cliques_are_mutually_contending_and_maximal(seed):
    topology = random_topology(8, width=700.0, height=700.0, seed=seed)
    graph = ContentionGraph(topology)
    cliques = maximal_cliques(graph)
    for clique in cliques:
        members = clique.sorted_links()
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                assert graph.are_adjacent(a, b)
        # Maximality: no outside link contends with every member.
        outside = set(graph.links) - clique.links
        for candidate in outside:
            assert not all(
                graph.are_adjacent(candidate, member) for member in members
            )
