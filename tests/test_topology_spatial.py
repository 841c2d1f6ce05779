"""Equivalence of the spatial-index fast paths with brute force.

The grid index (``topology/spatial.py``), the localized contention
construction, and the bitmask clique enumeration are pure
optimizations: on any topology they must produce *exactly* the
neighbor sets, sensing sets, contention adjacency, and clique ids that
the historical all-pairs / O(L²)-probe / set-based-Bron–Kerbosch
implementations produced — including ties at exactly the radius.
These tests pin that equivalence against reference implementations
kept here, plus golden clique ids on the paper figures.
"""

import math
import time

import pytest

from repro.errors import TopologyError
from repro.scenarios.sweep import SCENARIO_FACTORIES
from repro.topology.builders import random_topology
from repro.topology.cliques import maximal_cliques
from repro.topology.contention import ContentionGraph
from repro.topology.network import Topology
from repro.topology.spatial import SpatialIndex

from helpers import links_contend

# --- reference (brute force) implementations --------------------------------


def brute_neighbors(topology, radius):
    ids = topology.node_ids
    return {
        i: frozenset(
            j for j in ids if j != i and topology.distance(i, j) <= radius
        )
        for i in ids
    }


def brute_contention_adjacency(topology, vertices):
    return {
        a: frozenset(b for b in vertices if links_contend(topology, a, b))
        for a in vertices
    }


def reference_cliques(graph):
    """The historical implementation: one global set-based
    Bron–Kerbosch run, sorted, numbered by owner sequence."""

    def bron_kerbosch(adjacency, r, p, x, out):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: (len(adjacency[v] & p), v))
        for vertex in sorted(p - adjacency[pivot]):
            neighbors = adjacency[vertex]
            bron_kerbosch(adjacency, r | {vertex}, p & neighbors, x & neighbors, out)
            p.remove(vertex)
            x.add(vertex)

    adjacency = {a: graph.contenders(a) for a in graph.links}
    raw = []
    bron_kerbosch(adjacency, set(), set(adjacency), set(), raw)
    raw.sort(key=lambda members: sorted(members))
    sequence_by_owner = {}
    out = []
    for members in raw:
        owner = min(node for a_link in members for node in a_link)
        sequence = sequence_by_owner.get(owner, 0)
        sequence_by_owner[owner] = sequence + 1
        out.append(((owner, sequence), members))
    return out


# --- property equivalence on seeded random topologies -----------------------

CASES = [
    # (num_nodes, width, tx_range, cs_range, seed): several sizes,
    # densities, and tx/cs ratios.
    (20, 700.0, 250.0, 550.0, 1),
    (40, 1000.0, 250.0, 550.0, 2),
    (60, 1500.0, 250.0, 550.0, 3),
    (30, 800.0, 200.0, 300.0, 4),
    (25, 500.0, 150.0, 600.0, 5),
    (50, 1200.0, 100.0, 220.0, 6),
]


@pytest.mark.parametrize("num_nodes,width,tx,cs,seed", CASES)
def test_index_neighbors_and_sensing_match_brute_force(
    num_nodes, width, tx, cs, seed
):
    topology = random_topology(
        num_nodes,
        width=width,
        height=width,
        seed=seed,
        tx_range=tx,
        cs_range=cs,
        require_connected=False,
    )
    expected_links = brute_neighbors(topology, topology.tx_range)
    expected_sense = brute_neighbors(topology, topology.cs_range)
    for node_id in topology.node_ids:
        assert topology.neighbors(node_id) == expected_links[node_id]
        assert topology.sensing_nodes(node_id) == expected_sense[node_id]


@pytest.mark.parametrize("num_nodes,width,tx,cs,seed", CASES)
def test_localized_contention_matches_pairwise_probes(
    num_nodes, width, tx, cs, seed
):
    topology = random_topology(
        num_nodes,
        width=width,
        height=width,
        seed=seed,
        tx_range=tx,
        cs_range=cs,
        require_connected=False,
    )
    graph = ContentionGraph(topology)
    expected = brute_contention_adjacency(topology, graph.links)
    for a_link in graph.links:
        assert graph.contenders(a_link) == expected[a_link]


@pytest.mark.parametrize("num_nodes,width,tx,cs,seed", CASES)
def test_clique_ids_match_reference_enumeration(num_nodes, width, tx, cs, seed):
    topology = random_topology(
        num_nodes,
        width=width,
        height=width,
        seed=seed,
        tx_range=tx,
        cs_range=cs,
        require_connected=False,
    )
    graph = ContentionGraph(topology)
    ours = [(c.clique_id, c.links) for c in maximal_cliques(graph)]
    assert ours == reference_cliques(graph)


def test_contender_masks_mirror_adjacency():
    topology = random_topology(30, width=800.0, height=800.0, seed=9)
    graph = ContentionGraph(topology)
    links = graph.links
    for index, mask in enumerate(graph.contender_masks()):
        members = {
            links[k] for k in range(len(links)) if mask >> k & 1
        }
        assert members == graph.contenders(links[index])


@pytest.mark.parametrize(
    "make_topology",
    [
        lambda: random_topology(25, width=1200.0, height=1200.0, seed=7),
        lambda: SCENARIO_FACTORIES["scale300"]().topology,
    ],
    ids=["random25", "scale300"],
)
def test_rows_on_demand_equal_bulk_masks_equal_pairwise_probes(make_topology):
    """A contention row is formed when first asked for.  Asked one at a
    time, in scrambled order, on a fresh graph, every row equals the
    row the bulk masks carry and the set pairwise ``links_contend``
    probes give (all 1,258 links of scale300: 790,653 pairs) — on the
    whole graph and on one induced on a third of its links."""
    topology = make_topology()
    links = topology.undirected_links()
    position = {a_link: k for k, a_link in enumerate(links)}
    expected = {a_link: set() for a_link in links}
    for k, a_link in enumerate(links):
        for other in links[k + 1 :]:
            if links_contend(topology, a_link, other):
                expected[a_link].add(other)
                expected[other].add(a_link)

    scrambled = sorted(links, key=lambda a_link: (a_link[0] * 7919 + a_link[1]) % 1009)
    lazy = ContentionGraph(topology)
    # Construction lists no vertex and forms no row.
    assert lazy._vertices is None and not lazy._rows and not lazy._close
    for asked, a_link in enumerate(scrambled[:10], start=1):
        assert lazy.contenders(a_link) == expected[a_link]
        assert len(lazy._rows) == asked
    for a_link in scrambled[10:]:
        assert lazy.contenders(a_link[::-1]) == expected[a_link]

    bulk = ContentionGraph(topology)
    masks = bulk.contender_masks()
    assert not bulk._rows  # the enumerator's masks need no link sets
    for a_link, mask in zip(links, masks):
        assert mask == sum(1 << position[other] for other in expected[a_link])

    subset = scrambled[::3]
    induced = ContentionGraph(topology, subset)
    for a_link in subset:
        assert induced.contenders(a_link) == expected[a_link] & set(subset)
    with pytest.raises(TopologyError):
        induced.contenders(scrambled[1])


# --- exact boundary behavior -------------------------------------------------


def test_links_at_exactly_the_radius_are_kept():
    topology = Topology(tx_range=250.0, cs_range=550.0)
    topology.add_nodes([(0.0, 0.0), (250.0, 0.0), (800.0, 0.0)])
    assert topology.has_link(0, 1)  # d == tx_range exactly
    assert topology.senses(1, 2)  # d == cs_range exactly
    assert not topology.senses(0, 2)  # 800 > 550


def test_point_just_outside_the_radius_is_excluded():
    topology = Topology(tx_range=250.0, cs_range=550.0)
    topology.add_nodes([(0.0, 0.0), (250.0000001, 0.0)])
    assert not topology.has_link(0, 1)
    assert topology.senses(0, 1)


def test_index_ball_and_pairs_match_brute_force_with_ties():
    # A 5x5 grid at spacing exactly half the query radius produces
    # many distances exactly at the boundary.
    xs, ys = [], []
    for row in range(5):
        for col in range(5):
            xs.append(col * 125.0)
            ys.append(row * 125.0)
    index = SpatialIndex(xs, ys, 550.0)
    count = len(xs)

    def dist(a, b):
        return math.hypot(xs[a] - xs[b], ys[a] - ys[b])

    for radius in (125.0, 250.0, 353.5533905932738, 550.0):
        for row in range(count):
            expected = sorted(
                other
                for other in range(count)
                if other != row and dist(row, other) <= radius
            )
            assert index.ball(row, radius).tolist() == expected
        expected_pairs = sorted(
            (a, b)
            for a in range(count)
            for b in range(a + 1, count)
            if dist(a, b) <= radius
        )
        assert [tuple(p) for p in index.pairs(radius).tolist()] == expected_pairs


# --- golden clique ids on the paper figures ----------------------------------

GOLDEN_FIGURE_CLIQUES = {
    "figure2": [
        ((0, 0), [(0, 1), (1, 2)]),
        ((1, 0), [(1, 2), (3, 4), (4, 5)]),
    ],
    "figure3": [
        ((0, 0), [(0, 1), (1, 2), (2, 3)]),
    ],
    "figure4": [
        ((0, 0), [(0, 1), (1, 2), (3, 4), (4, 5)]),
        ((3, 0), [(3, 4), (4, 5), (6, 7), (7, 8)]),
        ((6, 0), [(6, 7), (7, 8), (9, 10), (10, 11)]),
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FIGURE_CLIQUES))
def test_figure_clique_ids_are_bit_identical(name):
    scenario = SCENARIO_FACTORIES[name]()
    cliques = maximal_cliques(ContentionGraph(scenario.topology))
    assert [
        (c.clique_id, sorted(c.links)) for c in cliques
    ] == GOLDEN_FIGURE_CLIQUES[name]


# --- scaling canary -----------------------------------------------------------


def test_scale1000_pipeline_builds_within_budget():
    """The 1000-node pipeline (links + contention + cliques) must stay
    near-linear: ~3 s on a dev box, minutes if any all-pairs scan
    regresses.  The generous bound keeps slow CI runners green while
    still failing instantly on a quadratic regression."""
    start = time.monotonic()
    scenario = SCENARIO_FACTORIES["scale1000"]()
    scenario.topology.undirected_links()
    graph = ContentionGraph(scenario.topology)
    cliques = maximal_cliques(graph)
    elapsed = time.monotonic() - start
    assert len(cliques) > 5000
    assert elapsed < 20.0, f"scale1000 build took {elapsed:.1f}s"
