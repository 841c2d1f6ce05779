"""Tests for the fluid MAC and its water-filling allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, MacError
from repro.flows.packet import Packet
from repro.mac.fluid import FluidMac, waterfill_links
from repro.sim.kernel import Simulator
from repro.topology.builders import chain_topology, random_topology
from repro.topology.cliques import maximal_cliques
from repro.topology.contention import ContentionGraph
from repro.topology.network import Topology, canonical

from helpers import NeverStores, QueueNode


def cliques_for(topology):
    return maximal_cliques(ContentionGraph(topology))


def test_waterfill_single_clique_equal_share():
    chain = chain_topology(4, spacing=200.0)
    cliques = cliques_for(chain)
    demands = {(0, 1): 1000.0, (1, 2): 1000.0, (2, 3): 1000.0}
    alloc = waterfill_links(demands, cliques, capacity=600.0)
    for a_link in demands:
        assert alloc[a_link] == pytest.approx(200.0)


def test_waterfill_demand_capped_link_releases_capacity():
    chain = chain_topology(4, spacing=200.0)
    cliques = cliques_for(chain)
    demands = {(0, 1): 50.0, (1, 2): 1000.0, (2, 3): 1000.0}
    alloc = waterfill_links(demands, cliques, capacity=600.0)
    assert alloc[(0, 1)] == pytest.approx(50.0)
    assert alloc[(1, 2)] == pytest.approx(275.0)
    assert alloc[(2, 3)] == pytest.approx(275.0)


def test_waterfill_respects_rate_caps():
    chain = chain_topology(4, spacing=200.0)
    cliques = cliques_for(chain)
    demands = {(0, 1): 1000.0, (1, 2): 1000.0}
    alloc = waterfill_links(
        demands, cliques, capacity=600.0, rate_caps={(0, 1): 10.0}
    )
    assert alloc[(0, 1)] == pytest.approx(10.0)
    assert alloc[(1, 2)] == pytest.approx(590.0)


def test_waterfill_two_cliques_bottleneck():
    """The paper's Fig. 2 structure: clique {A,B} and clique {B,C,D}."""
    # Build geometry equivalent: chain of 3 plus separated pair sensed
    # by the chain's second link only.  Simplest to verify with the
    # figure-2 geometry itself.
    topology = Topology(tx_range=250.0, cs_range=550.0)
    topology.add_nodes(
        [
            (0.0, 0.0),
            (200.0, 0.0),
            (400.0, 0.0),
            (760.0, 0.0),
            (940.0, 0.0),
            (1140.0, 0.0),
        ]
    )
    cliques = cliques_for(topology)
    clique_sets = {clique.links for clique in cliques}
    assert frozenset({(0, 1), (1, 2)}) in clique_sets
    assert frozenset({(1, 2), (3, 4), (4, 5)}) in clique_sets
    demands = {a_link: 1000.0 for a_link in [(0, 1), (1, 2), (3, 4), (4, 5)]}
    alloc = waterfill_links(demands, cliques, capacity=600.0)
    # Clique {12,34,45} bottlenecks first at 200 each; link (0,1) then
    # fills clique {01,12} to capacity.
    assert alloc[(1, 2)] == pytest.approx(200.0)
    assert alloc[(3, 4)] == pytest.approx(200.0)
    assert alloc[(4, 5)] == pytest.approx(200.0)
    assert alloc[(0, 1)] == pytest.approx(400.0)


def test_waterfill_empty_and_zero_demands():
    chain = chain_topology(3)
    cliques = cliques_for(chain)
    assert waterfill_links({}, cliques, capacity=100.0) == {}
    alloc = waterfill_links({(0, 1): 0.0}, cliques, capacity=100.0)
    assert alloc == {}


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    capacity=st.floats(min_value=10.0, max_value=1000.0),
)
def test_waterfill_never_violates_clique_capacity(seed, capacity):
    topology = random_topology(8, width=700.0, height=700.0, seed=seed)
    graph = ContentionGraph(topology)
    cliques = maximal_cliques(graph)
    rng_links = graph.links
    demands = {a_link: 100.0 + 37.0 * index for index, a_link in enumerate(rng_links)}
    alloc = waterfill_links(demands, cliques, capacity=capacity)
    for clique in cliques:
        used = sum(rate for a_link, rate in alloc.items() if a_link in clique)
        assert used <= capacity * (1 + 1e-6)
    for a_link, rate in alloc.items():
        assert rate <= demands[a_link] + 1e-6


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_waterfill_is_maxmin_no_link_can_grow(seed):
    """Maxmin property: every allocated link is blocked either by its
    demand or by a clique whose capacity is exhausted and in which it
    holds a maximal share among unfixed links."""
    topology = random_topology(7, width=700.0, height=700.0, seed=seed)
    graph = ContentionGraph(topology)
    cliques = maximal_cliques(graph)
    demands = {a_link: 500.0 for a_link in graph.links}
    capacity = 300.0
    alloc = waterfill_links(demands, cliques, capacity=capacity)
    for a_link, rate in alloc.items():
        if rate >= demands[a_link] - 1e-6:
            continue
        blocking = [
            clique
            for clique in cliques
            if a_link in clique
            and sum(r for l2, r in alloc.items() if l2 in clique)
            >= capacity - 1e-6
        ]
        assert blocking, f"link {a_link} is neither demand- nor clique-limited"
        # In some blocking clique, no other link has a smaller share
        # that could be reduced to help (equal-share maxmin).
        assert any(
            all(
                alloc[other] <= rate + 1e-6
                for other in alloc
                if other != a_link and other in clique
            )
            for clique in blocking
        )


def build_fluid_pair(capacity=500.0, interval=0.01):
    topology = Topology()
    topology.add_nodes([(0.0, 0.0), (200.0, 0.0)])
    sim = Simulator(seed=1)
    mac = FluidMac(sim, topology, capacity_pps=capacity, round_interval=interval)
    sender = QueueNode(0)
    sink = QueueNode(1)
    mac.attach_node(0, sender.services())
    mac.attach_node(1, sink.services())
    mac.start()
    return sim, mac, sender, sink


def fill(sender, count, next_hop, flow_id=1):
    for _ in range(count):
        packet = Packet(
            flow_id=flow_id,
            source=sender.node_id,
            destination=next_hop,
            size_bytes=1024,
            created_at=0.0,
        )
        sender.push(packet, next_hop)


def test_fluid_transfers_at_capacity():
    sim, mac, sender, sink = build_fluid_pair(capacity=500.0)
    fill(sender, 10_000, next_hop=1)
    sim.run(until=2.0)
    assert len(sink.received) == pytest.approx(1000, abs=10)


def test_fluid_respects_backlog():
    sim, mac, sender, sink = build_fluid_pair(capacity=500.0)
    fill(sender, 30, next_hop=1)
    sim.run(until=2.0)
    assert len(sink.received) == 30


def test_fluid_contending_links_share():
    chain = chain_topology(3, spacing=200.0)
    sim = Simulator(seed=1)
    mac = FluidMac(sim, chain, capacity_pps=400.0)
    nodes = {node_id: QueueNode(node_id) for node_id in range(3)}
    for node_id, node in nodes.items():
        mac.attach_node(node_id, node.services())
    mac.start()
    fill(nodes[0], 10_000, next_hop=1)
    fill(nodes[1], 10_000, next_hop=2, flow_id=2)
    sim.run(until=2.0)
    delivered_01 = sum(1 for p in nodes[1].received if p.flow_id == 1)
    delivered_12 = sum(1 for p in nodes[2].received if p.flow_id == 2)
    assert delivered_01 == pytest.approx(400, abs=10)
    assert delivered_12 == pytest.approx(400, abs=10)


def test_fluid_rate_caps_apply():
    sim_topology = Topology()
    sim_topology.add_nodes([(0.0, 0.0), (200.0, 0.0)])
    sim = Simulator(seed=1)
    mac = FluidMac(
        sim, sim_topology, capacity_pps=500.0, rate_caps={(0, 1): 50.0}
    )
    sender = QueueNode(0)
    sink = QueueNode(1)
    mac.attach_node(0, sender.services())
    mac.attach_node(1, sink.services())
    mac.start()
    fill(sender, 10_000, next_hop=1)
    sim.run(until=2.0)
    assert len(sink.received) == pytest.approx(100, abs=5)


def test_fluid_occupancy_attributed_to_sender():
    sim, mac, sender, sink = build_fluid_pair(capacity=500.0)
    fill(sender, 10_000, next_hop=1)
    sim.run(until=1.0)
    occ = mac.occupancy_snapshot(0)
    assert occ[(0, 1)] == pytest.approx(1.0, rel=0.05)
    assert mac.occupancy_snapshot(1)[(0, 1)] == 0.0
    mac.reset_occupancy(0)
    assert mac.occupancy_snapshot(0) == {}


def test_fluid_requires_batch_accessors():
    topology = chain_topology(2)
    sim = Simulator()
    mac = FluidMac(sim, topology)
    from repro.mac.base import NodeServices

    with pytest.raises(MacError):
        mac.attach_node(
            0,
            NodeServices(
                dequeue=lambda: None, on_data_received=lambda packet, sender: None
            ),
        )
    # Each of the three batch accessors is required on its own.
    complete = dict(
        dequeue=lambda: None,
        on_data_received=lambda packet, sender: None,
        eligible_links=dict,
        dequeue_for=lambda next_hop: None,
        has_pending=lambda: False,
    )
    for missing in ("eligible_links", "dequeue_for", "has_pending"):
        with pytest.raises(MacError, match=missing):
            mac.attach_node(0, NodeServices(**{**complete, missing: None}))
    mac.attach_node(0, NodeServices(**complete))


def test_fluid_config_validation():
    topology = chain_topology(2)
    sim = Simulator()
    with pytest.raises(ConfigError):
        FluidMac(sim, topology, round_interval=0.0)
    with pytest.raises(ConfigError):
        FluidMac(sim, topology, capacity_pps=-5.0)


def test_fluid_double_start_rejected():
    sim, mac, sender, sink = build_fluid_pair()
    with pytest.raises(MacError):
        mac.start()


# --- FluidMac solves on its clique system — the maximal cliques of the
# --- contention graph induced on the links it has seen: its solve ==
# --- waterfill_links over every clique, bit for bit

OFF_TOPOLOGY_LINK = (10_000, 10_001)


def projected_maximal_member_sets(system, cliques):
    """Brute force, independent of the induced enumeration: every clique
    of the whole graph restricted to the universe, one per distinct
    non-empty member set, none that is a subset of another."""
    projections = {clique.links & frozenset(system.links) for clique in cliques}
    projections.discard(frozenset())
    return {
        members
        for members in projections
        if not any(members < other for other in projections)
    }


def assert_reduced_system_is_exact(system, cliques):
    """Induced-maximal == projected-maximal."""
    reduced = [clique.links for clique in system.cliques]
    assert len(reduced) == len(set(reduced))
    assert set(reduced) == projected_maximal_member_sets(system, cliques)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reduced_solve_equals_full_solve_bit_for_bit(data):
    """A random sequence of demand vectors over random link subsets —
    the universe grows in a different order each time and links leave
    and re-enter the active set — under random rate caps and fault
    caps: every allocation equals the unreduced solver's, as floats."""
    num_nodes = data.draw(st.integers(min_value=8, max_value=40), label="nodes")
    side = 260.0 * num_nodes**0.5
    topology = random_topology(
        num_nodes,
        width=side,
        height=side,
        seed=data.draw(st.integers(min_value=0, max_value=5000), label="seed"),
    )
    cliques = cliques_for(topology)
    capacity = 500.0
    links = [(i, j) for i in topology.node_ids for j in sorted(topology.neighbors(i))]
    links.append(OFF_TOPOLOGY_LINK)
    link_subsets = st.lists(st.sampled_from(links), unique=True, max_size=len(links))
    rates = st.floats(min_value=1.0, max_value=3 * capacity)

    rate_caps = {
        a_link: data.draw(rates)
        for a_link in data.draw(link_subsets, label="capped")
    }
    mac = FluidMac(Simulator(), topology, capacity_pps=capacity, rate_caps=rate_caps)
    if not data.draw(st.booleans(), label="alloc_cache"):
        mac._alloc_cache = NeverStores()
    mac.start()

    caps = dict(rate_caps)
    for _ in range(data.draw(st.integers(min_value=1, max_value=8), label="vectors")):
        if data.draw(st.booleans(), label="inject fault cap"):
            sender, receiver = a_link = data.draw(st.sampled_from(links))
            fault_cap = data.draw(rates)
            mac.set_link_capacity(sender, receiver, fault_cap)
            caps[a_link] = min(fault_cap, rate_caps.get(a_link, float("inf")))
        demands = {
            a_link: data.draw(st.one_of(st.just(0.0), rates))
            for a_link in data.draw(link_subsets, label="backlogged")
        }
        alloc = mac._allocate_quantized(list(demands.items()))
        assert alloc == waterfill_links(demands, cliques, capacity, rate_caps=caps)
    assert_reduced_system_is_exact(mac.system, cliques)


def test_dominated_clique_is_dropped_and_returns_when_the_universe_grows():
    # chain(6) has cliques A = {01, 12, 23, 34} and B = {12, 23, 34, 45}.
    chain = chain_topology(6)
    cliques = cliques_for(chain)
    assert len(cliques) == 2
    mac = FluidMac(Simulator(), chain, capacity_pps=300.0)
    mac.start()

    # On {(1,2), (4,5)} A projects to {(1,2)}, a strict subset of B's
    # {(1,2), (4,5)}: the induced graph has the one clique, and the
    # allocation is still the full solver's whether or not (4,5) is
    # backlogged.
    for demands in (
        {(1, 2): 1000.0, (4, 5): 1000.0},
        {(1, 2): 1000.0},
        {(4, 5): 40.0, (1, 2): 1000.0},
    ):
        assert mac._allocate_quantized(list(demands.items())) == waterfill_links(
            demands, cliques, 300.0
        )
    assert [clique.sorted_links() for clique in mac.system.cliques] == [
        [(1, 2), (4, 5)]
    ]

    # (0,1) is in A only, so A's projection is no longer inside B's.
    demands = {(0, 1): 1000.0, (1, 2): 1000.0, (4, 5): 1000.0}
    assert mac._allocate_quantized(list(demands.items())) == waterfill_links(
        demands, cliques, 300.0
    )
    assert [clique.sorted_links() for clique in mac.system.cliques] == [
        [(0, 1), (1, 2)],
        [(1, 2), (4, 5)],
    ]
    assert_reduced_system_is_exact(mac.system, cliques)


def test_link_in_no_clique_joins_the_universe_unconstrained():
    chain = chain_topology(4)
    cliques = cliques_for(chain)
    mac = FluidMac(Simulator(), chain, capacity_pps=300.0)
    mac.start()
    demands = {(0, 1): 1000.0, OFF_TOPOLOGY_LINK: 900.0, (2, 3): 1000.0}
    alloc = mac._allocate_quantized(list(demands.items()))
    assert alloc == waterfill_links(demands, cliques, 300.0)
    # No clique bounds it, so only its own demand does (3x capacity).
    assert alloc[OFF_TOPOLOGY_LINK] == 900.0
    assert mac.system.memberships[OFF_TOPOLOGY_LINK] == ()
    assert OFF_TOPOLOGY_LINK in mac.system.links


def test_scale300_run_solves_every_round_exactly_on_a_tenth_of_the_cliques(
    monkeypatch,
):
    """Whole-run differential: every allocation of a 300-node GMP/fluid
    run (memo hit or solve) equals ``waterfill_links`` over all 2,219
    cliques, while the solver itself only ever sees the cliques that
    can bind among the links that carried traffic."""
    from repro.scenarios.scale import scale300
    from repro.scenarios.spec import RunSpec

    scenario = scale300()
    cliques = cliques_for(scenario.topology)
    macs = []
    solve = FluidMac._allocate_quantized

    def checked(self, quantized):
        if not macs:
            macs.append(self)
        alloc = solve(self, quantized)
        assert alloc == waterfill_links(
            dict(quantized),
            cliques,
            self.capacity_pps,
            rate_caps=self._effective_caps(),
        )
        return alloc

    monkeypatch.setattr(FluidMac, "_allocate_quantized", checked)
    result = RunSpec(
        scenario="scale300",
        protocol="gmp",
        substrate="fluid",
        duration=2.0,
        seed=1,
        churn="poisson:rate=2,mean_hold=8,start=1",
    ).run()
    (mac,) = macs
    assert mac.alloc_cache_misses == 99

    system = mac.system
    assert (len(system.links), len(system.cliques), len(cliques)) == (62, 56, 2219)
    assert len(system.cliques) <= 0.1 * len(cliques)

    # Flows grafted after t = 1 s are routed over links no static flow
    # uses; registering them grew the run's system (twice: the third
    # graft's path was already known), so the MAC itself never met a
    # link it had not seen.
    paths = result.extras["flow_paths"]
    grafted = set(result.flow_lifetimes)
    assert len(grafted) == 3 and system.generation == 3
    routed = {
        canonical(a_link) for flow_id in paths for a_link in paths[flow_id]
    }
    static_links = {
        canonical(a_link)
        for flow_id, path in paths.items()
        if flow_id not in grafted
        for a_link in path
    }
    assert routed - static_links and set(system.links) == routed

    # A link outside the topology joins too, unconstrained; the whole
    # system is still the exact reduction.
    checked(mac, [(OFF_TOPOLOGY_LINK, 5.0)])
    assert system.memberships[OFF_TOPOLOGY_LINK] == () and system.generation == 4
    assert_reduced_system_is_exact(system, cliques)


@pytest.mark.parametrize(
    "scenario, churn",
    [("scale300", None), ("figure3", "poisson:rate=1,mean_hold=2,max_flows=4")],
)
def test_no_run_rescans_the_cliques_per_link(monkeypatch, scenario, churn):
    """Clique memberships come from one link -> positions index built
    per enumeration; a solve that tested each link against every clique
    would be O(links x cliques) per round, and shows here as membership
    tests."""
    from repro.mac import fluid
    from repro.scenarios.spec import RunSpec
    from repro.topology.cliques import Clique

    def counting(calls, function):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return function(*args, **kwargs)

        return wrapper

    tests, solves = [], []
    monkeypatch.setattr(Clique, "__contains__", counting(tests, Clique.__contains__))
    monkeypatch.setattr(fluid, "progressive_fill", counting(solves, fluid.progressive_fill))
    RunSpec(
        scenario=scenario, substrate="fluid", duration=2.0 if churn is None else 20.0,
        seed=1, churn=churn,
    ).run()
    assert solves and not tests
