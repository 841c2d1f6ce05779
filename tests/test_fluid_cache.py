"""Tests for the fluid substrate's allocation cache and idle-skip.

The cache memoizes the water-filling solve on the quantized demand
vector; the dirty/idle pair lets fully quiescent rounds return without
polling any node.  Both are pure optimizations — these tests pin that
runs with and without them are identical (a memo that never stores
makes every round solve and changes nothing else, so the comparison
isolates it), that the counters move, that the memo keeps a run's
working set but no more, and that the substrate wakes correctly when
demand reappears.
"""

import random

from repro import RunSpec
from repro.flows.packet import Packet
from repro.mac.fluid import _ALLOC_CACHE_LIMIT, FluidMac, waterfill_links
from repro.sim.kernel import Simulator
from repro.topology.builders import random_topology
from repro.topology.cliques import maximal_cliques
from repro.topology.contention import ContentionGraph
from repro.topology.network import Topology

from helpers import NeverStores, QueueNode


def _line_topology(n: int, spacing: float = 200.0) -> Topology:
    topology = Topology()
    topology.add_nodes([(index * spacing, 0.0) for index in range(n)])
    return topology


def _packet(flow_id: int, source: int, destination: int) -> Packet:
    return Packet(
        flow_id=flow_id,
        source=source,
        destination=destination,
        size_bytes=1024,
        created_at=0.0,
    )


class SizeWatch(dict):
    """An allocation memo that remembers the most entries it ever held."""

    most = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.most = max(self.most, len(self))


def _run_dense(memo=None, backlog: int = 40, trickle: bool = False, until: float = 1.0):
    """Backlog every directed link of a 12-node mesh and run the fluid
    substrate; ``memo`` replaces the allocation memo when given.  With
    ``trickle`` every node also adds a few packets to one of its links
    every 30 ms, so the demand vector keeps changing."""
    topology = random_topology(12, width=900.0, height=900.0, seed=4)
    sim = Simulator(seed=1)
    mac = FluidMac(sim, topology, capacity_pps=500.0)
    if memo is not None:
        mac._alloc_cache = memo
    nodes = {}
    for node_id in topology.node_ids:
        nodes[node_id] = QueueNode(node_id)
        mac.attach_node(node_id, nodes[node_id].services())
    mac.start()
    flow_id = 0
    for node_id in topology.node_ids:
        for neighbor in sorted(topology.neighbors(node_id)):
            flow_id += 1
            for _ in range(backlog):
                nodes[node_id].push(_packet(flow_id, node_id, neighbor), neighbor)
    if trickle:
        rng = random.Random(7)

        def add_packets():
            for node_id in topology.node_ids:
                neighbor = rng.choice(sorted(topology.neighbors(node_id)))
                for _ in range(rng.randrange(4)):
                    nodes[node_id].push(_packet(0, node_id, neighbor), neighbor)
                mac.notify_backlog(node_id)

        sim.every(0.03, add_packets, tag="test")
    sim.run(until=until)
    received = {
        node_id: [packet.flow_id for packet in node.received]
        for node_id, node in nodes.items()
    }
    occupancy = {
        node_id: mac.occupancy_snapshot(node_id) for node_id in nodes
    }
    return received, occupancy, mac


def test_alloc_cache_is_transparent():
    cached_rx, cached_occ, cached_mac = _run_dense()
    plain_rx, plain_occ, plain_mac = _run_dense(NeverStores())
    assert cached_rx == plain_rx
    assert cached_occ == plain_occ
    assert sum(map(len, cached_rx.values())) > 0
    assert cached_mac.alloc_cache_hits > 0
    assert plain_mac.alloc_cache_hits == 0
    # Every round the memo answered, the forgetful one solved.
    assert plain_mac.alloc_cache_misses == (
        cached_mac.alloc_cache_hits + cached_mac.alloc_cache_misses
    )


def test_alloc_cache_stays_within_its_limit_and_transparent():
    # More distinct demand vectors than the memo may keep: it is dropped
    # when full, never grows past the limit, and answers as before.
    watch = SizeWatch()
    cached_rx, cached_occ, cached_mac = _run_dense(watch, backlog=3, trickle=True, until=4.0)
    plain_rx, plain_occ, plain_mac = _run_dense(
        NeverStores(), backlog=3, trickle=True, until=4.0
    )
    assert cached_mac.alloc_cache_misses > 2 * _ALLOC_CACHE_LIMIT
    assert watch.most == _ALLOC_CACHE_LIMIT
    assert cached_rx == plain_rx
    assert cached_occ == plain_occ
    assert sum(map(len, cached_rx.values())) > 0
    assert plain_mac.alloc_cache_misses == (
        cached_mac.alloc_cache_hits + cached_mac.alloc_cache_misses
    )


def test_alloc_cache_limit_keeps_the_figure3_working_set(monkeypatch):
    # figure3's GMP run revisits a handful of demand vectors; the bound
    # must keep all of them, so nearly every round is a memo hit.
    macs = []
    start = FluidMac.start

    def capture(mac):
        macs.append(mac)
        return start(mac)

    monkeypatch.setattr(FluidMac, "start", capture)
    RunSpec(scenario="figure3", protocol="gmp", substrate="fluid", duration=60.0, seed=1).run()
    (mac,) = macs
    assert mac.alloc_cache_hits + mac.alloc_cache_misses == 2_999
    assert mac.alloc_cache_hits == 2_981


def test_idle_rounds_are_skipped_and_backlog_wakes():
    topology = _line_topology(2)
    sim = Simulator(seed=1)
    mac = FluidMac(sim, topology, capacity_pps=500.0)
    nodes = {0: QueueNode(0), 1: QueueNode(1)}
    mac.attach_node(0, nodes[0].services())
    mac.attach_node(1, nodes[1].services())
    mac.start()
    for _ in range(5):
        nodes[0].push(_packet(1, 0, 1), 1)
    sim.run(until=2.0)
    assert len(nodes[1].received) == 5
    # The 5-packet backlog drains in the first round; nearly all of the
    # remaining ~99 rounds must have been skipped.
    assert mac.rounds_skipped > 50

    # New demand plus the notify_backlog call every admission path
    # makes must wake the round machinery back up.
    skipped_before = mac.rounds_skipped
    nodes[0].push(_packet(1, 0, 1), 1)
    mac.notify_backlog(0)
    sim.run(until=2.1)
    assert len(nodes[1].received) == 6
    assert mac.rounds_skipped >= skipped_before  # skips resume after drain


def test_demand_clamp_does_not_change_allocation():
    # Clamping a clique member's demand at the clique capacity is a
    # pure cache-key normalization: the solve is bit-identical.
    topology = random_topology(10, width=700.0, height=700.0, seed=7)
    cliques = maximal_cliques(ContentionGraph(topology))
    capacity = 500.0
    deep = {}
    clamped = {}
    for node_id in topology.node_ids:
        for neighbor in sorted(topology.neighbors(node_id)):
            deep[(node_id, neighbor)] = 4_000.0 + node_id
            clamped[(node_id, neighbor)] = capacity
    assert waterfill_links(deep, cliques, capacity) == waterfill_links(
        clamped, cliques, capacity
    )


def test_cache_counters_reach_telemetry():
    from repro.telemetry import Telemetry

    topology = _line_topology(2)
    sim = Simulator(seed=1, telemetry=Telemetry())
    mac = FluidMac(sim, topology, capacity_pps=500.0)
    nodes = {0: QueueNode(0), 1: QueueNode(1)}
    mac.attach_node(0, nodes[0].services())
    mac.attach_node(1, nodes[1].services())
    mac.start()
    for _ in range(30):
        nodes[0].push(_packet(1, 0, 1), 1)
    sim.run(until=1.0)
    names = {metric.name for metric in sim.telemetry.registry.instruments()}
    assert "mac.alloc_cache_hits" in names
    assert "mac.rounds_skipped" in names
    # The one backlogged link forced the one rebuild of the solver's
    # clique system, which published its size.
    registry = sim.telemetry.registry
    assert registry.gauge("mac.solver_links").value == 1
    assert registry.gauge("mac.solver_cliques").value == 1
