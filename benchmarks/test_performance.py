"""Simulator performance benchmarks (not paper artifacts).

Measured so regressions in the hot paths show up: event-kernel
dispatch (shallow and deep heap), figure3 GMP/fluid source ticks
(CBR, and Poisson under flow churn), packet-level DCF throughput (a
bare saturated link, and figure3 GMP through the whole node stack),
fluid-round throughput (setup excluded, so the number tracks the round
machinery itself), the water-filling solver, the maxmin reference
solve, and clique enumeration on a dense random network.  CI gates
each mean at 2x its ``benchmarks/bench-baseline.json`` entry through
``benchmarks/compare_bench.py`` (see docs/PERFORMANCE.md).
"""

import pytest

from repro.flows.packet import Packet
from repro.mac.dcf import DcfMac
from repro.mac.fluid import FluidMac, waterfill_links
from repro.sim.kernel import Simulator
from repro.topology.builders import random_topology
from repro.topology.cliques import maximal_cliques
from repro.topology.contention import ContentionGraph
from repro.topology.network import Topology

from helpers import QueueNode, SaturatedSender


def test_event_kernel_dispatch_rate(benchmark):
    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 50_000:
                sim.call_later(1e-6, tick, tag="bench")

        sim.call_later(0.0, tick, tag="bench")
        sim.run()
        return count[0]

    events = benchmark(run)
    assert events == 50_000


def test_event_kernel_dispatch_deep_heap(benchmark):
    """The same 50 k-event ticker over 256 parked events that stay
    eligible throughout (no ``until``), as pre-armed arrivals and fault
    events do in a churn run.  The single-pending-event benchmark above
    cannot see a per-dispatch cost that grows with heap depth."""

    def run():
        sim = Simulator()
        for index in range(256):
            sim.call_at(1e6 + index, lambda: None, tag="bench")
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 50_000:
                sim.call_later(1e-6, tick, tag="bench")
            else:
                sim.stop()

        sim.call_later(0.0, tick, tag="bench")
        sim.run()
        return count[0], sim.pending_events

    assert benchmark(run) == (50_000, 256)


def test_dcf_simulated_second(benchmark):
    """One simulated second of a saturated 802.11 link."""

    def run():
        topology = Topology()
        topology.add_nodes([(0.0, 0.0), (200.0, 0.0)])
        sim = Simulator(seed=1)
        mac = DcfMac(sim, topology)
        sender = SaturatedSender(0, {1: 1})
        sink = SaturatedSender(1, {})
        mac.attach_node(0, sender.services())
        mac.attach_node(1, sink.services())
        mac.start()
        sim.run(until=1.0)
        return len(sink.received)

    delivered = benchmark(run)
    assert delivered > 400


def _build_fluid_network(backlog_per_link: int):
    """A dense 20-node fluid network with every link backlogged."""
    topology = random_topology(20, width=900.0, height=900.0, seed=9)
    sim = Simulator(seed=1)
    mac = FluidMac(sim, topology, capacity_pps=500.0)
    nodes = {}
    for node_id in topology.node_ids:
        nodes[node_id] = QueueNode(node_id)
        mac.attach_node(node_id, nodes[node_id].services())
    mac.start()
    flow_id = 0
    for node_id in topology.node_ids:
        for neighbor in sorted(topology.neighbors(node_id)):
            flow_id += 1
            for _ in range(backlog_per_link):
                nodes[node_id].push(
                    Packet(
                        flow_id=flow_id,
                        source=node_id,
                        destination=neighbor,
                        size_bytes=1024,
                        created_at=0.0,
                    ),
                    neighbor,
                )
    return sim, nodes


def test_fluid_round_throughput(benchmark):
    """Fifty allocation/transfer rounds (one simulated second) on a
    dense saturated network — network construction and packet
    generation excluded from the timed region."""
    delivered = []

    def setup():
        sim, nodes = _build_fluid_network(backlog_per_link=60)
        return (sim, nodes), {}

    def run(sim, nodes):
        sim.run(until=1.0)
        delivered.append(sum(len(node.received) for node in nodes.values()))

    benchmark.pedantic(run, setup=setup, rounds=10, warmup_rounds=2)
    assert delivered[-1] > 100


def test_fluid_simulated_second(benchmark):
    """One simulated second of a 12-node fluid network, setup included
    (the historical end-to-end shape, kept for trend continuity)."""

    def run():
        topology = random_topology(12, width=900.0, height=900.0, seed=4)
        sim = Simulator(seed=1)
        mac = FluidMac(sim, topology, capacity_pps=500.0)
        nodes = {}
        for node_id in topology.node_ids:
            nodes[node_id] = QueueNode(node_id)
            mac.attach_node(node_id, nodes[node_id].services())
        mac.start()
        neighbors = sorted(topology.neighbors(0))
        for _ in range(2_000):
            packet = Packet(
                flow_id=1,
                source=0,
                destination=neighbors[0],
                size_bytes=1024,
                created_at=0.0,
            )
            nodes[0].push(packet, neighbors[0])
        sim.run(until=1.0)
        return sum(len(node.received) for node in nodes.values())

    delivered = benchmark(run)
    assert delivered > 100


def test_fluid_round_scale300(benchmark, monkeypatch):
    """One steady-state round interval of a warmed 300-node GMP/fluid
    run: the ``_round`` (demand poll, solve over the reduced clique
    system, transfers) plus the ~115 traffic/GMP events that feed it.
    Solving over every clique the active links touch (1,876 instead of
    37) makes this ~3x slower — through the 2x compare_bench gate."""
    from repro.scenarios.spec import RunSpec

    macs = []
    start = FluidMac.start

    def recording_start(self):
        macs.append(self)
        start(self)

    monkeypatch.setattr(FluidMac, "start", recording_start)
    RunSpec(scenario="scale300", protocol="gmp", substrate="fluid", duration=5.0, seed=1).run()
    (mac,) = macs
    sim = mac.sim
    solves_before = mac.alloc_cache_misses

    rounds = []

    def run():
        rounds.append(sim.now)
        sim.run(until=sim.now + mac.round_interval)

    benchmark.pedantic(run, rounds=200, warmup_rounds=10)
    # The memo almost never hits at this scale: the rounds really solved.
    # Counted against the rounds that ran, since ``--benchmark-disable``
    # makes pedantic call ``run`` once.
    assert mac.alloc_cache_misses - solves_before >= 0.95 * len(rounds)


def test_gmp_packet_path_figure3(benchmark):
    """Sixty simulated seconds of figure3 GMP/fluid through
    ``RunSpec.run``, set-up included (~2 ms): the per-packet path the
    ``QueueNode`` tests above bypass — ``TrafficSource`` ticks, about
    two in three refused by a full source queue, ``NodeStack``,
    ``PerDestinationBuffer`` and the GMP observer: ~75 k events, nearly
    all of them source ticks."""
    from repro.scenarios.spec import RunSpec

    spec = RunSpec(scenario="figure3", protocol="gmp", substrate="fluid", duration=60.0, seed=1)

    def run():
        return spec.run()

    result = benchmark.pedantic(run, rounds=5, warmup_rounds=1)
    assert min(result.flow_rates.values()) > 0


def test_gmp_churn_path_figure3(benchmark):
    """Thirty simulated seconds of figure3 GMP/fluid under the flow churn
    of the repo benchmark's dynamic workload (Poisson arrivals of flows
    that send Poisson traffic), through ``RunSpec.run``: the source tick
    path ``test_gmp_packet_path_figure3``'s CBR flows skip — a gap from
    the source's drawn block, one token-bucket refill under GMP's limits
    — plus churned sources starting and stopping.  ~97 k events, 18
    churned flows, nearly all events source ticks."""
    from repro.scenarios.figures import figure3
    from repro.scenarios.spec import RunSpec

    spec = RunSpec(
        scenario="figure3",
        protocol="gmp",
        substrate="fluid",
        duration=30.0,
        seed=1,
        churn="poisson:rate=0.5,mean_hold=8,max_flows=8",
    )

    def run():
        return spec.run()

    result = benchmark.pedantic(run, rounds=5, warmup_rounds=1)
    assert result.extras["churn"].arrivals > 0
    assert min(result.flow_rates[flow.flow_id] for flow in figure3().flows) > 0


def test_gmp_dcf_exchange_figure3(benchmark):
    """Ten simulated seconds of figure3 GMP/DCF through ``RunSpec.run``,
    set-up included: the RTS/CTS/DATA/ACK exchange with the node stack,
    the overhearing gate fed by every decoded frame's piggyback and the
    GMP observer — the path ``test_dcf_simulated_second``'s
    ``SaturatedSender`` bypasses.  ~86 k events, ~24 k frames; every
    frame restarts timers (re-keyed in place, not re-allocated) and
    replays its sender's delivery plan."""
    from repro.scenarios.spec import RunSpec

    spec = RunSpec(scenario="figure3", protocol="gmp", substrate="dcf", duration=10.0, seed=1)

    def run():
        return spec.run()

    result = benchmark.pedantic(run, rounds=5, warmup_rounds=1)
    assert min(result.flow_rates.values()) > 0


def test_scale300_setup(benchmark, monkeypatch):
    """Set-up of a 300-node GMP/fluid run: scenario factory through
    assembly, up to the entry of ``Simulator.run`` — 20-40 ms (min and
    mean of ten rounds; the factory is ~10 ms of it).  Everything after
    the factory is sized by the traffic:
    8 Dijkstras for the 8 flow destinations (pinned by count in
    tests/test_routing.py), one clique enumeration over the 50 routed
    links (pinned in tests/test_gmp_protocol.py), contention rows and
    dissemination scopes formed on demand.  At this level the 2x
    compare_bench gate sees either kind of set-up work sized by the
    network creeping back: the global clique enumeration (+0.4 s) and an
    all-destinations route build (+0.17 s) alike."""
    from repro.scenarios.spec import RunSpec
    from repro.sim.kernel import Simulator

    class AtRunEntry(Exception):
        pass

    def stop_at_entry(self, *args, **kwargs):
        raise AtRunEntry

    monkeypatch.setattr(Simulator, "run", stop_at_entry)

    spec = RunSpec(scenario="scale300", protocol="gmp", substrate="fluid", duration=20.0, seed=1)

    def setup():
        with pytest.raises(AtRunEntry):
            spec.run()

    benchmark.pedantic(setup, rounds=10, warmup_rounds=1)


def test_waterfill_solver(benchmark):
    """One uncached water-filling solve over the dense network's cliques
    with every directed link demanding (the per-round inner solver)."""
    topology = random_topology(20, width=900.0, height=900.0, seed=9)
    cliques = maximal_cliques(ContentionGraph(topology))
    demands = {}
    for node_id in topology.node_ids:
        for neighbor in sorted(topology.neighbors(node_id)):
            demands[(node_id, neighbor)] = 750.0 + node_id

    def run():
        return waterfill_links(demands, cliques, 500.0)

    alloc = benchmark(run)
    assert alloc and all(rate >= 0.0 for rate in alloc.values())


def test_maxmin_reference_scale300(benchmark):
    """The centralized weighted-maxmin solve the repo benchmark times
    (``workloads.reference_rates``): scale300's flows over all 2,219
    cliques of the topology, routes and cliques built untimed.  It runs
    the fluid round's filling loop, so a loop that scans the cliques it
    is handed instead of the ones the flows cross shows here: ~20 ms,
    against ~55 ms for the re-summing dict loop the reference had
    before — through the 2x compare_bench gate."""
    from repro.analysis.maxmin_reference import weighted_maxmin_rates
    from repro.mac.phy import DEFAULT_PHY
    from repro.routing.link_state import link_state_routes
    from repro.scenarios.scale import scale300

    scenario = scale300()
    routes = link_state_routes(scenario.topology)
    cliques = maximal_cliques(ContentionGraph(scenario.topology))
    capacity = DEFAULT_PHY.clique_capacity(
        max(flow.packet_bytes for flow in scenario.flows)
    )

    def run():
        return weighted_maxmin_rates(scenario.flows, routes, cliques, capacity)

    solution = benchmark.pedantic(run, rounds=20, warmup_rounds=1)
    assert len(cliques) == 2219 and min(solution.rates.values()) > 0


def test_health_live_scan(benchmark):
    """One live health pass — the stall probe plus the three live
    anomaly detectors scanned to ``now`` — over a recorded 240 sim-s
    figure3 GMP/fluid run with ``rate_interval=1`` (the run itself is
    untimed).  The monitor repeats this pass every tick, so its cost
    per pass must stay linear in the series it reads: re-walking every
    queue sample from t=0 for each 5 s window makes it several times
    slower — through the 2x compare_bench gate.  The whole-run cost
    still grows faster than the run: each pass rescans from warm-up."""
    from types import SimpleNamespace

    from repro.obs import HealthMonitor
    from repro.scenarios.spec import RunSpec
    from repro.telemetry import Telemetry

    result = RunSpec(
        scenario="figure3",
        protocol="gmp",
        substrate="fluid",
        duration=240.0,
        seed=1,
        rate_interval=1.0,
    ).run(telemetry=Telemetry())
    health = HealthMonitor(deliveries=[])
    health.bind(SimpleNamespace(events_processed=0, partial_result=lambda: result))

    benchmark.pedantic(lambda: health.on_tick(result.duration), rounds=20)
    assert health.ticks >= 1 and health.alerts() == []


def test_clique_enumeration_dense(benchmark):
    def run():
        topology = random_topology(20, width=900.0, height=900.0, seed=9)
        graph = ContentionGraph(topology)
        return len(maximal_cliques(graph))

    count = benchmark(run)
    assert count >= 1


def test_scale_build_300(benchmark):
    """Full 300-node city-scale pipeline build: placement, links,
    contention graph, maximal cliques.  This is the gated canary for
    the spatial-index / localized-contention / bitmask-Bron–Kerbosch
    path — a reintroduced all-pairs scan blows straight through the
    2x compare_bench threshold."""
    from repro.scenarios.scale import scale300

    def run():
        scenario = scale300()
        scenario.topology.undirected_links()
        graph = ContentionGraph(scenario.topology)
        return len(maximal_cliques(graph))

    count = benchmark.pedantic(run, rounds=3, warmup_rounds=1)
    assert count > 1_000
