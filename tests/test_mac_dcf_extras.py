"""DCF tests for NAV reset and backpressure piggyback."""

from repro.buffers.backpressure import OverhearingGate
from repro.buffers.queues import PerDestinationBuffer
from repro.flows.flow import Flow
from repro.flows.traffic import CbrSource
from repro.mac.dcf import DcfMac
from repro.routing.link_state import link_state_routes
from repro.sim.kernel import Simulator
from repro.stack import NodeStack
from repro.topology.builders import chain_topology
from repro.topology.network import Topology

from helpers import SaturatedSender


def test_nav_reset_frees_third_party_after_failed_rts():
    """Node 2 overhears RTS from 0 whose receiver never answers; the
    NAV-reset rule must let node 2 transmit long before the RTS's full
    exchange reservation expires."""
    topology = Topology()
    # 0 -> 1: receiver 1 is out of range (RTS always fails).
    # 2 senses 0 and has its own receiver 3.
    topology.add_nodes(
        [(0.0, 0.0), (5000.0, 0.0), (200.0, 0.0), (400.0, 0.0)]
    )
    sim = Simulator(seed=4)
    mac = DcfMac(sim, topology)
    s0 = SaturatedSender(0, {1: 1})
    s2 = SaturatedSender(2, {3: 2})
    sink1 = SaturatedSender(1, {})
    sink3 = SaturatedSender(3, {})
    for node_id, actor in [(0, s0), (1, sink1), (2, s2), (3, sink3)]:
        mac.attach_node(node_id, actor.services())
    mac.start()
    sim.run(until=2.0)
    # Node 0's RTS storm fails entirely, yet node 2 still delivers at a
    # healthy rate because failed reservations are reset.
    assert len(sink3.received) > 300
    assert len(sink1.received) == 0


def gmp_style_pair(stale_timeout=0.05):
    """Two-node stack with per-destination buffers + overhearing gate."""
    topology = chain_topology(3, spacing=200.0)
    routes = link_state_routes(topology)
    sim = Simulator(seed=5)
    mac = DcfMac(sim, topology)
    stacks = {}
    for node_id in topology.node_ids:
        gate = OverhearingGate(stale_timeout=stale_timeout)
        buffer = PerDestinationBuffer(
            node_id,
            lambda dest, node_id=node_id: routes.next_hop(node_id, dest),
            gate,
            per_dest_capacity=5,
        )
        stacks[node_id] = NodeStack(sim, node_id, buffer, mac, stale_retry=stale_timeout)
        stacks[node_id].attach()
    mac.start()
    return sim, mac, stacks


def test_overhearing_gate_carries_buffer_state_in_band():
    """End-to-end relay over the DCF with overheard buffer-state bits:
    the upstream node must learn the relay's queue state and still
    deliver traffic (no deadlock, bounded overshoot)."""
    sim, mac, stacks = gmp_style_pair()
    flow = Flow(flow_id=1, source=0, destination=2, desired_rate=800.0)
    CbrSource(sim, flow, stacks[0].admit_local).start()
    sim.run(until=5.0)
    delivered = stacks[2].delivered.get(1, 0)
    assert delivered > 500, "relavyed flow must make steady progress"
    # The gate actually blocked sometimes (backpressure was active)...
    gate = stacks[0].buffer.gate
    assert gate.blocked_checks > 0
    # ...and races can only overshoot the queue by a small amount.
    assert stacks[1].buffer.overshoot < delivered * 0.2


def test_overhearing_gate_bounds_queue_growth():
    sim, mac, stacks = gmp_style_pair()
    flow = Flow(flow_id=1, source=0, destination=2, desired_rate=800.0)
    CbrSource(sim, flow, stacks[0].admit_local).start()
    sim.run(until=3.0)
    # Nominal capacity 5; in-flight races may add a couple of packets,
    # but the queue must not balloon.
    assert stacks[1].buffer.queue_length(2) <= 8
