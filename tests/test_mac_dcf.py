"""Behavioral tests for the packet-level 802.11 DCF."""

import pytest

from repro.buffers.backpressure import OverhearingGate
from repro.errors import MacError
from repro.mac.dcf import DcfConfig, DcfMac
from repro.mac.phy import PHY_80211B_SHORT
from repro.sim.kernel import Simulator
from repro.topology.builders import chain_topology
from repro.topology.network import Topology

from helpers import SaturatedSender


def build_pair(distance=200.0):
    """Two nodes in range: 0 saturates toward 1."""
    topology = Topology()
    topology.add_nodes([(0.0, 0.0), (distance, 0.0)])
    sim = Simulator(seed=3)
    mac = DcfMac(sim, topology)
    sender = SaturatedSender(0, {1: 1})
    sink = SaturatedSender(1, {})
    mac.attach_node(0, sender.services())
    mac.attach_node(1, sink.services())
    mac.start()
    return sim, mac, sender, sink


def test_single_link_delivers_packets():
    sim, mac, sender, sink = build_pair()
    sim.run(until=1.0)
    assert len(sink.received) > 100


def test_single_link_throughput_near_saturation_rate():
    sim, mac, sender, sink = build_pair()
    sim.run(until=2.0)
    rate = len(sink.received) / 2.0
    expected = PHY_80211B_SHORT.saturation_rate(1024)
    assert rate == pytest.approx(expected, rel=0.10)


def test_dcf_run_is_reproducible():
    results = []
    for _ in range(2):
        sim, mac, sender, sink = build_pair()
        sim.run(until=0.5)
        results.append(len(sink.received))
    assert results[0] == results[1]


def test_out_of_range_receiver_drops_after_retries():
    topology = Topology()
    topology.add_nodes([(0.0, 0.0), (5000.0, 0.0)])
    sim = Simulator(seed=3)
    mac = DcfMac(sim, topology)
    sender = SaturatedSender(0, {1: 1})
    sink = SaturatedSender(1, {})
    mac.attach_node(0, sender.services())
    mac.attach_node(1, sink.services())
    mac.start()
    sim.run(until=1.0)
    assert not sink.received
    assert len(sender.dropped) > 0
    stats = mac.node_stats(0)
    # 8 RTS attempts (1 + 7 retries) per dropped packet.
    assert stats["rts_attempts"] >= 8 * stats["drops"]


def test_two_contending_links_share_fairly():
    # Senders 0 and 2 both in range of each other, sending to 1 and 3.
    topology = Topology()
    topology.add_nodes(
        [(0.0, 0.0), (200.0, 0.0), (100.0, 150.0), (100.0, 350.0)]
    )
    assert topology.senses(0, 2)
    sim = Simulator(seed=7)
    mac = DcfMac(sim, topology)
    s0 = SaturatedSender(0, {1: 1})
    s2 = SaturatedSender(2, {3: 2})
    sinks = {1: SaturatedSender(1, {}), 3: SaturatedSender(3, {})}
    mac.attach_node(0, s0.services())
    mac.attach_node(2, s2.services())
    for node_id, sink in sinks.items():
        mac.attach_node(node_id, sink.services())
    mac.start()
    sim.run(until=4.0)
    r1 = len(sinks[1].received)
    r3 = len(sinks[3].received)
    assert r1 > 100 and r3 > 100
    assert abs(r1 - r3) / max(r1, r3) < 0.15
    # Combined throughput should not exceed a single link's saturation.
    combined = (r1 + r3) / 4.0
    assert combined < PHY_80211B_SHORT.saturation_rate(1024, contenders=2) * 1.1


def test_asymmetric_hidden_terminal_starves_blind_sender():
    """A sender whose receiver sits inside a hidden transmitter's
    interference range starves under plain DCF.

    S1(0,0) -> R1(250,0); S2(600,0) -> R2(850,0).  S1 and S2 are out of
    carrier-sense range of each other (600 m > 550 m), S2's frames
    corrupt receptions at R1 (350 m), but nothing corrupts R2.  S1 thus
    collides blindly, doubles its window, and starves — the media-access
    unfairness the paper's Table 3 attributes to hidden terminals.
    """
    topology = Topology()
    topology.add_nodes([(0.0, 0.0), (250.0, 0.0), (600.0, 0.0), (850.0, 0.0)])
    assert not topology.senses(0, 2)
    assert topology.interferes(2, 1)
    sim = Simulator(seed=5)
    mac = DcfMac(sim, topology)
    s1 = SaturatedSender(0, {1: 1})
    s2 = SaturatedSender(2, {3: 2})
    r1 = SaturatedSender(1, {})
    r2 = SaturatedSender(3, {})
    for node_id, actor in [(0, s1), (1, r1), (2, s2), (3, r2)]:
        mac.attach_node(node_id, actor.services())
    mac.start()
    sim.run(until=5.0)
    starved = len(r1.received)
    dominant = len(r2.received)
    assert dominant > 2 * max(starved, 1), (starved, dominant)


def test_eifs_shifts_fairness_on_sense_only_chain():
    """On the 4-node chain, EIFS vs NAV deferral asymmetry skews the
    share between links (0,1) and (2,3); disabling EIFS restores
    near-equality.

    Node 2 decodes node 1's CTS frames and defers their full NAV, while
    node 0 only senses node 2's frames and defers the much shorter
    EIFS — so with EIFS on, link (0,1) wins more than its fair share.
    """
    chain = chain_topology(4, spacing=200.0)

    def run(use_eifs):
        sim = Simulator(seed=5)
        mac = DcfMac(sim, chain, config=DcfConfig(use_eifs=use_eifs))
        s0 = SaturatedSender(0, {1: 1})
        s2 = SaturatedSender(2, {3: 2})
        relay = SaturatedSender(1, {})
        sink = SaturatedSender(3, {})
        for node_id, actor in [(0, s0), (1, relay), (2, s2), (3, sink)]:
            mac.attach_node(node_id, actor.services())
        mac.start()
        sim.run(until=5.0)
        return len(relay.received), len(sink.received)

    with_eifs = run(True)
    without_eifs = run(False)
    ratio_with = with_eifs[0] / max(with_eifs[1], 1)
    ratio_without = without_eifs[0] / max(without_eifs[1], 1)
    # Without EIFS the links share within ~25%; with EIFS the skew is
    # materially larger.
    assert 0.75 < ratio_without < 1.3, ratio_without
    assert abs(ratio_with - 1.0) > abs(ratio_without - 1.0)


def test_occupancy_accounted_at_both_ends():
    sim, mac, sender, sink = build_pair()
    sim.run(until=1.0)
    occ_sender = mac.occupancy_snapshot(0)
    occ_sink = mac.occupancy_snapshot(1)
    # Sender holds RTS+DATA airtime, receiver CTS+ACK airtime, both
    # attributed to the directed link (0, 1).
    assert occ_sender[(0, 1)] > occ_sink[(0, 1)] > 0
    total = occ_sender[(0, 1)] + occ_sink[(0, 1)]
    assert total < 1.0  # cannot exceed wall-clock time
    # A saturated solo link should keep the channel mostly occupied.
    assert total > 0.6


def test_reset_occupancy():
    sim, mac, sender, sink = build_pair()
    sim.run(until=0.5)
    assert mac.occupancy_snapshot(0)
    mac.reset_occupancy(0)
    assert mac.occupancy_snapshot(0) == {}


def test_broadcast_reaches_all_neighbors():
    chain = chain_topology(3, spacing=200.0)
    sim = Simulator(seed=2)
    mac = DcfMac(sim, chain)
    actors = {node_id: SaturatedSender(node_id, {}) for node_id in range(3)}
    for node_id, actor in actors.items():
        mac.attach_node(node_id, actor.services())
    mac.start()
    mac.send_broadcast(1, {"hello": True})
    sim.run(until=0.1)
    assert actors[0].broadcasts == [({"hello": True}, 1)]
    assert actors[2].broadcasts == [({"hello": True}, 1)]
    assert not actors[1].broadcasts


def test_overhear_carries_piggyback():
    topology = Topology()
    topology.add_nodes([(0.0, 0.0), (200.0, 0.0), (100.0, 170.0)])
    sim = Simulator(seed=2)
    mac = DcfMac(sim, topology)
    sender = SaturatedSender(0, {1: 1})
    sink = SaturatedSender(1, {})
    bystander = SaturatedSender(2, {})
    mac.attach_node(0, sender.services())
    mac.attach_node(1, sink.services())
    mac.attach_node(2, bystander.services())
    mac.start()
    sim.run(until=0.2)
    # The bystander decodes frames from both 0 and 1.
    senders_heard = {sender_id for sender_id, _ in bystander.overheard}
    assert senders_heard == {0, 1}


def test_every_receiver_overhears_the_frames_own_map_unchanged():
    # The piggyback map is the frame's own: one object, shared by every
    # receiver and read-only, so the MAC hands it over without a copy.
    topology = Topology()
    topology.add_nodes([(0.0, 0.0), (200.0, 0.0), (100.0, 170.0)])
    sim = Simulator(seed=2)
    mac = DcfMac(sim, topology)
    gate = OverhearingGate()
    sent = []

    def piggyback():
        sent.append({7: True, 9: False})
        return sent[-1]

    def gated(actor):
        def on_overhear(sender_id, states):
            actor.overheard.append((sender_id, states))
            gate.update(sender_id, states, sim.now)

        return on_overhear

    actors = [SaturatedSender(0, {1: 1}), SaturatedSender(1, {}), SaturatedSender(2, {})]
    for actor in actors:
        services = actor.services()
        if actor.node_id == 0:
            services.make_piggyback = piggyback
        else:
            services.on_overhear = gated(actor)
        mac.attach_node(actor.node_id, services)
    mac.start()
    sim.run(until=0.2)

    heard = [
        {id(states) for sender_id, states in actor.overheard if sender_id == 0}
        for actor in actors[1:]
    ]
    assert heard[0] and heard[1]
    assert heard[0] | heard[1] <= {id(states) for states in sent}
    # The sink and the bystander decoded the same frames: same objects.
    assert heard[0] & heard[1]
    assert all(states == {7: True, 9: False} for states in sent)
    assert gate.known_state(0, 9) is False


def test_duplicate_attach_rejected():
    sim = Simulator()
    mac = DcfMac(sim, chain_topology(2))
    actor = SaturatedSender(0, {})
    mac.attach_node(0, actor.services())
    with pytest.raises(MacError):
        mac.attach_node(0, actor.services())


def test_unattached_node_queries_rejected():
    sim = Simulator()
    mac = DcfMac(sim, chain_topology(2))
    with pytest.raises(MacError):
        mac.occupancy_snapshot(0)
    with pytest.raises(MacError):
        mac.notify_backlog(5)
