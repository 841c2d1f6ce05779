"""Unit tests for frames and the channel's collision semantics.

These drive the channel directly with scripted radios — no DCF on
top — so the interference model is verified in isolation.
"""

import pytest

from repro.errors import MacError
from repro.mac.channel import Channel
from repro.mac.frames import Frame, FrameKind
from repro.sim.kernel import Simulator
from repro.topology.network import Topology


class ScriptRadio:
    """Records every channel callback."""

    def __init__(self):
        self.events = []

    def on_busy_start(self):
        self.events.append("busy+")

    def on_busy_end(self):
        self.events.append("busy-")

    def on_frame_received(self, frame):
        self.events.append(("rx", frame.kind, frame.sender))

    def on_frame_corrupted(self):
        self.events.append("corrupt")

    def on_tx_end(self, frame):
        self.events.append(("tx_end", frame.kind))

    def received(self):
        return [event for event in self.events if isinstance(event, tuple) and event[0] == "rx"]


def data_frame(sender, receiver, duration=0.001):
    return Frame(
        kind=FrameKind.DATA,
        sender=sender,
        receiver=receiver,
        duration=duration,
    )


def setup(positions, tx_range=250.0, cs_range=550.0):
    topology = Topology(tx_range=tx_range, cs_range=cs_range)
    topology.add_nodes(positions)
    sim = Simulator(seed=0)
    channel = Channel(sim, topology)
    radios = {}
    for node_id in topology.node_ids:
        radios[node_id] = ScriptRadio()
        channel.register(node_id, radios[node_id])
    return sim, channel, radios


def test_frame_helpers():
    frame = data_frame(1, 2)
    assert (frame.sender, frame.receiver) == (1, 2)
    assert "data 1->2" in frame.describe()


def test_clean_delivery_in_range():
    sim, channel, radios = setup([(0.0, 0.0), (200.0, 0.0)])
    channel.transmit(0, data_frame(0, 1))
    sim.run(until=0.01)
    assert radios[1].received() == [("rx", FrameKind.DATA, 0)]
    assert ("tx_end", FrameKind.DATA) in radios[0].events


def test_sensed_but_undecodable_reports_corruption():
    sim, channel, radios = setup([(0.0, 0.0), (400.0, 0.0)])
    channel.transmit(0, data_frame(0, 1))
    sim.run(until=0.01)
    assert "corrupt" in radios[1].events
    assert not radios[1].received()


def test_out_of_sense_range_hears_nothing():
    sim, channel, radios = setup([(0.0, 0.0), (600.0, 0.0)])
    channel.transmit(0, data_frame(0, 1))
    sim.run(until=0.01)
    assert radios[1].events == []


def test_overlapping_transmissions_collide_at_receiver():
    # 0 and 2 both within interference range of 1.
    sim, channel, radios = setup([(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)])
    channel.transmit(0, data_frame(0, 1))
    sim.call_later(0.0002, lambda: channel.transmit(2, data_frame(2, 1)), tag="test")
    sim.run(until=0.01)
    assert not radios[1].received(), "both frames must be corrupted"
    assert radios[1].events.count("corrupt") == 2


def test_later_transmission_corrupts_earlier_one():
    # The second transmission starts inside the first one's airtime.
    sim, channel, radios = setup([(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)])
    channel.transmit(0, data_frame(0, 1, duration=0.002))
    sim.call_later(
        0.0018, lambda: channel.transmit(2, data_frame(2, 1, duration=0.0001)), tag="test"
    )
    sim.run(until=0.01)
    assert not radios[1].received()


def test_far_apart_transmissions_are_parallel():
    # Two pairs far from each other: spatial reuse works.
    sim, channel, radios = setup(
        [(0.0, 0.0), (200.0, 0.0), (2000.0, 0.0), (2200.0, 0.0)]
    )
    channel.transmit(0, data_frame(0, 1))
    channel.transmit(2, data_frame(2, 3))
    sim.run(until=0.01)
    assert radios[1].received() == [("rx", FrameKind.DATA, 0)]
    assert radios[3].received() == [("rx", FrameKind.DATA, 2)]


def test_transmitting_node_cannot_receive():
    sim, channel, radios = setup([(0.0, 0.0), (200.0, 0.0)])
    channel.transmit(0, data_frame(0, 1, duration=0.002))
    sim.call_later(
        0.0005, lambda: channel.transmit(1, data_frame(1, 0, duration=0.0005)), tag="test"
    )
    sim.run(until=0.01)
    # Node 1 was transmitting during 0's frame: no clean reception.
    assert not radios[1].received()
    # Node 0 was transmitting during 1's entire frame: also corrupted.
    assert not radios[0].received()


def test_busy_transitions_are_balanced():
    sim, channel, radios = setup([(0.0, 0.0), (200.0, 0.0)])
    channel.transmit(0, data_frame(0, 1))
    sim.run(until=0.01)
    events = radios[1].events
    assert events.count("busy+") == events.count("busy-") == 1


def test_double_transmit_rejected():
    sim, channel, radios = setup([(0.0, 0.0), (200.0, 0.0)])
    channel.transmit(0, data_frame(0, 1, duration=0.01))
    with pytest.raises(MacError):
        channel.transmit(0, data_frame(0, 1))


def test_unregistered_sender_rejected():
    sim, channel, radios = setup([(0.0, 0.0), (200.0, 0.0)])
    with pytest.raises(MacError):
        channel.transmit(9, data_frame(9, 0))


def test_duplicate_registration_rejected():
    sim, channel, radios = setup([(0.0, 0.0), (200.0, 0.0)])
    with pytest.raises(MacError):
        channel.register(0, ScriptRadio())


def test_zero_duration_frame_rejected():
    sim, channel, radios = setup([(0.0, 0.0), (200.0, 0.0)])
    with pytest.raises(MacError):
        channel.transmit(0, data_frame(0, 1, duration=0.0))


def test_channel_statistics():
    sim, channel, radios = setup([(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)])
    channel.transmit(0, data_frame(0, 1))
    sim.run(until=0.01)
    assert channel.frames_sent == 1
    # Node 1 decodes; node 2 senses but cannot decode.
    assert channel.frames_delivered == 1
    assert channel.frames_corrupted == 1
