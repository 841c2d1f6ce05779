"""Unit tests for queueing policies."""

import pytest

from repro.buffers.backpressure import OracleGate
from repro.buffers.queues import (
    PerDestinationBuffer,
    PerFlowBuffer,
    SHARED_QUEUE_KEY,
    SharedBackpressureBuffer,
    SharedFifoBuffer,
)
from repro.errors import BufferError_
from repro.flows.packet import Packet


def make_packet(flow_id=1, dest=9, source=0):
    return Packet(
        flow_id=flow_id, source=source, destination=dest, size_bytes=1024, created_at=0.0
    )


def next_hop_via_5(dest):
    return 5


class TestSharedFifo:
    def test_fifo_order(self):
        buf = SharedFifoBuffer(0, next_hop_via_5, capacity=10)
        first, second = make_packet(flow_id=1), make_packet(flow_id=2)
        buf.admit_local(first)
        buf.admit_local(second)
        packet, hop = buf.dequeue(0.0)
        assert packet is first and hop == 5
        assert buf.dequeue(0.0)[0] is second
        assert buf.dequeue(0.0) is None

    def test_local_refused_when_full(self):
        buf = SharedFifoBuffer(0, next_hop_via_5, capacity=2)
        assert buf.admit_local(make_packet())
        assert buf.admit_local(make_packet())
        assert not buf.admit_local(make_packet())
        assert buf.backlog() == 2

    def test_forwarded_overwrites_tail_when_full(self):
        buf = SharedFifoBuffer(0, next_hop_via_5, capacity=2)
        keep = make_packet(flow_id=1)
        victim = make_packet(flow_id=2)
        arrival = make_packet(flow_id=3)
        buf.admit_local(keep)
        buf.admit_local(victim)
        assert buf.admit_forwarded(arrival)
        assert buf.drops == 1
        assert buf.dequeue(0.0)[0] is keep
        assert buf.dequeue(0.0)[0] is arrival

    def test_dequeue_for_filters_by_next_hop(self):
        hops = {1: 10, 2: 20}
        buf = SharedFifoBuffer(0, lambda dest: hops[dest], capacity=10)
        a = make_packet(flow_id=1, dest=1)
        b = make_packet(flow_id=2, dest=2)
        buf.admit_local(a)
        buf.admit_local(b)
        assert buf.dequeue_for(20, 0.0) is b
        assert buf.dequeue_for(20, 0.0) is None
        assert buf.eligible_links(0.0) == {(0, 10): 1}

    def test_capacity_validated(self):
        with pytest.raises(BufferError_):
            SharedFifoBuffer(0, next_hop_via_5, capacity=0)


class TestPerFlow:
    def test_round_robin_service(self):
        buf = PerFlowBuffer(0, next_hop_via_5, per_flow_capacity=10)
        for flow_id in (1, 2, 1, 2, 1):
            buf.admit_local(make_packet(flow_id=flow_id))
        served = [buf.dequeue(0.0)[0].flow_id for _ in range(5)]
        assert served == [1, 2, 1, 2, 1]

    def test_per_flow_cap_drops(self):
        buf = PerFlowBuffer(0, next_hop_via_5, per_flow_capacity=2)
        assert buf.admit_local(make_packet(flow_id=1))
        assert buf.admit_local(make_packet(flow_id=1))
        assert not buf.admit_forwarded(make_packet(flow_id=1))
        assert buf.drops == 1
        # Other flows unaffected.
        assert buf.admit_local(make_packet(flow_id=2))

    def test_backlog_counts_all_queues(self):
        buf = PerFlowBuffer(0, next_hop_via_5)
        buf.admit_local(make_packet(flow_id=1))
        buf.admit_local(make_packet(flow_id=2))
        assert buf.backlog() == 2
        assert buf.has_pending()


class TestPerDestination:
    def make(self, allow=True, capacity=3):
        gate = OracleGate(lambda neighbor, dest: allow)
        return PerDestinationBuffer(
            0, lambda dest: dest + 100, gate, per_dest_capacity=capacity
        )

    def test_local_refused_when_dest_queue_full(self):
        buf = self.make(capacity=2)
        assert buf.admit_local_at(make_packet(dest=1), 0.0)
        assert buf.admit_local_at(make_packet(dest=1), 0.0)
        assert not buf.admit_local_at(make_packet(dest=1), 0.0)
        # A different destination still has room.
        assert buf.admit_local_at(make_packet(dest=2), 0.0)

    def test_forwarded_always_accepted_counts_overshoot(self):
        buf = self.make(capacity=1)
        buf.admit_forwarded_at(make_packet(dest=1), 0.0)
        buf.admit_forwarded_at(make_packet(dest=1), 0.0)
        assert buf.overshoot == 1
        assert buf.queue_length(1) == 2

    def test_legacy_admit_raises(self):
        buf = self.make()
        with pytest.raises(BufferError_):
            buf.admit_local(make_packet())
        with pytest.raises(BufferError_):
            buf.admit_forwarded(make_packet())

    def test_gate_blocks_dequeue(self):
        allow = {"value": False}
        gate = OracleGate(lambda neighbor, dest: allow["value"])
        buf = PerDestinationBuffer(0, lambda dest: 5, gate, per_dest_capacity=3)
        buf.admit_local_at(make_packet(dest=1), 0.0)
        assert buf.dequeue(0.0) is None
        assert buf.has_pending()
        allow["value"] = True
        packet, hop = buf.dequeue(0.0)
        assert hop == 5

    def test_round_robin_across_destinations(self):
        buf = self.make()
        for dest in (1, 2, 1, 2):
            buf.admit_local_at(make_packet(dest=dest), 0.0)
        served = [buf.dequeue(0.0)[0].destination for _ in range(4)]
        assert served == [1, 2, 1, 2]

    def test_one_round_robin_pointer_per_node_not_per_next_hop(self):
        # Serving one link moves the pointer the other link's service
        # order starts from (ROADMAP item 1 would change exactly this).
        hops = {1: 10, 2: 11, 3: 10}
        buf = PerDestinationBuffer(
            0, hops.__getitem__, OracleGate(lambda neighbor, dest: True)
        )
        for dest in (1, 2, 3):
            buf.admit_local_at(make_packet(dest=dest), 0.0)
        assert buf.dequeue_for(11, 0.0).destination == 2
        # After 2 comes 3, then the wrap to 1; a pointer per next hop
        # would have started link (0, 10) at destination 1.
        assert buf.dequeue_for(10, 0.0).destination == 3
        assert buf.dequeue_for(10, 0.0).destination == 1
        assert buf.dequeue_for(10, 0.0) is None
        assert buf.eligible_links(0.0) == {(0, 10): 0, (0, 11): 0}
        assert not buf.has_pending()

    def test_next_hop_is_asked_once_per_destination(self):
        asked = []

        def next_hop(dest):
            asked.append(dest)
            return dest + 100

        buf = PerDestinationBuffer(
            0, next_hop, OracleGate(lambda neighbor, dest: True)
        )
        for _ in range(3):
            for dest in (1, 2):
                buf.admit_forwarded_at(make_packet(dest=dest), 0.0)
        while buf.has_pending():
            buf.eligible_links(0.0)
            assert buf.dequeue_for(101, 0.0) or buf.dequeue(0.0)
        assert sorted(asked) == [1, 2]

    def test_eligible_links_reports_raw_backlog(self):
        buf = self.make(allow=False)
        buf.admit_local_at(make_packet(dest=1), 0.0)
        buf.admit_local_at(make_packet(dest=1), 0.0)
        # Demand is visible even while the gate blocks.
        assert buf.eligible_links(0.0) == {(0, 101): 2}
        assert buf.dequeue_for(101, 0.0) is None

    def test_piggyback_states(self):
        buf = self.make(capacity=1)
        buf.admit_local_at(make_packet(dest=1), 0.0)
        assert buf.piggyback_states() == {1: False}
        buf.dequeue(0.0)
        assert buf.piggyback_states() == {1: True}

    def test_fullness_meter_tracks_full_time(self):
        buf = self.make(allow=False, capacity=1)
        buf.admit_local_at(make_packet(dest=1), 0.0)
        assert buf.fullness(1, 10.0) == pytest.approx(1.0)
        buf.reset_meters(10.0)
        assert buf.fullness(1, 20.0) == pytest.approx(1.0)

    def test_fullness_fraction_partial(self):
        allow = {"value": False}
        gate = OracleGate(lambda neighbor, dest: allow["value"])
        buf = PerDestinationBuffer(0, lambda dest: 5, gate, per_dest_capacity=1)
        buf.admit_local_at(make_packet(dest=1), 0.0)  # full from t=0
        allow["value"] = True
        buf.dequeue(5.0)  # empty from t=5
        assert buf.fullness(1, 10.0) == pytest.approx(0.5)

    def test_served_destinations(self):
        buf = self.make()
        buf.admit_local_at(make_packet(dest=3), 0.0)
        buf.admit_local_at(make_packet(dest=1), 0.0)
        assert buf.served_destinations() == [1, 3]


class TestSharedBackpressure:
    def test_head_of_line_blocking(self):
        allow = {10: False, 20: True}
        gate = OracleGate(lambda neighbor, dest: allow[neighbor])
        hops = {1: 10, 2: 20}
        buf = SharedBackpressureBuffer(0, lambda dest: hops[dest], gate, capacity=5)
        buf.admit_local(make_packet(dest=1))  # head, blocked next hop
        buf.admit_local(make_packet(dest=2))  # would be sendable
        assert buf.dequeue(0.0) is None, "head of line must block strictly"
        allow[10] = True
        assert buf.dequeue(0.0)[1] == 10

    def test_local_refused_when_full(self):
        gate = OracleGate(lambda neighbor, dest: True)
        buf = SharedBackpressureBuffer(0, next_hop_via_5, gate, capacity=1)
        assert buf.admit_local(make_packet())
        assert not buf.admit_local(make_packet())
        buf.admit_forwarded(make_packet())
        assert buf.overshoot == 1

    def test_piggyback_single_shared_bit(self):
        gate = OracleGate(lambda neighbor, dest: True)
        buf = SharedBackpressureBuffer(0, next_hop_via_5, gate, capacity=1)
        assert buf.piggyback_states() == {SHARED_QUEUE_KEY: True}
        buf.admit_local(make_packet())
        assert buf.piggyback_states() == {SHARED_QUEUE_KEY: False}
