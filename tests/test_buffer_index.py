"""Differential test of the virtual-link queue core's next-hop index.

A keyed buffer serves a link by walking only the keys routed over it
and reports maintained backlog counts; before, it sorted and scanned
every queue on every call.  The scan survives in ``tests/helpers.py``
as the oracle: under any interleaving of admissions, services, drains
and gate flips, the per-destination and the per-flow buffer must each
hand out the same packet as the scan, move the node-wide round-robin
pointer the same way and report the same counts.
"""

from pathlib import Path

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.buffers.backpressure import OracleGate
from repro.buffers.queues import PerDestinationBuffer, PerFlowBuffer
from repro.flows.packet import Packet

from helpers import (
    scan_dequeue,
    scan_dequeue_for,
    scan_eligible_links,
    scan_has_pending,
)

NODE = 0
#: Five destinations over three next hops, interleaved so that neither
#: a hop's destinations nor the rotation after the pointer is contiguous.
NEXT_HOP = {1: 10, 2: 11, 3: 10, 4: 12, 5: 11}
#: flow -> destination: seven flows, two pairs sharing a destination.
DEST_OF = {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 1, 7: 5}
FLOWS = st.sampled_from(sorted(DEST_OF))
HOPS = st.sampled_from(sorted(set(NEXT_HOP.values())) + [13])  # 13: no queue ever


class IndexedBufferMatchesTheScan(RuleBasedStateMachine):
    """Per-destination queues; the per-flow subclass below re-keys them."""

    def make_buffer(self, gate):
        return PerDestinationBuffer(NODE, NEXT_HOP.__getitem__, gate, per_dest_capacity=3)

    def key(self, packet: Packet) -> int:
        return packet.destination

    def __init__(self):
        super().__init__()
        self.blocked: set[tuple[int, int]] = set()  # (next hop, key) gated shut
        self.buffer = self.make_buffer(
            OracleGate(lambda hop, key: (hop, key) not in self.blocked)
        )
        self.now = 0.0
        self.serial = 0

    def packet(self, flow: int) -> Packet:
        self.serial += 1
        self.now += 0.001
        return Packet(flow, NODE, DEST_OF[flow], 1024, self.now, self.serial)

    def room(self, packet: Packet) -> bool:
        return self.buffer.queue_length(self.key(packet)) < self.buffer.capacity

    @rule(flow=FLOWS)
    def admit_local(self, flow):
        packet = self.packet(flow)
        room = self.room(packet)
        assert self.buffer.admit_local_at(packet, self.now) == room

    @rule(flow=FLOWS)
    def admit_forwarded(self, flow):
        packet = self.packet(flow)
        room = self.room(packet)
        accepted = self.buffer.admit_forwarded_at(packet, self.now)
        assert accepted == (room or isinstance(self.buffer, PerDestinationBuffer))

    @rule()
    def dequeue(self):
        expected = scan_dequeue(self.buffer, self.now)
        served = self.buffer.dequeue(self.now)
        if expected is None:
            assert served is None
        else:
            assert served is not None
            assert served[0] is expected[0] and served[1] == expected[1]
            assert self.buffer._last_key == self.key(served[0])

    @rule(hop=HOPS)
    def dequeue_for(self, hop):
        pointer = self.buffer._last_key
        expected = scan_dequeue_for(self.buffer, hop, self.now)
        served = self.buffer.dequeue_for(hop, self.now)
        assert served is expected
        assert self.buffer._last_key == (pointer if served is None else self.key(served))

    @rule()
    def drain(self):
        queued = self.buffer.queued_packets()
        assert self.buffer.drain(self.now) == queued
        assert not self.buffer.has_pending()

    @rule(flow=FLOWS)
    def flip_gate(self, flow):
        dest = DEST_OF[flow]
        self.blocked ^= {(NEXT_HOP[dest], dest)}

    @invariant()
    def counts_match_a_recount(self):
        live = self.buffer.eligible_links(self.now)
        assert {a: n for a, n in live.items() if n} == scan_eligible_links(self.buffer)
        assert all(n >= 0 for n in live.values())
        assert self.buffer.has_pending() == scan_has_pending(self.buffer)
        assert self.buffer.backlog() == len(self.buffer.queued_packets())


class IndexedPerFlowBufferMatchesTheScan(IndexedBufferMatchesTheScan):
    """Per-flow queues: ungated, and a full queue drops a forwarded packet."""

    def make_buffer(self, gate):
        return PerFlowBuffer(NODE, NEXT_HOP.__getitem__, per_flow_capacity=2)

    def key(self, packet: Packet) -> int:
        return packet.flow_id


TestIndexedBufferMatchesTheScan = IndexedBufferMatchesTheScan.TestCase
TestIndexedPerFlowBufferMatchesTheScan = IndexedPerFlowBufferMatchesTheScan.TestCase


def test_the_starvation_cases_are_the_only_strict_xfails():
    # The index keeps the node-wide pointer, so the starvation it
    # causes (ROADMAP item 1) is still there and still pinned, on seed
    # 375 and on its minimal four-node chain: nothing else in the suite
    # may be expected to fail.
    tests = Path(__file__).parent
    marks = {
        path.name: path.read_text().count("pytest.mark.xfail")
        for path in tests.glob("test_*.py")
        if path != Path(__file__)
    }
    assert {name for name, count in marks.items() if count} == {"test_random_networks.py"}
    assert marks["test_random_networks.py"] == 2
    source = (tests / "test_random_networks.py").read_text()
    marked = []
    for chunk in source.split("@pytest.mark.xfail")[1:]:
        assert chunk.index("strict=True") < chunk.index("def test_")
        test = chunk[chunk.index("def test_") :]
        marked.append(test[: test.index("(")])
    assert marked == [
        "def test_gmp_keeps_every_flow_alive_on_random_scenario_375",
        "def test_gmp_keeps_every_flow_alive_on_a_four_node_chain",
    ]
