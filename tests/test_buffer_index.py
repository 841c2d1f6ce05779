"""Differential test of PerDestinationBuffer's next-hop index.

The buffer serves a link by walking only the destinations routed over
it and reports maintained backlog counts; before, it sorted and scanned
every queue on every call.  The scan survives in ``tests/helpers.py``
as the oracle: under any interleaving of admissions, services, drains
and gate flips the indexed buffer must hand out the same packet, move
the node-wide round-robin pointer the same way and report the same
counts.
"""

from pathlib import Path

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.buffers.backpressure import OracleGate
from repro.buffers.queues import PerDestinationBuffer
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
DESTS = st.sampled_from(sorted(NEXT_HOP))
HOPS = st.sampled_from(sorted(set(NEXT_HOP.values())) + [13])  # 13: no queue ever


class IndexedBufferMatchesTheScan(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.blocked: set[tuple[int, int]] = set()  # (next hop, dest) gated shut
        self.buffer = PerDestinationBuffer(
            NODE,
            NEXT_HOP.__getitem__,
            OracleGate(lambda hop, dest: (hop, dest) not in self.blocked),
            per_dest_capacity=3,
        )
        self.now = 0.0
        self.serial = 0

    def packet(self, dest: int) -> Packet:
        self.serial += 1
        self.now += 0.001
        return Packet(
            flow_id=self.serial,  # unique: identifies the packet object
            source=NODE,
            destination=dest,
            size_bytes=1024,
            created_at=self.now,
        )

    @rule(dest=DESTS)
    def admit_local(self, dest):
        room = self.buffer.queue_length(dest) < self.buffer.per_dest_capacity
        assert self.buffer.admit_local_at(self.packet(dest), self.now) == room

    @rule(dest=DESTS)
    def admit_forwarded(self, dest):
        assert self.buffer.admit_forwarded_at(self.packet(dest), self.now)

    @rule()
    def dequeue(self):
        expected = scan_dequeue(self.buffer, self.now)
        served = self.buffer.dequeue(self.now)
        if expected is None:
            assert served is None
        else:
            assert served is not None
            assert served[0] is expected[0] and served[1] == expected[1]
            assert self.buffer._last_dest == served[0].destination

    @rule(hop=HOPS)
    def dequeue_for(self, hop):
        pointer = self.buffer._last_dest
        expected = scan_dequeue_for(self.buffer, hop, self.now)
        served = self.buffer.dequeue_for(hop, self.now)
        assert served is expected
        assert self.buffer._last_dest == (
            pointer if served is None else served.destination
        )

    @rule()
    def drain(self):
        queued = self.buffer.queued_packets()
        assert self.buffer.drain(self.now) == queued
        assert not self.buffer.has_pending()

    @rule(dest=DESTS)
    def flip_gate(self, dest):
        self.blocked ^= {(NEXT_HOP[dest], dest)}

    @invariant()
    def counts_match_a_recount(self):
        live = self.buffer.eligible_links(self.now)
        assert {a: n for a, n in live.items() if n} == scan_eligible_links(self.buffer)
        assert all(n >= 0 for n in live.values())
        assert self.buffer.has_pending() == scan_has_pending(self.buffer)
        assert self.buffer.backlog() == len(self.buffer.queued_packets())


TestIndexedBufferMatchesTheScan = IndexedBufferMatchesTheScan.TestCase


def test_seed_375_is_still_the_one_strict_xfail():
    # The index keeps the node-wide pointer, so the starvation it
    # causes (ROADMAP item 1) is still there and still pinned: nothing
    # else in the suite may be expected to fail.
    tests = Path(__file__).parent
    marks = {
        path.name: path.read_text().count("pytest.mark.xfail")
        for path in tests.glob("test_*.py")
        if path != Path(__file__)
    }
    assert {name for name, count in marks.items() if count} == {"test_random_networks.py"}
    assert marks["test_random_networks.py"] == 1
    source = (tests / "test_random_networks.py").read_text()
    mark = source[source.index("@pytest.mark.xfail") :]
    assert mark.index("strict=True") < mark.index("def test_")
    assert mark[mark.index("def test_") :].startswith(
        "def test_gmp_keeps_every_flow_alive_on_random_scenario_375("
    )
