"""The local-room probe agrees with local admission, for every policy.

A traffic source asks its buffer policy's ``local_room(flow, dest)``
before it builds a packet, and makes no admission call when the answer
is no.  That is invisible only if the probe says "no room" exactly when
local admission would refuse, and if a refusal changes nothing.  Under
any interleaving of local and forwarded admissions, services, drains
and gate flips, each policy's probe must match its admission, and a
refused admission must leave the queues, the per-link and total
backlog counts, the drop ledger and the fullness meters as they were.
The per-destination meters must also read full exactly while their
queue is at capacity, which is what lets them move on transitions only.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.buffers.backpressure import OracleGate
from repro.buffers.queues import (
    SHARED_QUEUE_KEY,
    PerDestinationBuffer,
    PerFlowBuffer,
    SharedBackpressureBuffer,
    SharedFifoBuffer,
)
from repro.flows.packet import Packet
from repro.telemetry import Telemetry

NODE = 0
#: flow -> destination: flows 1 and 3 share a destination, so the
#: per-flow and per-destination keys disagree.
DEST_OF = {1: 1, 2: 2, 3: 1, 4: 3}
#: destination -> next hop.
NEXT_HOP = {1: 10, 2: 11, 3: 10}
FLOWS = st.sampled_from(sorted(DEST_OF))
HOPS = st.sampled_from([10, 11, 12])  # 12: no queue ever


class ProbeMatchesAdmission(RuleBasedStateMachine):
    """Shared rules; each subclass builds one policy."""

    def make_buffer(self, gate):
        raise NotImplementedError

    def __init__(self):
        super().__init__()
        self.blocked: set[tuple[int, int]] = set()  # (next hop, gate key) shut
        self.buffer = self.make_buffer(
            OracleGate(lambda hop, key: (hop, key) not in self.blocked)
        )
        self.now = 0.0
        self.serial = 0

    def packet(self, flow: int) -> Packet:
        self.serial += 1
        self.now += 0.001
        return Packet(flow, NODE, DEST_OF[flow], 1024, self.now, self.serial)

    def state(self) -> tuple:
        buffer = self.buffer
        meters = {}
        if isinstance(buffer, PerDestinationBuffer):
            meters = {
                dest: (meter._full_since, meter._accumulated)
                for dest, meter in buffer._meters.items()
            }
        return (
            [id(packet) for packet in buffer.queued_packets()],
            buffer.backlog(),
            {a_link: n for a_link, n in buffer.eligible_links(self.now).items() if n},
            buffer.drops,
            buffer.overshoot,
            meters,
        )

    @rule(flow=FLOWS)
    def admit_local(self, flow):
        packet = self.packet(flow)
        room = self.buffer.local_room(flow, DEST_OF[flow])
        before = self.state()
        accepted = self.buffer.admit_local_at(packet, self.now)
        assert accepted == room
        if not accepted:
            assert self.state() == before

    @rule(flow=FLOWS)
    def admit_forwarded(self, flow):
        packet = self.packet(flow)
        self.buffer.admit_forwarded_at(packet, self.now)

    @rule()
    def dequeue(self):
        self.buffer.dequeue(self.now)

    @rule(hop=HOPS)
    def dequeue_for(self, hop):
        self.buffer.dequeue_for(hop, self.now)

    @rule()
    def drain(self):
        self.buffer.drain(self.now)

    @rule(flow=FLOWS)
    def flip_gate(self, flow):
        dest = DEST_OF[flow]
        self.blocked ^= {(NEXT_HOP[dest], dest), (NEXT_HOP[dest], SHARED_QUEUE_KEY)}

    @invariant()
    def meters_read_full_exactly_at_capacity(self):
        buffer = self.buffer
        if isinstance(buffer, PerDestinationBuffer):
            for dest, meter in buffer._meters.items():
                full = buffer.queue_length(dest) >= buffer.capacity
                assert (meter._full_since is not None) == full


class SharedFifo(ProbeMatchesAdmission):
    def make_buffer(self, gate):
        return SharedFifoBuffer(NODE, NEXT_HOP.__getitem__, capacity=4)


class PerFlow(ProbeMatchesAdmission):
    def make_buffer(self, gate):
        return PerFlowBuffer(NODE, NEXT_HOP.__getitem__, per_flow_capacity=2)


class SharedBackpressure(ProbeMatchesAdmission):
    def make_buffer(self, gate):
        return SharedBackpressureBuffer(NODE, NEXT_HOP.__getitem__, gate, capacity=4)


class PerDestination(ProbeMatchesAdmission):
    def make_buffer(self, gate):
        return PerDestinationBuffer(NODE, NEXT_HOP.__getitem__, gate, per_dest_capacity=3)


class PerDestinationWithTelemetry(ProbeMatchesAdmission):
    """Telemetry on: the meters move through the recording branch."""

    def make_buffer(self, gate):
        return PerDestinationBuffer(
            NODE, NEXT_HOP.__getitem__, gate, per_dest_capacity=3, telemetry=Telemetry()
        )


TestSharedFifo = SharedFifo.TestCase
TestPerFlow = PerFlow.TestCase
TestSharedBackpressure = SharedBackpressure.TestCase
TestPerDestination = PerDestination.TestCase
TestPerDestinationWithTelemetry = PerDestinationWithTelemetry.TestCase
