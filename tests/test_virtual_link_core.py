"""Differential test of the virtual-link queue core against the two
policies it replaced.

``PerDestinationBuffer`` and ``PerFlowBuffer`` are thin subclasses of
one keyed queue core.  Before, they were two classes with two
round-robins; those classes survive verbatim in ``tests/helpers.py`` as
the oracle (with one declared change: the per-flow drain keeps its
queues).  Each machine below feeds the very same packet objects to a
core subclass and to its oracle, under any interleaving of local and
forwarded admissions, services, gate flips, meter resets and drains.
The two must refuse and serve the same packets (by identity) and agree
on the drop ledger, the overshoot count, the non-zero per-link demand,
the backlog, the queued packets, every local-room probe and every
fullness meter's reading.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.buffers.backpressure import OracleGate
from repro.buffers.queues import PerDestinationBuffer, PerFlowBuffer
from repro.flows.packet import Packet
from repro.telemetry import Telemetry

from helpers import OraclePerDestinationBuffer, OraclePerFlowBuffer

NODE = 0
#: destination -> next hop: five destinations over three hops,
#: interleaved so that no hop's keys are contiguous in the rotation.
NEXT_HOP = {1: 10, 2: 11, 3: 10, 4: 12, 5: 11}
#: flow -> destination: seven flows, two pairs sharing a destination.
DEST_OF = {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 1, 7: 5}
FLOWS = st.sampled_from(sorted(DEST_OF))
HOPS = st.sampled_from([10, 11, 12, 13])  # 13: no queue ever


def _nonzero(links: dict) -> dict:
    return {a_link: n for a_link, n in links.items() if n}


class CoreMatchesTheOracle(RuleBasedStateMachine):
    """Shared rules; each subclass builds the two buffers."""

    def make_buffers(self, gate):
        raise NotImplementedError

    def __init__(self):
        super().__init__()
        self.blocked: set[tuple[int, int]] = set()  # (next hop, dest) gated shut
        gate = OracleGate(lambda hop, dest: (hop, dest) not in self.blocked)
        self.core, self.oracle = self.make_buffers(gate)
        self.now = 0.0
        self.serial = 0

    def packet(self, flow: int) -> Packet:
        self.serial += 1
        self.now += 0.001
        return Packet(flow, NODE, DEST_OF[flow], 1024, self.now, self.serial)

    @rule(flow=FLOWS)
    def admit_local(self, flow):
        packet = self.packet(flow)
        accepted = self.core.admit_local_at(packet, self.now)
        assert accepted == self.oracle.admit_local_at(packet, self.now)

    @rule(flow=FLOWS)
    def admit_forwarded(self, flow):
        packet = self.packet(flow)
        accepted = self.core.admit_forwarded_at(packet, self.now)
        assert accepted == self.oracle.admit_forwarded_at(packet, self.now)

    @rule()
    def dequeue(self):
        served, expected = self.core.dequeue(self.now), self.oracle.dequeue(self.now)
        if expected is None:
            assert served is None
        else:
            assert served is not None
            assert served[0] is expected[0] and served[1] == expected[1]

    @rule(hop=HOPS)
    def dequeue_for(self, hop):
        assert self.core.dequeue_for(hop, self.now) is self.oracle.dequeue_for(hop, self.now)

    @rule(flow=FLOWS)
    def flip_gate(self, flow):
        dest = DEST_OF[flow]
        self.blocked ^= {(NEXT_HOP[dest], dest)}

    @rule(dt=st.sampled_from([0.0, 0.01, 0.5]))
    def advance(self, dt):
        self.now += dt

    @rule()
    def drain(self):
        lost = self.core.drain(self.now)
        expected = self.oracle.drain(self.now)
        assert [id(p) for p in lost] == [id(p) for p in expected]

    @invariant()
    def the_two_agree(self):
        core, oracle, now = self.core, self.oracle, self.now
        assert core.drops == oracle.drops
        assert core.drops_by_flow == oracle.drops_by_flow
        assert core.overshoot == oracle.overshoot
        assert core.backlog() == oracle.backlog()
        assert core.has_pending() == oracle.has_pending()
        assert [id(p) for p in core.queued_packets()] == [
            id(p) for p in oracle.queued_packets()
        ]
        assert _nonzero(core.eligible_links(now)) == _nonzero(oracle.eligible_links(now))
        for flow, dest in DEST_OF.items():
            assert core.local_room(flow, dest) == oracle.local_room(flow, dest)


class PerFlow(CoreMatchesTheOracle):
    def make_buffers(self, gate):
        return (
            PerFlowBuffer(NODE, NEXT_HOP.__getitem__, per_flow_capacity=2),
            OraclePerFlowBuffer(NODE, NEXT_HOP.__getitem__, per_flow_capacity=2),
        )


class PerDestination(CoreMatchesTheOracle):
    telemetry = False

    def make_buffers(self, gate):
        return tuple(
            policy(
                NODE,
                NEXT_HOP.__getitem__,
                gate,
                per_dest_capacity=2,
                telemetry=Telemetry() if self.telemetry else None,
            )
            for policy in (PerDestinationBuffer, OraclePerDestinationBuffer)
        )

    @rule()
    def reset_meters(self):
        self.core.reset_meters(self.now)
        self.oracle.reset_meters(self.now)

    @rule(flow=FLOWS)
    def read_fullness(self, flow):
        dest = DEST_OF[flow]
        assert self.core.fullness(dest, self.now) == self.oracle.fullness(dest, self.now)

    @invariant()
    def meters_agree(self):
        # Read the meters as they stand: ``fullness`` would first sync
        # them with the queue and so hide a missed transition.
        readings = [
            {dest: meter.fraction_full(self.now) for dest, meter in buffer._meters.items()}
            for buffer in (self.core, self.oracle)
        ]
        assert readings[0] == readings[1]
        assert self.core.piggyback_states() == self.oracle.piggyback_states()


class PerDestinationWithTelemetry(PerDestination):
    """Telemetry on: the meters move through the recording branch."""

    telemetry = True


TestPerFlow = PerFlow.TestCase
TestPerDestination = PerDestination.TestCase
TestPerDestinationWithTelemetry = PerDestinationWithTelemetry.TestCase
