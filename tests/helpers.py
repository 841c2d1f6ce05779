"""Shared test fixtures: minimal upper layers for driving the MAC."""

from __future__ import annotations

import itertools
from collections import deque

from repro.flows.flow import Flow, FlowSet
from repro.flows.packet import Packet
from repro.flows.traffic import TrafficSource
from repro.mac.base import NodeServices
from repro.scenarios.figures import Scenario
from repro.sim.event import DEFAULT_PRIORITY, Event
from repro.topology.builders import random_topology


class SaturatedSender:
    """Upper layer with an infinite backlog toward fixed next hops.

    ``targets`` maps next-hop node id to a flow id; dequeue cycles
    through them round-robin.  Used to drive the MAC at saturation.
    """

    def __init__(self, node_id: int, targets: dict[int, int], *, packet_bytes=1024):
        self.node_id = node_id
        self._targets = list(targets.items())
        self._cycle = itertools.cycle(self._targets) if self._targets else None
        self.packet_bytes = packet_bytes
        self.sent = 0
        self.received: list[Packet] = []
        self.dropped: list[Packet] = []
        self.overheard: list[tuple[int, dict]] = []
        self.broadcasts: list[tuple[object, int]] = []

    def dequeue(self):
        if self._cycle is None:
            return None
        next_hop, flow_id = next(self._cycle)
        self.sent += 1
        packet = Packet(
            flow_id=flow_id,
            source=self.node_id,
            destination=next_hop,
            size_bytes=self.packet_bytes,
            created_at=0.0,
        )
        return packet, next_hop

    def services(self) -> NodeServices:
        return NodeServices(
            dequeue=self.dequeue,
            on_data_received=lambda packet, sender: self.received.append(packet),
            on_overhear=lambda sender, states: self.overheard.append((sender, states)),
            on_packet_dropped=lambda packet, nh: self.dropped.append(packet),
            on_broadcast_received=lambda payload, sender: self.broadcasts.append(
                (payload, sender)
            ),
        )


class QueueNode:
    """Upper layer with explicit FIFO queues per next hop.

    Implements both the pull interface (``dequeue``) and the fluid
    batch accessors, so it works on either MAC substrate.
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.queues: dict[int, deque[Packet]] = {}
        self.received: list[Packet] = []
        self.dropped: list[Packet] = []

    def push(self, packet: Packet, next_hop: int) -> None:
        self.queues.setdefault(next_hop, deque()).append(packet)

    def dequeue(self):
        for next_hop in sorted(self.queues):
            queue = self.queues[next_hop]
            if queue:
                return queue.popleft(), next_hop
        return None

    def dequeue_for(self, next_hop: int):
        queue = self.queues.get(next_hop)
        if queue:
            return queue.popleft()
        return None

    def eligible_links(self):
        return {
            (self.node_id, next_hop): len(queue)
            for next_hop, queue in self.queues.items()
            if queue
        }

    def has_pending(self) -> bool:
        return any(self.queues.values())

    def services(self) -> NodeServices:
        return NodeServices(
            dequeue=self.dequeue,
            on_data_received=lambda packet, sender: self.received.append(packet),
            on_packet_dropped=lambda packet, nh: self.dropped.append(packet),
            eligible_links=self.eligible_links,
            dequeue_for=self.dequeue_for,
            has_pending=self.has_pending,
        )


def idle_services(node_id: int) -> NodeServices:
    """Services of a node that never transmits (pure sink/relay-less)."""
    sink = SaturatedSender(node_id, {})
    return sink.services(), sink


class NeverStores(dict):
    """A stand-in for ``FluidMac``'s allocation memo that forgets every
    store, so each lookup misses and every round solves."""

    def __setitem__(self, key, value):
        pass


def random_scenario(seed, num_nodes=8, num_flows=4):
    topology = random_topology(num_nodes, width=700.0, height=700.0, seed=seed)
    rng_ids = topology.node_ids
    flows = []
    flow_id = 1
    # Deterministic pseudo-random flow endpoints from the seed.
    for k in range(num_flows):
        source = rng_ids[(seed + 3 * k) % len(rng_ids)]
        dest = rng_ids[(seed + 5 * k + 1) % len(rng_ids)]
        if source == dest:
            dest = rng_ids[(rng_ids.index(dest) + 1) % len(rng_ids)]
        flows.append(
            Flow(flow_id=flow_id, source=source, destination=dest, desired_rate=400.0)
        )
        flow_id += 1
    return Scenario(
        name=f"random-{seed}", topology=topology, flows=FlowSet(flows)
    )


def count_enumerations(monkeypatch) -> list[int]:
    """Record the vertex count of every graph handed to
    ``maximal_cliques`` from now on — by the clique system (which looks
    the name up in its own module) and by the runner's 2PP site."""
    from repro.scenarios import runner as runner_module
    from repro.topology import cliques as cliques_module
    from repro.topology.cliques import maximal_cliques

    sizes: list[int] = []

    def counting_cliques(graph):
        sizes.append(len(graph.links))
        return maximal_cliques(graph)

    for module in (cliques_module, runner_module):
        monkeypatch.setattr(module, "maximal_cliques", counting_cliques)
    return sizes


# --- PerDestinationBuffer before it was indexed by next hop ---------------------
#
# The service order, per-link demand and pending probe exactly as the
# buffer computed them by scanning every queue, kept as the oracle for
# the indexed implementation.  They read a buffer's state without
# changing it: `scan_*` say what a call *would* do.


def _rr_scan(buffer) -> list[int]:
    """Every served destination, sorted, rotated to start after the
    node-wide round-robin pointer."""
    ordered = buffer.served_destinations()
    last = buffer._last_dest
    if last is None or last not in ordered:
        return ordered
    pivot = ordered.index(last) + 1
    return ordered[pivot:] + ordered[:pivot]


def _scan_eligible(buffer, dest: int, now: float) -> bool:
    return buffer.queue_length(dest) > 0 and buffer.gate.allows(
        buffer.next_hop(dest), dest, now
    )


def _head(buffer, dest: int) -> Packet:
    return next(p for p in buffer.queued_packets() if p.destination == dest)


def scan_dequeue(buffer, now: float):
    """The ``(packet, next_hop)`` a full-scan ``dequeue`` serves."""
    for dest in _rr_scan(buffer):
        if _scan_eligible(buffer, dest, now):
            return _head(buffer, dest), buffer.next_hop(dest)
    return None


def scan_dequeue_for(buffer, next_hop: int, now: float):
    """The packet a full-scan ``dequeue_for(next_hop)`` serves."""
    for dest in _rr_scan(buffer):
        if buffer.next_hop(dest) == next_hop and _scan_eligible(buffer, dest, now):
            return _head(buffer, dest)
    return None


def scan_eligible_links(buffer) -> dict:
    """Raw backlog per outgoing link, recounted from the queues."""
    counts: dict = {}
    for dest in buffer.served_destinations():
        length = buffer.queue_length(dest)
        if length:
            a_link = (buffer.node_id, buffer.next_hop(dest))
            counts[a_link] = counts.get(a_link, 0) + length
    return counts


def scan_has_pending(buffer) -> bool:
    return any(buffer.queue_length(dest) for dest in buffer.served_destinations())


# --- Timer before it re-keyed its event in place ------------------------------
#
# The kernel's cancel-and-push timer as it was: every restart cancels the
# queued event, leaving a tombstone, and schedules a new one.  It keeps the
# name ``Timer`` so its events carry the handler name ``Timer._fire`` in a
# dispatch log, as the kernel's do; it is the oracle of the re-keying
# differential in tests/test_timer_rekey.py.


class Timer:
    """A restartable one-shot timer bound to a ``Simulator``."""

    def __init__(self, sim, callback, *, tag="timer", priority=DEFAULT_PRIORITY):
        self._sim = sim
        self._callback = callback
        self._tag = tag
        self._priority = priority
        self._event: Event | None = None

    @property
    def pending(self) -> bool:
        return self._event is not None and self._event.active

    @property
    def expires_at(self) -> float | None:
        if self.pending:
            assert self._event is not None
            return self._event.time
        return None

    def start(self, delay: float) -> None:
        self.cancel()
        self._event = self._sim.call_later(
            delay, self._fire, priority=self._priority, tag=self._tag
        )

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


CancelAndPushTimer = Timer


# --- PoissonSource before it drew its gaps in blocks ---------------------------
#
# One scalar draw per gap, the stream looked up by name for each one (and so
# created at the first gap): the oracle of the block-drawing source in
# tests/test_traffic_draws.py.


class PoissonSource(TrafficSource):
    """Poisson arrivals, one ``rng.exponential`` call per gap."""

    def _intervals(self):
        while True:
            rng = self.sim.rng.stream(f"traffic.poisson.f{self.flow.flow_id}")
            yield float(rng.exponential(1.0 / self.flow.desired_rate))


ScalarPoissonSource = PoissonSource
