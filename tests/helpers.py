"""Shared test fixtures: minimal upper layers for driving the MAC, and
the reference implementations (oracles) the tests check the product
code against."""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right, insort
from collections import deque
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterable

from repro.buffers.backpressure import BackpressureGate
from repro.buffers.occupancy import FullnessMeter
from repro.buffers.queues import BufferPolicy
from repro.errors import BufferError_, ConfigError, TopologyError
from repro.flows.packet import Packet
from repro.flows.rate_limiter import TokenBucket
from repro.flows.traffic import TrafficSource
from repro.mac.base import NodeServices
from repro.obs.stream import StreamPublisher
from repro.scenarios.figures import figure1
from repro.scenarios.spec import LITERAL
from repro.sim.event import DEFAULT_PRIORITY, Event
from repro.telemetry import Telemetry
from repro.telemetry.exporters import (
    event_record,
    instrument_record,
    run_record,
    sample_record,
)
from repro.telemetry.registry import Series
from repro.topology.builders import random_topology
from repro.topology.network import (
    DEFAULT_CS_RANGE,
    DEFAULT_TX_RANGE,
    Link,
    Topology,
    canonical,
)


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


#: GMP at a 0.5 s period with 4 pkt/s additive increase, the setting the
#: short test runs share, as a spec fragment: ``RunSpec(**FAST, ...)``.
FAST = {"period": 0.5, "gmp": {"additive_increase": 4.0}}


def random_scenario(seed, num_nodes=8, num_flows=4):
    """The spec fields of a seeded random literal topology: ``num_nodes``
    in 700 m x 700 m and ``num_flows`` flows at 400 pkt/s."""
    topology = random_topology(num_nodes, width=700.0, height=700.0, seed=seed)
    assert topology.tx_range == DEFAULT_TX_RANGE, "a literal topology has the default ranges"
    ids = topology.node_ids
    flows = []
    # Deterministic pseudo-random flow endpoints from the seed.
    for k in range(num_flows):
        source = ids[(seed + 3 * k) % len(ids)]
        dest = ids[(seed + 5 * k + 1) % len(ids)]
        if source == dest:
            dest = ids[(ids.index(dest) + 1) % len(ids)]
        flows.append([source, dest, 1.0, 400.0])
    nodes = [[topology.node(i).x, topology.node(i).y] for i in ids]
    return {"scenario": LITERAL, "topology": {"nodes": nodes, "flows": flows}}


def uncapped(scenario: str) -> dict[str, Any]:
    """The spec fields of a named scenario that a DCF run accepts:
    figure1 becomes its nodes and flows as a literal topology without
    its rate cap (the DCF refuses caps); any other name stays as is."""
    if scenario != "figure1":
        return {"scenario": scenario}
    figure = figure1()
    assert figure.topology.tx_range == DEFAULT_TX_RANGE, "a literal topology has the default ranges"
    nodes = [[node.x, node.y] for node in figure.topology]
    flows = [[f.source, f.destination, f.weight, f.desired_rate] for f in figure.flows]
    return {"scenario": LITERAL, "topology": {"nodes": nodes, "flows": flows}}


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


# --- The keyed buffers before they shared one virtual-link queue core ----------
#
# The per-flow and per-destination policies as two classes, the per-flow
# one served by its own scan-and-sort round-robin: the oracle of the
# differential in tests/test_virtual_link_core.py.  Copied as they were,
# with one change: the per-flow drain now keeps its (emptied) queues, as
# the core does, where it used to forget them and so restart the
# round-robin from the lowest flow after a crash.


def _rr_order(keys: Iterable[int], last: int | None) -> list[int]:
    """Round-robin ordering: keys after ``last`` first, then wrap."""
    ordered = sorted(keys)
    if last is None or last not in ordered:
        return ordered
    pivot = ordered.index(last) + 1
    return ordered[pivot:] + ordered[:pivot]


class PerFlowBuffer(BufferPolicy):
    """One bounded FIFO per flow, served round-robin (2PP's per-flow
    fair queueing).  Arrivals to a full flow queue are dropped."""

    def __init__(
        self,
        node_id: int,
        next_hop: Callable[[int], int],
        *,
        per_flow_capacity: int = 10,
    ) -> None:
        super().__init__(node_id, next_hop)
        if per_flow_capacity < 1:
            raise BufferError_(f"per-flow capacity must be >= 1: {per_flow_capacity}")
        self.per_flow_capacity = per_flow_capacity
        self._queues: dict[int, deque[Packet]] = {}
        self._last_flow: int | None = None

    def _admit(self, packet: Packet, *, count_drop: bool) -> bool:
        queue = self._queues.setdefault(packet.flow_id, deque())
        if len(queue) >= self.per_flow_capacity:
            if count_drop:
                self._count_drop(packet)
            return False
        queue.append(packet)
        return True

    def admit_local_at(self, packet: Packet, now: float) -> bool:
        # A refused local packet is backpressure, not loss: the source
        # never generates it, so it must not enter the drop ledger.
        return self._admit(packet, count_drop=False)

    def admit_forwarded_at(self, packet: Packet, now: float) -> bool:
        return self._admit(packet, count_drop=True)

    def local_room(self, flow_id: int, dest: int) -> bool:
        queue = self._queues.get(flow_id)
        return queue is None or len(queue) < self.per_flow_capacity

    def dequeue(self, now: float) -> tuple[Packet, int] | None:
        for flow_id in _rr_order(self._queues, self._last_flow):
            queue = self._queues[flow_id]
            if queue:
                self._last_flow = flow_id
                packet = queue.popleft()
                return packet, self.next_hop(packet.destination)
        return None

    def dequeue_for(self, next_hop: int, now: float) -> Packet | None:
        for flow_id in _rr_order(self._queues, self._last_flow):
            queue = self._queues[flow_id]
            if queue and self.next_hop(queue[0].destination) == next_hop:
                self._last_flow = flow_id
                return queue.popleft()
        return None

    def eligible_links(self, now: float) -> dict[Link, int]:
        counts: dict[Link, int] = {}
        for queue in self._queues.values():
            for packet in queue:
                a_link = (self.node_id, self.next_hop(packet.destination))
                counts[a_link] = counts.get(a_link, 0) + 1
        return counts

    def backlog(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def queued_packets(self) -> list[Packet]:
        return [
            packet
            for flow_id in sorted(self._queues)
            for packet in self._queues[flow_id]
        ]

    def drain(self, now: float) -> list[Packet]:
        lost = self.queued_packets()
        self._queues = {flow_id: deque() for flow_id in self._queues}
        return lost


class PerDestinationBuffer(BufferPolicy):
    """GMP's policy: one bounded queue per served destination, each a
    virtual-node queue, with backpressure gating.

    * local packets are *refused* when their destination queue is full
      (backpressure reaches the source, which generates more slowly);
    * forwarded packets are always accepted — the upstream gate should
      have prevented them when full; in-flight races may overshoot the
      nominal capacity, which is counted, not dropped (the paper's
      scheme avoids forwarding drops by construction);
    * a queue's head may be sent only when the gate believes the
      downstream queue for that destination has free space.

    Queues are indexed by next hop (a queue's next hop is fixed when
    it is created): serving a link walks only the destinations routed
    over it, and the per-link and total backlog counts are maintained
    on every admission and departure instead of recounted.  The
    round-robin pointer stays one per *node* — ``dequeue_for`` serves
    its link's destinations in the order the node-wide rotation would
    reach them.

    Each queue owns a :class:`FullnessMeter`; GMP reads Ω from it.

    When a :class:`~repro.telemetry.Telemetry` instance is supplied,
    each queue additionally records its length trajectory
    (``buffer.queue_len``) and full/not-full dwell time
    (``buffer.fullness``); both piggyback on the meter updates the
    policy already performs, so no extra events are scheduled.
    """

    def __init__(
        self,
        node_id: int,
        next_hop: Callable[[int], int],
        gate: BackpressureGate,
        *,
        per_dest_capacity: int = 10,
        telemetry=None,
    ) -> None:
        super().__init__(node_id, next_hop)
        if per_dest_capacity < 1:
            raise BufferError_(f"per-dest capacity must be >= 1: {per_dest_capacity}")
        self.gate = gate
        self._allows = gate.allows  # asked for every packet served
        self.per_dest_capacity = per_dest_capacity
        self._queues: dict[int, deque[Packet]] = {}
        self._meters: dict[int, FullnessMeter] = {}
        self._last_dest: int | None = None
        self._dests: list[int] = []  # every queue's destination, sorted
        self._link_of: dict[int, Link] = {}  # dest -> (node, next hop)
        self._dests_via: dict[int, list[int]] = {}  # next hop -> sorted dests
        self._link_backlog: dict[Link, int] = {}  # queued packets per link
        self._backlog = 0
        self._tm = telemetry
        self._len_series: dict[int, object] = {}
        self._full_hists: dict[int, object] = {}

    # --- queue bookkeeping -------------------------------------------------------

    def _queue_for(self, dest: int) -> deque[Packet]:
        queue = self._queues.get(dest)
        if queue is None:
            hop = self.next_hop(dest)
            a_link = self._link_of[dest] = (self.node_id, hop)
            self._link_backlog.setdefault(a_link, 0)
            insort(self._dests, dest)
            insort(self._dests_via.setdefault(hop, []), dest)
            queue = self._queues[dest] = deque()
            self._meters[dest] = FullnessMeter()
        return queue

    def _enqueue(self, queue: deque[Packet], packet: Packet, now: float) -> None:
        queue.append(packet)
        dest = packet.destination
        self._link_backlog[self._link_of[dest]] += 1
        self._backlog += 1
        # The meter reads full exactly while len >= capacity, so only
        # the append that reaches capacity can move it.
        if self._tm is not None:
            self._update_meter(dest, now)
        elif len(queue) == self.per_dest_capacity:
            self._meters[dest].set_full(now, True)

    def _update_meter(self, dest: int, now: float) -> None:
        length = len(self._queues[dest])
        full = length >= self.per_dest_capacity
        self._meters[dest].set_full(now, full)
        if self._tm is not None:
            series = self._len_series.get(dest)
            if series is None:
                series = self._tm.registry.series(
                    "buffer.queue_len", node=self.node_id, dest=dest
                )
                self._len_series[dest] = series
                self._full_hists[dest] = self._tm.registry.histogram(
                    "buffer.fullness", (0.5,), node=self.node_id, dest=dest
                )
            series.record_changed(now, length)
            self._full_hists[dest].update(now, 1.0 if full else 0.0)

    def served_destinations(self) -> list[int]:
        """Destinations with an instantiated queue, sorted."""
        return sorted(self._queues)

    def queue_length(self, dest: int) -> int:
        """Current length of the queue for ``dest`` (0 if absent)."""
        queue = self._queues.get(dest)
        return len(queue) if queue is not None else 0

    def has_free(self, dest: int) -> bool:
        """True if the queue for ``dest`` has a free nominal slot."""
        queue = self._queues.get(dest)
        return queue is None or len(queue) < self.per_dest_capacity

    def fullness(self, dest: int, now: float) -> float:
        """Ω of the queue for ``dest`` over the current window."""
        meter = self._meters.get(dest)
        if meter is None:
            return 0.0
        self._update_meter(dest, now)
        return meter.fraction_full(now)

    def reset_meters(self, now: float) -> None:
        """Start a new measurement window on every queue."""
        for dest, meter in self._meters.items():
            self._update_meter(dest, now)
            meter.reset(now)

    # --- admission -------------------------------------------------------------

    def admit_local_at(self, packet: Packet, now: float) -> bool:
        queue = self._queue_for(packet.destination)
        if len(queue) >= self.per_dest_capacity:
            return False
        self._enqueue(queue, packet, now)
        return True

    def local_room(self, flow_id: int, dest: int) -> bool:
        # has_free(dest), inlined: asked on every offer a source makes.
        queue = self._queues.get(dest)
        return queue is None or len(queue) < self.per_dest_capacity

    def admit_forwarded_at(self, packet: Packet, now: float) -> bool:
        queue = self._queue_for(packet.destination)
        if len(queue) >= self.per_dest_capacity:
            self.overshoot += 1
        self._enqueue(queue, packet, now)
        return True

    # --- service -------------------------------------------------------------------

    def _serve(self, dests: list[int], now: float) -> Packet | None:
        """Pop the head of the first eligible queue among ``dests``
        (sorted), visiting them round-robin after the node-wide
        pointer: destinations above ``_last_dest`` first, then wrap."""
        last = self._last_dest
        pivot = bisect_right(dests, last) if last is not None else 0
        queues, link_of, allows = self._queues, self._link_of, self._allows
        for dest in (dests[pivot:] + dests[:pivot]) if pivot else dests:
            queue = queues[dest]
            if queue and allows(link_of[dest][1], dest, now):
                self._last_dest = dest
                packet = queue.popleft()
                self._link_backlog[link_of[dest]] -= 1
                self._backlog -= 1
                if self._tm is not None:
                    self._update_meter(dest, now)
                elif len(queue) == self.per_dest_capacity - 1:
                    self._meters[dest].set_full(now, False)
                return packet
        return None

    def dequeue(self, now: float) -> tuple[Packet, int] | None:
        if not self._backlog:
            return None
        packet = self._serve(self._dests, now)
        if packet is None:
            return None
        return packet, self._link_of[packet.destination][1]

    def dequeue_for(self, next_hop: int, now: float) -> Packet | None:
        if not self._link_backlog.get((self.node_id, next_hop)):
            return None
        return self._serve(self._dests_via[next_hop], now)

    def eligible_links(self, now: float) -> dict[Link, int]:
        # Raw backlog per link: the gate is applied per packet at
        # dequeue time, so a currently blocked queue still registers
        # demand (it may unblock when the downstream queue drains
        # within the same fluid round).  This is the live count map —
        # read-only for callers; a link whose queues drained stays
        # listed with a zero.
        return self._link_backlog

    def backlog(self) -> int:
        return self._backlog

    def has_pending(self) -> bool:
        return self._backlog > 0

    def queued_packets(self) -> list[Packet]:
        return [
            packet
            for dest in sorted(self._queues)
            for packet in self._queues[dest]
        ]

    def drain(self, now: float) -> list[Packet]:
        lost = self.queued_packets()
        for dest, queue in self._queues.items():
            queue.clear()
            self._update_meter(dest, now)
        for a_link in self._link_backlog:
            self._link_backlog[a_link] = 0
        self._backlog = 0
        return lost

    def piggyback_states(self) -> dict[int, bool]:
        return {dest: self.has_free(dest) for dest in self._queues}


OraclePerFlowBuffer = PerFlowBuffer
OraclePerDestinationBuffer = PerDestinationBuffer


# --- The virtual-link queue core before it was indexed by next hop --------------
#
# The service order, per-link demand and pending probe exactly as a keyed
# buffer computed them by scanning every queue, kept as the oracle for
# the core's next-hop index.  They read a buffer's state without
# changing it: `scan_*` say what a call *would* do.


def _rr_scan(buffer) -> list[int]:
    """Every queue's key, sorted, rotated to start after the node-wide
    round-robin pointer."""
    return _rr_order(buffer._queues, buffer._last_key)


def _scan_head(buffer, key: int, next_hop: int | None, now: float) -> Packet | None:
    """The head of the queue for ``key`` if it is routed via ``next_hop``
    (None: any) and may be served now."""
    queue = buffer._queues[key]
    if not queue:
        return None
    hop = buffer.next_hop(queue[0].destination)
    if next_hop not in (None, hop):
        return None
    if buffer._allows is not None and not buffer._allows(hop, key, now):
        return None
    return queue[0]


def scan_dequeue(buffer, now: float):
    """The ``(packet, next_hop)`` a full-scan ``dequeue`` serves."""
    for key in _rr_scan(buffer):
        head = _scan_head(buffer, key, None, now)
        if head is not None:
            return head, buffer.next_hop(head.destination)
    return None


def scan_dequeue_for(buffer, next_hop: int, now: float):
    """The packet a full-scan ``dequeue_for(next_hop)`` serves."""
    for key in _rr_scan(buffer):
        head = _scan_head(buffer, key, next_hop, now)
        if head is not None:
            return head
    return None


def scan_eligible_links(buffer) -> dict:
    """Raw backlog per outgoing link, recounted from the queued packets."""
    counts: dict = {}
    for packet in buffer.queued_packets():
        a_link = (buffer.node_id, buffer.next_hop(packet.destination))
        counts[a_link] = counts.get(a_link, 0) + 1
    return counts


def scan_has_pending(buffer) -> bool:
    return any(buffer._queues.values())


# --- Timer before it re-keyed its event in place ------------------------------
#
# The kernel's cancel-and-push timer as it was: every restart cancels the
# queued event, leaving a tombstone, and schedules a new one.  It is the
# oracle of the re-keying differential in tests/test_timer_rekey.py.


class CancelAndPushTimer:
    """A restartable one-shot timer bound to a ``Simulator``."""

    def __init__(self, sim, callback, *, tag, priority=DEFAULT_PRIORITY):
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


# --- Reference token bucket ------------------------------------------------------
#
# The source tick takes its token and its next-token time from one
# ``TokenBucket.take`` refill.  The general-amount accessors below are the
# two calls it replaces; tests/test_traffic_draws.py checks ``take``
# against them and tests/test_flows.py checks the bucket's conformance
# through them.


class ReferenceTokenBucket(TokenBucket):
    """A :class:`TokenBucket` with a balance probe, a take of any amount
    and a next-available time, each refilling first."""

    def tokens(self, now: float) -> float:
        self._refill(now)
        return self._tokens

    def try_consume(self, now: float, amount: float = 1.0) -> bool:
        self._refill(now)
        if self._tokens + 1e-12 >= amount:
            self._tokens -= amount
            return True
        return False

    def next_available(self, now: float, amount: float = 1.0) -> float:
        self._refill(now)
        deficit = amount - self._tokens
        if deficit <= 0:
            return now
        return now + deficit / self._rate


# --- Pairwise contention -----------------------------------------------------------
#
# The definition the contention graph's bulk masks implement (paper
# §2.1): the oracle of tests/test_topology_spatial.py.


def links_contend(topology: Topology, first: Link, second: Link) -> bool:
    """True if the two wireless links cannot be active simultaneously:
    they share a node, or an endpoint of one lies within interference
    range of an endpoint of the other.  A link never contends with
    itself (or its own reverse)."""
    a = canonical(first)
    b = canonical(second)
    if a == b:
        return False
    if set(a) & set(b):
        return True
    return any(topology.interferes(x, y) for x in a for y in b)


def parallel_chains_topology(
    num_chains: int,
    chain_length: int,
    *,
    node_spacing: float = 200.0,
    chain_spacing: float = 350.0,
    tx_range: float = DEFAULT_TX_RANGE,
    cs_range: float = DEFAULT_CS_RANGE,
) -> Topology:
    """Several vertical chains side by side: with the defaults, chains
    do not link to each other but adjacent chains' links contend.

    Node ids are chain-major: chain ``k`` owns ids
    ``k * chain_length .. (k + 1) * chain_length - 1`` top to bottom.
    """
    if num_chains < 1 or chain_length < 1:
        raise TopologyError(
            f"need positive dimensions, got {num_chains} chains of {chain_length}"
        )
    if node_spacing <= 0 or node_spacing > tx_range:
        raise TopologyError(
            f"node_spacing {node_spacing} must be in (0, tx_range={tx_range}]"
        )
    if chain_spacing <= tx_range:
        raise TopologyError(
            f"chain_spacing {chain_spacing} must exceed tx_range {tx_range} "
            "to keep chains unlinked"
        )
    topology = Topology(tx_range=tx_range, cs_range=cs_range)
    topology.add_nodes(
        (chain * chain_spacing, position * node_spacing)
        for chain in range(num_chains)
        for position in range(chain_length)
    )
    return topology


# --- Stream round trip -------------------------------------------------------------
#
# The canonical record layout of a run's telemetry, and the reordering
# that turns a closed stream back into it: tests/test_obs_stream.py pins
# that streaming loses nothing by comparing the two byte for byte.


def iter_metric_records(telemetry: Telemetry):
    """Every JSONL record of a run, in the canonical layout: run
    header, instruments (each series followed by its samples), events,
    drop marker."""
    yield run_record(dict(telemetry.run_info))
    for instrument in telemetry.registry.instruments():
        yield instrument_record(instrument)
        if isinstance(instrument, Series):
            for t, v in zip(instrument.times, instrument.values):
                yield sample_record(instrument, t, v)
    for event in telemetry.events:
        yield event_record(event)
    if telemetry.events_dropped:
        yield {"record": "events_dropped", "count": telemetry.events_dropped}


def jsonl_text(records) -> str:
    """``records`` as the JSONL text the stream encodes them to."""
    return "".join(json.dumps(record, default=str) + "\n" for record in records)


def bare_session(now: float = 0.0) -> SimpleNamespace:
    """What a monitor reads of a Session to bind and close outside a
    run: no sanitizer, the clock at ``now``."""
    return SimpleNamespace(sanitizer=None, now=now)


def stream_file(path: Path, telemetry: Telemetry, now: float = 0.0) -> list[dict[str, Any]]:
    """Stream ``telemetry`` as it stands to ``path`` (opened, then
    closed at ``now``) and return the file's records."""
    publisher = StreamPublisher(telemetry, str(path))
    publisher.bind(bare_session())
    publisher.close(bare_session(now))
    return [json.loads(line) for line in path.read_text().splitlines()]


#: Stream-control record kinds (not part of the canonical layout).
CONTROL_RECORDS = ("stream_open", "stream_close", "stream_abort", "journal")


def _series_key(record: dict[str, Any]) -> tuple[str, str]:
    return (record["name"], json.dumps(record["labels"], sort_keys=True))


def reconstruct_jsonl(records: list[dict[str, Any]]) -> str:
    """Reorder the records of one cleanly closed stream into the
    canonical layout of :func:`iter_metric_records`, as JSONL text.
    Raises ``ConfigError`` on a stream that was never closed or was
    aborted."""
    header: dict[str, Any] | None = None
    snapshots: list[dict[str, Any]] = []
    samples: dict[tuple[str, str], list[dict[str, Any]]] = {}
    events: list[dict[str, Any]] = []
    dropped: dict[str, Any] | None = None
    for record in records:
        kind = record.get("record")
        if kind == "stream_abort":
            raise ConfigError("cannot reconstruct an aborted stream")
        if kind in CONTROL_RECORDS:
            continue
        if kind == "run":
            header = record
        elif kind == "sample":
            samples.setdefault(_series_key(record), []).append(record)
        elif kind == "event":
            events.append(record)
        elif kind == "events_dropped":
            dropped = record
        else:
            snapshots.append(record)
    if header is None:
        raise ConfigError("stream has no run header (was it closed?)")
    ordered: list[dict[str, Any]] = [header]
    for snapshot in snapshots:
        ordered.append(snapshot)
        if snapshot.get("record") == "series":
            ordered.extend(samples.get(_series_key(snapshot), []))
    ordered.extend(events)
    if dropped is not None:
        ordered.append(dropped)
    return jsonl_text(ordered)
