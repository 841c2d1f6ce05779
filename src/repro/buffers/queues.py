"""Queueing policies.

A :class:`BufferPolicy` sits between the traffic sources / forwarding
path and the MAC.  It decides admission (drop, overwrite, or refuse —
refusal of a *local* packet is how backpressure reaches the source),
service order, and — for the per-destination policy — transmission
eligibility via the backpressure gate.
"""

from __future__ import annotations

import abc
from bisect import bisect_right, insort
from collections import deque
from typing import Callable, Iterable

from repro.buffers.backpressure import BackpressureGate
from repro.buffers.occupancy import FullnessMeter
from repro.errors import BufferError_
from repro.flows.packet import Packet
from repro.topology.network import Link


class _NextHops(dict):
    """destination → next hop, asked of the routing callable once."""

    def __init__(self, resolve: Callable[[int], int]) -> None:
        super().__init__()
        self._resolve = resolve

    def __missing__(self, dest: int) -> int:
        hop = self[dest] = self._resolve(dest)
        return hop


class BufferPolicy(abc.ABC):
    """Common surface of the three queueing policies.

    Args:
        node_id: owning node.
        next_hop: callable mapping a destination to this node's next
            hop toward it.  The answer is fixed for the life of the
            policy (routes never change under a run), so each
            destination is asked about once.
    """

    def __init__(self, node_id: int, next_hop: Callable[[int], int]) -> None:
        self.node_id = node_id
        self.next_hop = _NextHops(next_hop).__getitem__
        self.drops = 0  # packets lost to admission (incl. overwrites)
        self.drops_by_flow: dict[int, int] = {}  # same, keyed by flow
        self.overshoot = 0  # forwarded admissions beyond nominal capacity

    def _count_drop(self, packet: Packet) -> None:
        self.drops += 1
        self.drops_by_flow[packet.flow_id] = (
            self.drops_by_flow.get(packet.flow_id, 0) + 1
        )

    # --- admission ---------------------------------------------------------

    @abc.abstractmethod
    def admit_local(self, packet: Packet) -> bool:
        """Offer a locally generated packet; False refuses it (the
        source then simply does not generate it)."""

    @abc.abstractmethod
    def admit_forwarded(self, packet: Packet) -> bool:
        """Offer a packet received from upstream for forwarding."""

    # --- service ------------------------------------------------------------

    @abc.abstractmethod
    def dequeue(self, now: float) -> tuple[Packet, int] | None:
        """Next eligible ``(packet, next_hop)``, or None."""

    @abc.abstractmethod
    def dequeue_for(self, next_hop: int, now: float) -> Packet | None:
        """Next eligible packet routed via ``next_hop`` (fluid MAC)."""

    @abc.abstractmethod
    def eligible_links(self, now: float) -> dict[Link, int]:
        """Eligible backlog per outgoing directed link (fluid MAC); a
        listed link may have a zero count.  Read-only for the caller."""

    @abc.abstractmethod
    def backlog(self) -> int:
        """Total queued packets."""

    # --- fault injection / audits ----------------------------------------------

    @abc.abstractmethod
    def queued_packets(self) -> list[Packet]:
        """Every currently queued packet (for end-of-run audits)."""

    @abc.abstractmethod
    def drain(self, now: float) -> list[Packet]:
        """Empty every queue and return the evicted packets (node
        crash: buffered traffic is lost with the node's memory)."""

    # --- buffer-state piggyback (overridden by per-destination) --------------------

    def piggyback_states(self) -> dict[int, bool]:
        """Per-destination free-space bits to piggyback on frames."""
        return {}

    def has_pending(self) -> bool:
        """True if any packet is queued (eligible or not)."""
        return self.backlog() > 0


def _rr_order(keys: Iterable[int], last: int | None) -> list[int]:
    """Round-robin ordering: keys after ``last`` first, then wrap."""
    ordered = sorted(keys)
    if last is None or last not in ordered:
        return ordered
    pivot = ordered.index(last) + 1
    return ordered[pivot:] + ordered[:pivot]


class SharedFifoBuffer(BufferPolicy):
    """One FIFO shared by all flows; tail overwrite when full.

    The plain-802.11 baseline policy (paper §7.2): "when a packet
    arrives at a node whose buffer is full, it will overwrite the
    packet at the tail of the queue".
    """

    def __init__(
        self, node_id: int, next_hop: Callable[[int], int], *, capacity: int = 300
    ) -> None:
        super().__init__(node_id, next_hop)
        if capacity < 1:
            raise BufferError_(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: deque[Packet] = deque()

    def admit_local(self, packet: Packet) -> bool:
        # A source generates new packets only while its buffer has
        # room ("the flow source will generate new packets at a
        # smaller rate if the network cannot deliver its desirable
        # rate", §2.1) — local packets never overwrite queued traffic.
        if len(self._queue) >= self.capacity:
            return False
        self._queue.append(packet)
        return True

    def admit_forwarded(self, packet: Packet) -> bool:
        # In-flight arrivals cannot be refused; when full they
        # overwrite the packet at the tail of the queue (§7.2).
        if len(self._queue) >= self.capacity:
            self._count_drop(self._queue.pop())
        self._queue.append(packet)
        return True

    def dequeue(self, now: float) -> tuple[Packet, int] | None:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        return packet, self.next_hop(packet.destination)

    def dequeue_for(self, next_hop: int, now: float) -> Packet | None:
        for index, packet in enumerate(self._queue):
            if self.next_hop(packet.destination) == next_hop:
                del self._queue[index]
                return packet
        return None

    def eligible_links(self, now: float) -> dict[Link, int]:
        counts: dict[Link, int] = {}
        for packet in self._queue:
            a_link = (self.node_id, self.next_hop(packet.destination))
            counts[a_link] = counts.get(a_link, 0) + 1
        return counts

    def backlog(self) -> int:
        return len(self._queue)

    def queued_packets(self) -> list[Packet]:
        return list(self._queue)

    def drain(self, now: float) -> list[Packet]:
        lost = list(self._queue)
        self._queue.clear()
        return lost


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

    def admit_local(self, packet: Packet) -> bool:
        # A refused local packet is backpressure, not loss: the source
        # never generates it, so it must not enter the drop ledger.
        return self._admit(packet, count_drop=False)

    def admit_forwarded(self, packet: Packet) -> bool:
        return self._admit(packet, count_drop=True)

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
        self._queues.clear()
        return lost


#: Piggyback key used by the shared-queue backpressure policy: the
#: node has a single queue, so a single pseudo-destination bit is
#: advertised.
SHARED_QUEUE_KEY = -1


class SharedBackpressureBuffer(BufferPolicy):
    """One bounded FIFO for *all* destinations, with backpressure.

    This is the §5.1 straw-man: congestion avoidance is applied to a
    single shared queue.  Backpressure from any bottleneck saturates
    the one queue and penalizes every flow passing the node, which is
    the paper's argument for per-destination queueing (compare
    :class:`PerDestinationBuffer`).

    The head of line blocks strictly: if the head packet's downstream
    queue is full, nothing is sent, even when packets further back
    could go elsewhere.
    """

    def __init__(
        self,
        node_id: int,
        next_hop: Callable[[int], int],
        gate: BackpressureGate,
        *,
        capacity: int = 10,
        start_time: float = 0.0,
    ) -> None:
        super().__init__(node_id, next_hop)
        if capacity < 1:
            raise BufferError_(f"capacity must be >= 1, got {capacity}")
        self.gate = gate
        self.capacity = capacity
        self._queue: deque[Packet] = deque()
        self.meter = FullnessMeter(start_time=start_time)

    def has_free(self, dest: int) -> bool:
        """Single shared bit: any free slot at all (``dest`` ignored)."""
        return len(self._queue) < self.capacity

    def admit_local(self, packet: Packet) -> bool:
        if len(self._queue) >= self.capacity:
            return False
        self._queue.append(packet)
        return True

    def admit_forwarded(self, packet: Packet) -> bool:
        if len(self._queue) >= self.capacity:
            self.overshoot += 1
        self._queue.append(packet)
        return True

    def _head_eligible(self, now: float) -> bool:
        if not self._queue:
            return False
        head = self._queue[0]
        return self.gate.allows(
            self.next_hop(head.destination), SHARED_QUEUE_KEY, now
        )

    def dequeue(self, now: float) -> tuple[Packet, int] | None:
        if not self._head_eligible(now):
            return None
        packet = self._queue.popleft()
        return packet, self.next_hop(packet.destination)

    def dequeue_for(self, next_hop: int, now: float) -> Packet | None:
        if not self._head_eligible(now):
            return None
        if self.next_hop(self._queue[0].destination) != next_hop:
            return None
        return self._queue.popleft()

    def eligible_links(self, now: float) -> dict[Link, int]:
        # Demand is the contiguous same-next-hop run at the head; the
        # gate is applied per packet at dequeue time.
        if not self._queue:
            return {}
        head = self._queue[0]
        a_link = (self.node_id, self.next_hop(head.destination))
        run = 0
        for packet in self._queue:
            if self.next_hop(packet.destination) == self.next_hop(head.destination):
                run += 1
            else:
                break
        return {a_link: run}

    def backlog(self) -> int:
        return len(self._queue)

    def queued_packets(self) -> list[Packet]:
        return list(self._queue)

    def drain(self, now: float) -> list[Packet]:
        lost = list(self._queue)
        self._queue.clear()
        return lost

    def piggyback_states(self) -> dict[int, bool]:
        return {SHARED_QUEUE_KEY: self.has_free(SHARED_QUEUE_KEY)}


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
        start_time: float = 0.0,
        telemetry=None,
    ) -> None:
        super().__init__(node_id, next_hop)
        if per_dest_capacity < 1:
            raise BufferError_(f"per-dest capacity must be >= 1: {per_dest_capacity}")
        self.gate = gate
        self.per_dest_capacity = per_dest_capacity
        self._queues: dict[int, deque[Packet]] = {}
        self._meters: dict[int, FullnessMeter] = {}
        self._last_dest: int | None = None
        self._dests: list[int] = []  # every queue's destination, sorted
        self._link_of: dict[int, Link] = {}  # dest -> (node, next hop)
        self._dests_via: dict[int, list[int]] = {}  # next hop -> sorted dests
        self._link_backlog: dict[Link, int] = {}  # queued packets per link
        self._backlog = 0
        self._start_time = start_time
        self._tm = telemetry if telemetry is not None and telemetry.enabled else None
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
            self._meters[dest] = FullnessMeter(start_time=self._start_time)
        return queue

    def _enqueue(self, queue: deque[Packet], packet: Packet, now: float) -> None:
        queue.append(packet)
        self._link_backlog[self._link_of[packet.destination]] += 1
        self._backlog += 1
        self._update_meter(packet.destination, now)

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
        return self.queue_length(dest) < self.per_dest_capacity

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

    # --- admission; `now` is carried on the packet path via stack wrappers -----

    def admit_local_at(self, packet: Packet, now: float) -> bool:
        """Admission for local packets with explicit time (preferred)."""
        queue = self._queue_for(packet.destination)
        if len(queue) >= self.per_dest_capacity:
            self._update_meter(packet.destination, now)
            return False
        self._enqueue(queue, packet, now)
        return True

    def admit_forwarded_at(self, packet: Packet, now: float) -> bool:
        """Admission for forwarded packets with explicit time."""
        queue = self._queue_for(packet.destination)
        if len(queue) >= self.per_dest_capacity:
            self.overshoot += 1
        self._enqueue(queue, packet, now)
        return True

    def admit_local(self, packet: Packet) -> bool:
        raise BufferError_(
            "PerDestinationBuffer needs admit_local_at(packet, now); "
            "use the node stack wrappers"
        )

    def admit_forwarded(self, packet: Packet) -> bool:
        raise BufferError_(
            "PerDestinationBuffer needs admit_forwarded_at(packet, now); "
            "use the node stack wrappers"
        )

    # --- service -------------------------------------------------------------------

    def _serve(self, dests: list[int], now: float) -> Packet | None:
        """Pop the head of the first eligible queue among ``dests``
        (sorted), visiting them round-robin after the node-wide
        pointer: destinations above ``_last_dest`` first, then wrap."""
        last = self._last_dest
        pivot = bisect_right(dests, last) if last is not None else 0
        queues, link_of, allows = self._queues, self._link_of, self.gate.allows
        for dest in (dests[pivot:] + dests[:pivot]) if pivot else dests:
            queue = queues[dest]
            if queue and allows(link_of[dest][1], dest, now):
                self._last_dest = dest
                packet = queue.popleft()
                self._link_backlog[link_of[dest]] -= 1
                self._backlog -= 1
                self._update_meter(dest, now)
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
