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
from typing import Callable

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
    def admit_local_at(self, packet: Packet, now: float) -> bool:
        """Offer a locally generated packet at ``now``; False refuses
        it (the source then simply does not generate it)."""

    @abc.abstractmethod
    def admit_forwarded_at(self, packet: Packet, now: float) -> bool:
        """Offer a packet received from upstream for forwarding."""

    @abc.abstractmethod
    def local_room(self, flow_id: int, dest: int) -> bool:
        """False exactly when a local packet of ``flow_id`` for ``dest``
        would be refused (asked before the packet is built)."""

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


class SharedFifoBuffer(BufferPolicy):
    """One FIFO shared by all flows; tail overwrite when full.

    The plain-802.11 baseline policy (paper §7.2): "when a packet
    arrives at a node whose buffer is full, it will overwrite the
    packet at the tail of the queue".  The default capacity is the
    paper's shared buffer of 300 packets (§7).
    """

    def __init__(
        self, node_id: int, next_hop: Callable[[int], int], *, capacity: int = 300
    ) -> None:
        super().__init__(node_id, next_hop)
        if capacity < 1:
            raise BufferError_(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: deque[Packet] = deque()

    def admit_local_at(self, packet: Packet, now: float) -> bool:
        # A source generates new packets only while its buffer has
        # room ("the flow source will generate new packets at a
        # smaller rate if the network cannot deliver its desirable
        # rate", §2.1) — local packets never overwrite queued traffic.
        if len(self._queue) >= self.capacity:
            return False
        self._queue.append(packet)
        return True

    def local_room(self, flow_id: int, dest: int) -> bool:
        return len(self._queue) < self.capacity

    def admit_forwarded_at(self, packet: Packet, now: float) -> bool:
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
    ) -> None:
        super().__init__(node_id, next_hop)
        if capacity < 1:
            raise BufferError_(f"capacity must be >= 1, got {capacity}")
        self.gate = gate
        self.capacity = capacity
        self._queue: deque[Packet] = deque()

    def has_free(self, dest: int) -> bool:
        """Single shared bit: any free slot at all (``dest`` ignored)."""
        return len(self._queue) < self.capacity

    def admit_local_at(self, packet: Packet, now: float) -> bool:
        if len(self._queue) >= self.capacity:
            return False
        self._queue.append(packet)
        return True

    def local_room(self, flow_id: int, dest: int) -> bool:
        return self.has_free(SHARED_QUEUE_KEY)

    def admit_forwarded_at(self, packet: Packet, now: float) -> bool:
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


class VirtualLinkBuffer(BufferPolicy):
    """One bounded FIFO per class key, served round-robin: each queue is
    a virtual link (node, next hop, class) of the grand virtual network
    (paper §3-4).  The key is the destination or the flow.

    A queue's next hop is fixed when it is created, so queues are
    indexed by next hop: serving a link walks only the keys routed over
    it, and the per-link and total backlogs are counted on every
    admission and departure.  The round-robin pointer is one per *node*:
    ``dequeue_for`` serves its link's keys in the order the node-wide
    rotation would reach them.  A drain empties the queues but keeps
    them, the index and the pointer.

    A full queue refuses a local packet (backpressure reaches the
    source); each subclass decides what it does to a forwarded one.
    Each queue owns a :class:`FullnessMeter`, moved only when the queue
    reaches or leaves capacity.  With telemetry, those moves also record
    the queue's length (``buffer.queue_len``) and full-time
    (``buffer.fullness``), so no extra events are scheduled.

    Args:
        by_flow: key the queues by flow id (else by destination).
        capacity: nominal packets per queue.
        allows: ``allows(next_hop, key, now)``, asked before a queue's
            head is served: the backpressure gate (None: ungated).
    """

    def __init__(
        self, node_id: int, next_hop: Callable[[int], int], *, by_flow: bool, capacity: int,
        allows: Callable[[int, int, float], bool] | None = None, telemetry=None,
    ) -> None:
        super().__init__(node_id, next_hop)
        if capacity < 1:
            kind = "flow" if by_flow else "dest"
            raise BufferError_(f"per-{kind} capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._by_flow = by_flow
        self._allows = allows  # asked for every packet served
        self._queues: dict[int, deque[Packet]] = {}
        self._meters: dict[int, FullnessMeter] = {}
        self._last_key: int | None = None
        self._keys: list[int] = []  # every queue's key, sorted
        self._link_of: dict[int, Link] = {}  # key -> (node, next hop)
        self._keys_via: dict[int, list[int]] = {}  # next hop -> sorted keys
        self._link_backlog: dict[Link, int] = {}  # queued packets per link
        self._backlog = 0
        self._tm = telemetry
        self._instruments: dict[int, tuple] = {}  # key -> (length series, full histogram)

    # --- queue bookkeeping -------------------------------------------------------

    def _queue_for(self, key: int, dest: int) -> deque[Packet]:
        queue = self._queues.get(key)
        if queue is None:
            hop = self.next_hop(dest)
            a_link = self._link_of[key] = (self.node_id, hop)
            self._link_backlog.setdefault(a_link, 0)
            insort(self._keys, key)
            insort(self._keys_via.setdefault(hop, []), key)
            queue = self._queues[key] = deque()
            self._meters[key] = FullnessMeter()
        return queue

    def _enqueue(self, key: int, queue: deque[Packet], packet: Packet, now: float) -> None:
        queue.append(packet)
        self._link_backlog[self._link_of[key]] += 1
        self._backlog += 1
        # The meter reads full exactly while len >= capacity, so only
        # the append that reaches capacity can move it.
        if self._tm is not None:
            self._update_meter(key, now)
        elif len(queue) == self.capacity:
            self._meters[key].set_full(now, True)

    def _update_meter(self, key: int, now: float) -> None:
        length = len(self._queues[key])
        full = length >= self.capacity
        self._meters[key].set_full(now, full)
        if self._tm is not None:
            instruments = self._instruments.get(key)
            if instruments is None:
                registry, labels = self._tm.registry, {"node": self.node_id, "dest": key}
                instruments = self._instruments[key] = (
                    registry.series("buffer.queue_len", **labels),
                    registry.histogram("buffer.fullness", (0.5,), **labels),
                )
            instruments[0].record_changed(now, length)
            instruments[1].update(now, 1.0 if full else 0.0)

    def queue_length(self, key: int) -> int:
        """Current length of the queue for ``key`` (0 if absent)."""
        queue = self._queues.get(key)
        return len(queue) if queue is not None else 0

    def has_free(self, key: int) -> bool:
        """True if the queue for ``key`` has a free nominal slot."""
        queue = self._queues.get(key)
        return queue is None or len(queue) < self.capacity

    def fullness(self, key: int, now: float) -> float:
        """Ω of the queue for ``key`` over the current window."""
        meter = self._meters.get(key)
        if meter is None:
            return 0.0
        self._update_meter(key, now)
        return meter.fraction_full(now)

    def reset_meters(self, now: float) -> None:
        """Start a new measurement window on every queue."""
        for key, meter in self._meters.items():
            self._update_meter(key, now)
            meter.reset(now)

    # --- admission -------------------------------------------------------------

    def admit_local_at(self, packet: Packet, now: float) -> bool:
        key = packet.flow_id if self._by_flow else packet.destination
        queue = self._queue_for(key, packet.destination)
        if len(queue) >= self.capacity:
            return False
        self._enqueue(key, queue, packet, now)
        return True

    def local_room(self, flow_id: int, dest: int) -> bool:
        # has_free, inlined: asked on every offer a source makes.
        queue = self._queues.get(flow_id if self._by_flow else dest)
        return queue is None or len(queue) < self.capacity

    # --- service -------------------------------------------------------------------

    def _serve(self, keys: list[int], now: float) -> Packet | None:
        """Pop the head of the first eligible queue among ``keys``
        (sorted), visiting them round-robin after the node-wide
        pointer: keys above ``_last_key`` first, then wrap."""
        last = self._last_key
        pivot = bisect_right(keys, last) if last is not None else 0
        queues, link_of, allows = self._queues, self._link_of, self._allows
        for key in (keys[pivot:] + keys[:pivot]) if pivot else keys:
            queue = queues[key]
            if queue and (allows is None or allows(link_of[key][1], key, now)):
                self._last_key = key
                packet = queue.popleft()
                self._link_backlog[link_of[key]] -= 1
                self._backlog -= 1
                if self._tm is not None:
                    self._update_meter(key, now)
                elif len(queue) == self.capacity - 1:
                    self._meters[key].set_full(now, False)
                return packet
        return None

    def dequeue(self, now: float) -> tuple[Packet, int] | None:
        if not self._backlog:
            return None
        packet = self._serve(self._keys, now)
        if packet is None:
            return None
        return packet, self._link_of[self._last_key][1]

    def dequeue_for(self, next_hop: int, now: float) -> Packet | None:
        if not self._link_backlog.get((self.node_id, next_hop)):
            return None
        return self._serve(self._keys_via[next_hop], now)

    def eligible_links(self, now: float) -> dict[Link, int]:
        # Raw backlog per link, gated queues included (the gate is
        # asked per packet at dequeue time, and a downstream queue may
        # drain within the same fluid round).  The live count map: a
        # link whose queues drained stays listed with a zero.
        return self._link_backlog

    def backlog(self) -> int:
        return self._backlog

    def has_pending(self) -> bool:
        return self._backlog > 0

    def queued_packets(self) -> list[Packet]:
        return [packet for key in self._keys for packet in self._queues[key]]

    def drain(self, now: float) -> list[Packet]:
        lost = self.queued_packets()
        for key, queue in self._queues.items():
            queue.clear()
            self._update_meter(key, now)
        for a_link in self._link_backlog:
            self._link_backlog[a_link] = 0
        self._backlog = 0
        return lost


class PerFlowBuffer(VirtualLinkBuffer):
    """2PP's per-flow fair queueing: one bounded, ungated queue per
    flow.  A forwarded packet that meets a full queue is dropped."""

    def __init__(
        self, node_id: int, next_hop: Callable[[int], int], *, per_flow_capacity: int = 10
    ) -> None:
        super().__init__(node_id, next_hop, by_flow=True, capacity=per_flow_capacity)

    def admit_forwarded_at(self, packet: Packet, now: float) -> bool:
        if self.admit_local_at(packet, now):
            return True
        self._count_drop(packet)
        return False


class PerDestinationBuffer(VirtualLinkBuffer):
    """GMP's policy: one queue per served destination, gated by
    backpressure.  A forwarded packet is always accepted: the upstream
    gate should have held it, so a full queue counts an ``overshoot``."""

    def __init__(
        self, node_id: int, next_hop: Callable[[int], int], gate: BackpressureGate,
        *, per_dest_capacity: int = 10, telemetry=None,
    ) -> None:
        super().__init__(
            node_id, next_hop, by_flow=False, capacity=per_dest_capacity,
            allows=gate.allows, telemetry=telemetry,
        )
        self.gate = gate

    def admit_forwarded_at(self, packet: Packet, now: float) -> bool:
        dest = packet.destination
        queue = self._queue_for(dest, dest)
        if len(queue) >= self.capacity:
            self.overshoot += 1
        self._enqueue(dest, queue, packet, now)
        return True

    def piggyback_states(self) -> dict[int, bool]:
        return {dest: self.has_free(dest) for dest in self._queues}

    # benchmarks/e2e traces the buffer operations in this class's own
    # namespace; these bindings go once it follows the MRO (ROADMAP item 20(c)).
    admit_local_at = VirtualLinkBuffer.admit_local_at
    dequeue = VirtualLinkBuffer.dequeue
    dequeue_for = VirtualLinkBuffer.dequeue_for
    eligible_links = VirtualLinkBuffer.eligible_links
    has_free = VirtualLinkBuffer.has_free
