"""Shared test fixtures: minimal upper layers for driving the MAC."""

from __future__ import annotations

import itertools
from collections import deque

from repro.flows.packet import Packet
from repro.mac.base import NodeServices


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


def clique_member_sets(memberships) -> list[frozenset]:
    """A link -> clique-index map inverted to one member set per index
    (a list: a map that carries the same member set twice shows it)."""
    members: dict[int, set] = {}
    for a_link, indices in memberships.items():
        for index in indices:
            members.setdefault(index, set()).add(a_link)
    return [frozenset(links) for links in members.values()]


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
