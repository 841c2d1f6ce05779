"""Per-node protocol stack assembly.

A :class:`NodeStack` wires one node's buffer policy into a MAC
substrate, forwards and delivers packets along the routing tables,
feeds overheard buffer-state bits to the backpressure gate, and keeps
the per-flow / per-virtual-link counters that both the result
collection and the GMP measurement layer read.

The stack is protocol-agnostic: plain 802.11, 2PP, and GMP node
stacks differ only in the :class:`~repro.buffers.queues.BufferPolicy`
instance (and in whether a protocol observer is attached).
"""

from __future__ import annotations

from typing import Protocol

from repro.buffers.queues import BufferPolicy
from repro.errors import ProtocolError
from repro.flows.packet import Packet
from repro.mac.base import MacLayer, NodeServices
from repro.sim.kernel import Simulator
from repro.topology.network import Link


class StackObserver(Protocol):
    """Hook points a rate-adaptation protocol can attach to a stack."""

    def on_forward(self, node_id: int, packet: Packet, next_hop: int) -> None:
        """``node_id`` handed ``packet`` to the MAC toward ``next_hop``."""

    def on_receive(self, node_id: int, packet: Packet, from_node: int) -> None:
        """``node_id`` received ``packet`` from upstream ``from_node``
        (delivered or queued for forwarding)."""


class NodeStack:
    """One node's data plane.

    Args:
        sim: simulation kernel.
        node_id: this node.
        buffer_policy: queueing policy instance owned by this node.
        mac: the shared MAC substrate (already constructed; the caller
            must attach this stack via :meth:`attach`).
        observer: optional protocol hooks.
        stale_retry: when every queued packet is gated, retry after
            this many seconds even without an overheard state change
            (matches the gate's stale-timeout escape hatch).
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        buffer_policy: BufferPolicy,
        mac: MacLayer,
        *,
        observer: StackObserver | None = None,
        stale_retry: float = 0.1,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.buffer = buffer_policy
        self.mac = mac
        self.observer = observer
        # Admission, the MACs' pulls and the overhearing gate, bound once.
        self._admit_local_at = buffer_policy.admit_local_at
        self._admit_forwarded_at = buffer_policy.admit_forwarded_at
        self._pull = buffer_policy.dequeue
        self._pull_for = buffer_policy.dequeue_for
        self._has_pending = buffer_policy.has_pending
        self._gate = getattr(buffer_policy, "gate", None)
        self._retry_timer = sim.timer(
            self._on_retry, tag=f"stack.retry.{node_id}"
        )
        self._stale_retry = stale_retry

        # Cumulative counters (monotone; consumers take deltas).
        self.delivered: dict[int, int] = {}  # flow_id -> packets sunk here
        self.delay_sum: dict[int, float] = {}  # flow_id -> summed e2e delay
        self.arrivals: dict[tuple[int, int], int] = {}  # (upstream, dest) -> count
        self.forwards: dict[tuple[int, int], int] = {}  # (next_hop, dest) -> count
        self.mac_drops = 0
        self.mac_drop_flows: dict[int, int] = {}  # flow_id -> MAC-layer losses
        self.crash_losses: dict[int, int] = {}  # flow_id -> packets lost to crashes
        self.alive = True

        # Telemetry (None in a run without it); per-flow counters cached.
        self._tm = sim.telemetry
        self._delivered_counters: dict[int, object] = {}

    # --- wiring ---------------------------------------------------------------

    def attach(self) -> None:
        """Register this stack's services with the MAC."""
        self.mac.attach_node(self.node_id, self.services())

    def services(self) -> NodeServices:
        return NodeServices(
            dequeue=self._dequeue,
            on_data_received=self._on_data_received,
            on_overhear=self._on_overhear,
            make_piggyback=self.buffer.piggyback_states,
            on_packet_dropped=self._on_packet_dropped,
            eligible_links=self._eligible_links,
            dequeue_for=self._dequeue_for,
            has_pending=self.buffer.has_pending,
        )

    # --- local traffic entry point --------------------------------------------------

    def admit_local(self, packet: Packet) -> bool:
        """Offer a locally generated packet (traffic-source callback)."""
        if packet.source != self.node_id:
            raise ProtocolError(
                f"node {self.node_id} got local packet sourced at {packet.source}"
            )
        if not self.alive:
            # Sources are paused across a crash, but refuse defensively
            # so a racing tick cannot enqueue into a dead node.
            return False
        accepted = self._admit_local_at(packet, self.sim.now)
        if accepted:
            self.mac.notify_backlog(self.node_id)
        return accepted

    # --- MAC-facing callbacks ------------------------------------------------------

    def _dequeue(self) -> tuple[Packet, int] | None:
        # Most pulls find the buffer empty; ask that first (an empty
        # policy's dequeue changes nothing).
        if not self._has_pending():
            return None
        item = self._pull(self.sim.now)
        if item is None:
            self._retry_timer.start(self._stale_retry)
            return None
        packet, next_hop = item
        self.forwards[(next_hop, packet.destination)] = (
            self.forwards.get((next_hop, packet.destination), 0) + 1
        )
        if self.observer is not None:
            self.observer.on_forward(self.node_id, packet, next_hop)
        return item

    def _dequeue_for(self, next_hop: int) -> Packet | None:
        packet = self._pull_for(next_hop, self.sim.now)
        if packet is None:
            return None
        self.forwards[(next_hop, packet.destination)] = (
            self.forwards.get((next_hop, packet.destination), 0) + 1
        )
        if self.observer is not None:
            self.observer.on_forward(self.node_id, packet, next_hop)
        return packet

    def _eligible_links(self) -> dict[Link, int]:
        return self.buffer.eligible_links(self.sim.now)

    def _on_data_received(self, packet: Packet, from_node: int) -> None:
        if not self.alive:
            # The MAC gates receptions at decode time, so this is a
            # defensive backstop; a packet that does land on a dead
            # node is lost with it.
            self._count_crash_loss(packet)
            return
        self.arrivals[(from_node, packet.destination)] = (
            self.arrivals.get((from_node, packet.destination), 0) + 1
        )
        if self.observer is not None:
            self.observer.on_receive(self.node_id, packet, from_node)
        if packet.destination == self.node_id:
            packet.delivered_at = self.sim.now
            self.delivered[packet.flow_id] = self.delivered.get(packet.flow_id, 0) + 1
            self.delay_sum[packet.flow_id] = (
                self.delay_sum.get(packet.flow_id, 0.0) + packet.delay
            )
            if self._tm is not None:
                counter = self._delivered_counters.get(packet.flow_id)
                if counter is None:
                    counter = self._tm.registry.counter(
                        "flow.delivered", flow=packet.flow_id
                    )
                    self._delivered_counters[packet.flow_id] = counter
                counter.inc()
            return
        self._admit_forwarded_at(packet, self.sim.now)
        self.mac.notify_backlog(self.node_id)

    def _on_overhear(self, sender: int, states: dict[int, bool]) -> None:
        gate = self._gate
        if gate is not None and states:
            gate.update(sender, states, self.sim.now)
            # An overheard release may have unblocked a queue head.
            self.mac.notify_backlog(self.node_id)

    def _on_packet_dropped(self, packet: Packet, next_hop: int) -> None:
        self.mac_drops += 1
        self.mac_drop_flows[packet.flow_id] = (
            self.mac_drop_flows.get(packet.flow_id, 0) + 1
        )

    def _on_retry(self) -> None:
        self.mac.notify_backlog(self.node_id)
        if self.buffer.has_pending():
            self._retry_timer.start(self._stale_retry)

    # --- fault injection ---------------------------------------------------------

    def _count_crash_loss(self, packet: Packet) -> None:
        self.crash_losses[packet.flow_id] = (
            self.crash_losses.get(packet.flow_id, 0) + 1
        )

    def crash(self, mac_lost: list[Packet] | None = None) -> None:
        """Take the node down: drain the buffer (queued packets perish
        with the node's memory) and stop the retry loop.

        Args:
            mac_lost: packets the MAC layer reported losing in the same
                crash (e.g. a frame mid-transmission); accounted here
                so the per-flow conservation audit balances.

        Raises:
            ProtocolError: if the node is already down.
        """
        if not self.alive:
            raise ProtocolError(f"node {self.node_id} is already down")
        self.alive = False
        self._retry_timer.cancel()
        for packet in self.buffer.drain(self.sim.now):
            self._count_crash_loss(packet)
        for packet in mac_lost or []:
            self._count_crash_loss(packet)

    def recover(self) -> None:
        """Bring the node back up with empty queues.

        Raises:
            ProtocolError: if the node is not down.
        """
        if self.alive:
            raise ProtocolError(f"node {self.node_id} is not down")
        self.alive = True
        self.mac.notify_backlog(self.node_id)
