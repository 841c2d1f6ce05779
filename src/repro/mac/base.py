"""The MAC-layer interface shared by the DCF and fluid substrates.

A node's upper layers (buffers, protocol logic) register a
:class:`NodeServices` bundle of callbacks; the MAC pulls packets
through ``dequeue`` and pushes receptions/overhearings back up.  The
GMP measurement layer additionally reads per-link channel occupancy
through :meth:`MacLayer.occupancy_snapshot`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

from repro.flows.packet import Packet
from repro.topology.network import Link


@dataclass
class NodeServices:
    """Callbacks one node's upper layers expose to the MAC.

    Attributes:
        dequeue: return the next eligible ``(packet, next_hop)`` pair
            to transmit, or None when nothing is eligible.  The MAC
            calls this when its transmitter goes idle; the buffer
            layer must call :meth:`MacLayer.notify_backlog` when
            eligibility appears later.
        on_data_received: a DATA frame addressed to this node was
            decoded; arguments are the packet and the upstream node.
        on_overhear: any frame from ``sender`` was decoded (including
            frames addressed elsewhere); carries the sender's
            piggybacked buffer-state map.  Used by congestion
            avoidance to cache downstream buffer states.
        make_piggyback: produce the buffer-state map to attach to an
            outgoing frame.
        on_packet_dropped: the MAC exhausted retries and discarded the
            packet (counted by the node stack).
        on_broadcast_received: a broadcast control frame was decoded;
            arguments are the payload and the sender.
    """

    dequeue: Callable[[], "tuple[Packet, int] | None"]
    on_data_received: Callable[[Packet, int], None]
    on_overhear: Callable[[int, dict[int, bool]], None] = lambda sender, states: None
    make_piggyback: Callable[[], dict[int, bool]] = dict
    on_packet_dropped: Callable[[Packet, int], None] = lambda packet, next_hop: None
    on_broadcast_received: Callable[[object, int], None] = lambda payload, sender: None
    # Batch accessors used only by the fluid substrate (the DCF pulls one
    # packet at a time through ``dequeue``).
    eligible_links: "Callable[[], dict[Link, int]] | None" = None
    dequeue_for: "Callable[[int], Packet | None] | None" = None
    # True while any packet is queued at the node, eligible or not.
    # Optional; when every node supplies it, the fluid substrate can
    # prove the network quiescent and skip whole allocation rounds.
    has_pending: "Callable[[], bool] | None" = None


class MacLayer(abc.ABC):
    """Abstract MAC substrate.

    Lifecycle: construct, :meth:`attach_node` for every node, then
    :meth:`start` once before the simulation runs.
    """

    @abc.abstractmethod
    def attach_node(self, node_id: int, services: NodeServices) -> None:
        """Register the upper-layer callbacks of ``node_id``."""

    @abc.abstractmethod
    def start(self) -> None:
        """Begin operating (schedule initial events)."""

    @abc.abstractmethod
    def notify_backlog(self, node_id: int) -> None:
        """Tell the MAC that ``node_id`` may now have an eligible
        packet (new arrival or downstream buffer released)."""

    @abc.abstractmethod
    def occupancy_snapshot(self, node_id: int) -> dict[Link, float]:
        """Seconds of channel airtime attributed to each directed link
        adjacent to ``node_id`` since the last reset.

        Airtime on link ``(i, j)`` includes the RTS/DATA sent by ``i``
        and the CTS/ACK sent by ``j`` (paper §6.2, *Channel
        Occupancy*).  Both endpoints observe the same value.
        """

    @abc.abstractmethod
    def reset_occupancy(self, node_id: int) -> None:
        """Zero the occupancy accumulators of ``node_id`` (start of a
        new measurement period)."""

    @abc.abstractmethod
    def busy_snapshot(self, node_id: int) -> float:
        """Seconds during which ``node_id`` perceived the channel busy
        (sensed energy or transmitted itself) since the last reset.

        A diagnostic: GMP deliberately does *not* decide saturation
        from it (DESIGN.md — clique occupancy is summed member-link
        frame airtime, §6.2; a clique held below capacity by rate
        limits has an idle channel yet must stay eligible)."""

    @abc.abstractmethod
    def reset_busy(self, node_id: int) -> None:
        """Zero the busy-time accumulator of ``node_id``."""

    def send_broadcast(self, node_id: int, payload: object) -> None:
        """Queue a best-effort control broadcast from ``node_id``.

        Optional: substrates that do not model control transport may
        leave this unimplemented; the out-of-band control plane is
        used instead.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not carry in-band broadcasts"
        )

    # --- fault injection (optional; see repro.faults) ---------------------------

    def set_node_down(self, node_id: int, down: bool) -> list[Packet]:
        """Crash (or recover) ``node_id`` at the MAC layer; returns any
        packets the MAC loses in the crash."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support node crash injection"
        )

    def set_link_loss(self, sender: int, receiver: int, rate: float) -> None:
        """Install a loss probability on a directed link; 0 removes it."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support link-loss injection"
        )

    def set_link_capacity(self, sender: int, receiver: int, capacity: float | None) -> None:
        """Fault-injected rate ceiling on a directed link (``None``
        restores); only rate-based substrates can honor this."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support capacity degradation; "
            "use a loss rate instead"
        )

    def packets_in_flight(self) -> list[Packet]:
        """Packets currently held inside the MAC (for end-of-run audits)."""
        return []
