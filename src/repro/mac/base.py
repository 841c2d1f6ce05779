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
            avoidance to cache downstream buffer states.  The map is
            the frame's own, passed without a copy: every receiver of
            the frame gets the same object, so it is read-only.
        make_piggyback: produce the buffer-state map to attach to an
            outgoing frame.
        on_packet_dropped: the MAC exhausted retries and discarded the
            packet (counted by the node stack).
    """

    dequeue: Callable[[], "tuple[Packet, int] | None"]
    on_data_received: Callable[[Packet, int], None]
    on_overhear: Callable[[int, dict[int, bool]], None] = lambda sender, states: None
    make_piggyback: Callable[[], dict[int, bool]] = dict
    on_packet_dropped: Callable[[Packet, int], None] = lambda packet, next_hop: None
    # Batch accessors required by the fluid substrate (the DCF pulls one
    # packet at a time through ``dequeue``).
    eligible_links: "Callable[[], dict[Link, int]] | None" = None
    dequeue_for: "Callable[[int], Packet | None] | None" = None
    # True while any packet is queued at the node, eligible or not: the
    # fluid substrate stops polling a node it proves empty, and skips
    # whole allocation rounds once none is left.
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

        Airtime on link ``(i, j)`` is the RTS/DATA sent by ``i`` plus
        the CTS/ACK sent by ``j`` (paper §6.2, *Channel Occupancy*).
        Each endpoint holds the part it sent: on the DCF the sender's
        snapshot carries RTS+DATA and the receiver's CTS+ACK, so a
        link's occupancy is the sum over both ends.  A substrate that
        does not split an exchange gives the sender all of it and the
        receiver ``0.0``.
        """

    @abc.abstractmethod
    def reset_occupancy(self, node_id: int) -> None:
        """Zero the occupancy accumulators of ``node_id`` (start of a
        new measurement period)."""

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

    def packets_in_flight(self) -> dict[int, Packet]:
        """The packet each node's MAC currently holds, by node (for
        end-of-run audits); a fluid substrate holds none between rounds."""
        return {}
