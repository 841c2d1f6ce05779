"""Data packets.

Packets are the unit moved by buffers and the MAC.  Besides routing
metadata they carry the two piggyback fields GMP relies on:

* ``carried_mu`` — the flow's normalized rate, stamped by the source on
  selected packets (paper §6.2, *Normalized Rate* measurement);
* forwarding nodes never modify a packet; they only read it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Packet:
    """One data packet.

    Attributes:
        flow_id: flow the packet belongs to.
        source: originating node id.
        destination: final destination node id.
        size_bytes: payload size (MAC overhead is added by the PHY model).
        created_at: simulation time of generation at the source.
        seq: number within its flow, counted from 0 by the run's source
            (``(flow_id, seq)`` is unique per run).
        carried_mu: normalized rate piggybacked by the source, or None.
        delivered_at: set by the sink on arrival (None in flight).
    """

    flow_id: int
    source: int
    destination: int
    size_bytes: int
    created_at: float
    seq: int = 0
    carried_mu: float | None = None
    delivered_at: float | None = None

    @property
    def delay(self) -> float | None:
        """End-to-end delay, available once delivered."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.created_at
