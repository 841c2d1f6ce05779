"""MAC frames.

Every frame carries the sender's *piggyback* — the per-destination
buffer-state map the congestion-avoidance scheme attaches to all
RTS/CTS/DATA/ACK transmissions (paper §2.2) — so neighbors can cache
downstream buffer states by overhearing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.flows.packet import Packet


class FrameKind(enum.Enum):
    """802.11 frame types used by the simulator."""

    RTS = "rts"
    CTS = "cts"
    DATA = "data"
    ACK = "ack"
    BROADCAST = "broadcast"


@dataclass(slots=True)
class Frame:
    """One frame on the air.

    Attributes:
        kind: frame type.
        sender: transmitting node id.
        receiver: addressed node id; None for broadcast frames.
        duration: airtime in seconds (set from the PHY profile).
        nav: network-allocation-vector value — how long the medium
            stays reserved *after* this frame ends.  Decoding third
            parties defer for this long.
        packet: the data packet, for DATA frames.
        piggyback: sender buffer-state map ``{destination: has_free
            _slot}`` plus any other overheard-state the upper layers
            attach.
        payload: control payload for BROADCAST frames (dissemination
            messages).
    """

    kind: FrameKind
    sender: int
    receiver: int | None
    duration: float
    nav: float = 0.0
    packet: Packet | None = None
    piggyback: dict[int, bool] = field(default_factory=dict)
    payload: Any = None

    @property
    def is_broadcast(self) -> bool:
        """True for receiver-less broadcast frames."""
        return self.receiver is None

    def addressed_to(self, node_id: int) -> bool:
        """True if this unicast frame targets ``node_id``."""
        return self.receiver == node_id

    def describe(self) -> str:
        """Short human-readable form for traces."""
        target = "*" if self.receiver is None else str(self.receiver)
        extra = f" f{self.packet.flow_id}#{self.packet.seq}" if self.packet else ""
        return f"{self.kind.value} {self.sender}->{target}{extra}"
