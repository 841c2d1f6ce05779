"""MAC layer: packet-level IEEE 802.11 DCF and a fluid approximation.

Two substrates implement the same :class:`~repro.mac.base.MacLayer`
surface, so the buffer and GMP layers run unchanged on either:

* :class:`~repro.mac.dcf.DcfMac` — event-driven 802.11 DCF with
  RTS/CTS/DATA/ACK, binary exponential backoff, NAV, physical carrier
  sensing, hidden terminals, and EIFS (the substrate the paper's
  evaluation assumes);
* :class:`~repro.mac.fluid.FluidMac` — a deterministic clique-
  capacity-sharing model, orders of magnitude faster, used by fast
  tests and convergence studies.
"""

from repro.mac.base import MacLayer, NodeServices
from repro.mac.channel import Channel
from repro.mac.dcf import DcfMac
from repro.mac.fluid import FluidMac
from repro.mac.frames import Frame, FrameKind

__all__ = [
    "MacLayer",
    "NodeServices",
    "Channel",
    "DcfMac",
    "FluidMac",
    "Frame",
    "FrameKind",
]
