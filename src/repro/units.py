"""Unit constants and conversion helpers.

The simulator measures time in **seconds** (floats), distances in
**meters**, and data rates in **bits per second**.  These helpers keep
call sites readable (``3 * MILLISECONDS`` instead of ``3e-3``) and
centralize the handful of conversions the paper's setup uses (Mbps
channel capacity, packets per second for 1024-byte packets).
"""

from __future__ import annotations

# --- time -----------------------------------------------------------------

SECONDS = 1.0
MILLISECONDS = 1e-3
MICROSECONDS = 1e-6

# --- data -----------------------------------------------------------------

BITS = 1
BYTES = 8
KILOBITS = 1_000
MEGABITS = 1_000_000

#: Data-rate unit: bits per second.
BPS = 1
KBPS = 1_000
MBPS = 1_000_000


def bits(num_bytes: float) -> float:
    """Convert a byte count to bits."""
    return num_bytes * 8.0


def transmission_time(num_bytes: float, rate_bps: float) -> float:
    """Time in seconds to serialize ``num_bytes`` at ``rate_bps``."""
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return bits(num_bytes) / rate_bps


def packets_per_second(rate_bps: float, packet_bytes: float) -> float:
    """Convert a bit rate to packets/second for a fixed packet size."""
    if packet_bytes <= 0:
        raise ValueError(f"packet size must be positive, got {packet_bytes}")
    return rate_bps / bits(packet_bytes)
