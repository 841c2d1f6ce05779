"""802.11b PHY timing.

All frame durations and interframe spaces are derived from a
:class:`PhyProfile`.  Every run uses :data:`DEFAULT_PHY`: 11 Mbps
DSSS with the short PLCP preamble (96 us) and 2 Mbps control frames,
whose per-packet efficiency matches the throughput levels the paper
reports.  The paper fixes the channel capacity at 11 Mbps and the data
payload at 1024 bytes; everything else (preamble, control rate) is
unstated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import MBPS, MICROSECONDS

#: MAC overhead of a data frame: 24-byte header + 4-byte FCS.
DATA_HEADER_BYTES = 28
RTS_BYTES = 20
CTS_BYTES = 14
ACK_BYTES = 14


@dataclass(frozen=True)
class PhyProfile:
    """Timing parameters of an 802.11 PHY.

    Attributes:
        data_rate: payload bit rate (bits/second).
        basic_rate: control-frame bit rate (bits/second).
        preamble: PLCP preamble + header duration in seconds.
        slot_time: backoff slot duration in seconds.
        sifs: short interframe space in seconds.
        cw_min: minimum contention window (slots); windows are
            ``[0, cw]`` inclusive.
        cw_max: maximum contention window (slots).
        short_retry_limit: RTS attempts before the packet is dropped.
        long_retry_limit: DATA attempts before the packet is dropped.
    """

    data_rate: float
    basic_rate: float
    preamble: float
    slot_time: float = 20 * MICROSECONDS
    sifs: float = 10 * MICROSECONDS
    cw_min: int = 31
    cw_max: int = 1023
    short_retry_limit: int = 7
    long_retry_limit: int = 4

    def __post_init__(self) -> None:
        if self.data_rate <= 0 or self.basic_rate <= 0:
            raise ConfigError("PHY rates must be positive")
        if self.cw_min < 1 or self.cw_max < self.cw_min:
            raise ConfigError(
                f"invalid contention windows: cw_min={self.cw_min} cw_max={self.cw_max}"
            )

    # --- interframe spaces --------------------------------------------------

    @property
    def difs(self) -> float:
        """DCF interframe space: SIFS + 2 slots."""
        return self.sifs + 2 * self.slot_time

    @property
    def eifs(self) -> float:
        """Extended IFS, used after sensing an undecodable frame:
        SIFS + ACK duration at the basic rate + DIFS."""
        return self.sifs + self.ack_duration + self.difs

    # --- frame durations ---------------------------------------------------------

    def _control_duration(self, frame_bytes: int) -> float:
        return self.preamble + frame_bytes * 8.0 / self.basic_rate

    @property
    def rts_duration(self) -> float:
        """Airtime of an RTS frame."""
        return self._control_duration(RTS_BYTES)

    @property
    def cts_duration(self) -> float:
        """Airtime of a CTS frame."""
        return self._control_duration(CTS_BYTES)

    @property
    def ack_duration(self) -> float:
        """Airtime of an ACK frame."""
        return self._control_duration(ACK_BYTES)

    def data_duration(self, payload_bytes: int) -> float:
        """Airtime of a DATA frame carrying ``payload_bytes``."""
        return (
            self.preamble
            + (DATA_HEADER_BYTES + payload_bytes) * 8.0 / self.data_rate
        )

    # --- exchange-level helpers -----------------------------------------------

    def exchange_duration(self, payload_bytes: int) -> float:
        """Airtime of a full RTS/CTS/DATA/ACK exchange (excluding DIFS
        and backoff)."""
        return (
            self.rts_duration
            + self.cts_duration
            + self.data_duration(payload_bytes)
            + self.ack_duration
            + 3 * self.sifs
        )

    def saturation_rate(self, payload_bytes: int, *, contenders: int = 1) -> float:
        """Rough saturation throughput in packets/second for one link.

        Adds DIFS plus the *expected* initial backoff to each exchange;
        useful as a capacity estimate for the fluid MAC and for sanity
        checks, not as an exact DCF model.
        """
        mean_backoff = (self.cw_min / 2.0) * self.slot_time
        per_packet = self.difs + mean_backoff / max(contenders, 1) + self.exchange_duration(
            payload_bytes
        )
        return 1.0 / per_packet

    def clique_capacity(self, payload_bytes: int) -> float:
        """Default packets/second a contention clique serializes: the
        saturation rate with three contenders, matching the paper's
        observed clique throughput."""
        return self.saturation_rate(payload_bytes, contenders=3)

    def cw_after_retries(self, retries: int) -> int:
        """Contention window after ``retries`` failed attempts."""
        window = (self.cw_min + 1) * (2**max(retries, 0)) - 1
        return min(window, self.cw_max)


#: The profile every run uses.
DEFAULT_PHY = PhyProfile(
    data_rate=11.0 * MBPS,
    basic_rate=2.0 * MBPS,
    preamble=96 * MICROSECONDS,
)
