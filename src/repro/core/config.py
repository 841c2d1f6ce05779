"""GMP configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class GmpConfig:
    """Parameters of the Global Maxmin Protocol.

    Defaults follow the paper's simulation setup (§7): 4-second
    periods, β = 10%, a 25% buffer-saturation threshold, and 10-packet
    per-destination queues.

    Attributes:
        period: measurement/adjustment period length in seconds.  The
            paper alternates a 4 s measurement period with a 4 s
            adjustment period; with our instantaneous control plane the
            adjustment collapses to the period boundary, so one cycle
            here corresponds to half a paper cycle.
        beta: equality tolerance — two rates/occupancies are "equal"
            when they differ by less than ``beta`` (fraction, not
            percent) of the larger one.
        omega_threshold: buffer is *saturated* when it was full for
            more than this fraction of the period.
        queue_capacity: per-destination queue capacity in packets.
        additive_increase: packets/second added to an uncontested rate
            limit each period (rate-limit condition).
        min_rate: floor for rate limits, packets/second.
        stale_timeout: backpressure cache staleness (overhearing gate).
        removal_persistence: consecutive periods a flow must achieve
            materially less than its rate limit before the limit is
            deemed unnecessary and removed; ``None`` (default) disables
            removal entirely.  The paper removes such limits
            immediately, but under per-destination queueing a source's
            local packets win queue slots far more often than relayed
            ones, so a rate limit that *looks* slack (the flow achieves
            less than it) is often the only thing preventing the
            source from flooding its own relay queue: removing it
            causes periodic flood/re-clamp cycles.  Additive increase
            still probes upward, so removal is an optimization, not a
            correctness requirement — see EXPERIMENTS.md for the
            ablation.
    """

    period: float = 4.0
    beta: float = 0.10
    omega_threshold: float = 0.25
    queue_capacity: int = 10
    additive_increase: float = 8.0
    min_rate: float = 1.0
    stale_timeout: float = 0.1
    removal_persistence: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.period < math.inf:
            raise ConfigError(f"period must be positive and finite: {self.period}")
        if not 0 < self.beta < 1:
            raise ConfigError(f"beta must be in (0, 1): {self.beta}")
        if not 0 < self.omega_threshold < 1:
            raise ConfigError(
                f"omega_threshold must be in (0, 1): {self.omega_threshold}"
            )
        if self.queue_capacity < 1:
            raise ConfigError(f"queue_capacity must be >= 1: {self.queue_capacity}")
        if not 0 < self.additive_increase < math.inf:
            raise ConfigError(
                f"additive_increase must be positive and finite: "
                f"{self.additive_increase}"
            )
        if not 0 < self.min_rate < math.inf:
            raise ConfigError(f"min_rate must be positive and finite: {self.min_rate}")
        if not 0 < self.stale_timeout < math.inf:
            raise ConfigError(
                f"stale_timeout must be positive and finite: {self.stale_timeout}"
            )
        if self.removal_persistence is not None and self.removal_persistence < 1:
            raise ConfigError(
                f"removal_persistence must be >= 1 or None: "
                f"{self.removal_persistence}"
            )
