"""Traffic sources.

A traffic source repeatedly *offers* packets for its flow to the node
stack through an ``admit`` callback.  Offers are shaped twice:

* by the flow's own arrival process (CBR / Poisson / on-off) at the
  desirable rate ``d(f)``;
* by the self-imposed rate limit, enforced with a
  :class:`~repro.flows.rate_limiter.TokenBucket` (GMP adjusts this
  limit; the baselines leave it unset).

If ``admit`` returns False (source queue full — buffer-based
backpressure has reached the source), the packet is simply not
generated, modeling the paper's "the flow source will generate new
packets at a smaller rate if the network cannot deliver its desirable
rate".
"""

from __future__ import annotations

from typing import Callable

from repro.errors import FlowError
from repro.flows.flow import Flow
from repro.flows.packet import Packet
from repro.flows.rate_limiter import TokenBucket
from repro.sim.kernel import Simulator


class TrafficSource:
    """Base class: offer scheduling, rate limiting, and counters.

    Subclasses define the arrival process via :meth:`_next_interval`.

    Args:
        sim: simulation kernel.
        flow: the flow this source feeds.
        admit: callback invoked with each generated packet; returns
            True if the node stack accepted it.
        on_generate: optional hook invoked on every *accepted* packet
            (GMP uses it to piggyback normalized rates).
    """

    def __init__(
        self,
        sim: Simulator,
        flow: Flow,
        admit: Callable[[Packet], bool],
        *,
        on_generate: Callable[[Packet], None] | None = None,
    ) -> None:
        self.sim = sim
        self.flow = flow
        self._admit = admit
        self._on_generate = on_generate
        self._tag = f"traffic.f{flow.flow_id}"  # kernel tag of every tick
        self._bucket: TokenBucket | None = None
        self._started = False
        self._paused = False
        self._stopped = False
        self._pending = None  # the scheduled next-tick Event, if any
        self.generated = 0  # offers that passed the rate limit
        self.admitted = 0  # accepted by the node stack
        self.rejected = 0  # refused by the node stack (backpressure)
        self.limited = 0  # suppressed by the rate limit

    # --- rate limit -----------------------------------------------------------

    @property
    def rate_limit(self) -> float | None:
        """Current self-imposed limit in packets/second, or None."""
        return self._bucket.rate if self._bucket is not None else None

    def set_rate_limit(self, limit: float | None) -> None:
        """Install, change, or remove the source rate limit."""
        if limit is None:
            self._bucket = None
            return
        if limit <= 0:
            raise FlowError(f"flow {self.flow.flow_id}: rate limit must be positive")
        if self._bucket is None:
            self._bucket = TokenBucket(limit, start_time=self.sim.now)
        else:
            self._bucket.set_rate(limit, self.sim.now)

    # --- lifecycle -----------------------------------------------------------

    def start(self, *, offset: float = 0.0) -> None:
        """Begin offering packets ``offset`` seconds from now."""
        if self._started:
            raise FlowError(f"flow {self.flow.flow_id}: source already started")
        self._started = True
        self._pending = self.sim.call_later(offset, self._tick, tag=self._tag)

    def pause(self) -> None:
        """Stop offering packets (source node crashed).  Idempotent."""
        self._paused = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def resume(self) -> None:
        """Restart a paused source from the current time.  Idempotent.

        A stopped source stays stopped: a flow that departed while its
        source node was down does not rise again with the node.
        """
        if not self._paused or self._stopped:
            return
        self._paused = False
        if self._started:
            self._pending = self.sim.call_later(
                self._next_interval(), self._tick, tag=self._tag
            )

    def stop(self) -> None:
        """Permanently stop offering packets (flow departure).

        Unlike :meth:`pause` this is final — counters freeze, the rate
        limit is discarded, and neither :meth:`resume` nor a node
        recovery restarts the source.  Idempotent.
        """
        self._stopped = True
        self._bucket = None
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    @property
    def paused(self) -> bool:
        """True while the source is paused by fault injection."""
        return self._paused

    @property
    def stopped(self) -> bool:
        """True once the flow departed and the source shut down."""
        return self._stopped

    def _tick(self) -> None:
        self._pending = None
        if self._paused or self._stopped:
            return
        if self._passes_rate_limit():
            self.generated += 1
            packet = Packet(
                flow_id=self.flow.flow_id,
                source=self.flow.source,
                destination=self.flow.destination,
                size_bytes=self.flow.packet_bytes,
                created_at=self.sim.now,
            )
            if self._admit(packet):
                self.admitted += 1
                if self._on_generate is not None:
                    self._on_generate(packet)
            else:
                self.rejected += 1
        else:
            self.limited += 1
        delay = self._next_interval()
        if self._bucket is not None:
            # Don't wake before a token can exist: offering on the raw
            # arrival cadence quantizes the achieved rate to
            # d / ceil(d / limit), which for limits in (d/2, d) admits
            # only d/2 — far enough below the limit that GMP's
            # rate-limit condition reads the flow as "not achieving"
            # and stops probing upward, wedging it there.
            wait = self._bucket.next_available(self.sim.now) - self.sim.now
            if wait > delay:
                # The arrival process would have offered sooner; that
                # offer is suppressed by the limit.
                self.limited += 1
                delay = wait
        self._pending = self.sim.call_later(delay, self._tick, tag=self._tag)

    def _passes_rate_limit(self) -> bool:
        if self._bucket is None:
            return True
        return self._bucket.try_consume(self.sim.now)

    def _next_interval(self) -> float:
        raise NotImplementedError


class CbrSource(TrafficSource):
    """Constant-bit-rate arrivals at the flow's desirable rate.

    This is the paper's workload: every flow offers a fixed 800
    packets/second.
    """

    def _next_interval(self) -> float:
        return 1.0 / self.flow.desired_rate


class PoissonSource(TrafficSource):
    """Poisson arrivals with mean rate ``d(f)``."""

    def _next_interval(self) -> float:
        rng = self.sim.rng.stream(f"traffic.poisson.f{self.flow.flow_id}")
        return float(rng.exponential(1.0 / self.flow.desired_rate))


class OnOffSource(TrafficSource):
    """Exponential on/off bursts; CBR at ``peak_factor * d(f)`` while on.

    With the default mean on/off durations of 1 s each and
    ``peak_factor=2`` the long-run offered rate equals ``d(f)``.
    """

    def __init__(
        self,
        sim: Simulator,
        flow: Flow,
        admit: Callable[[Packet], bool],
        *,
        on_generate: Callable[[Packet], None] | None = None,
        mean_on: float = 1.0,
        mean_off: float = 1.0,
        peak_factor: float = 2.0,
    ) -> None:
        super().__init__(sim, flow, admit, on_generate=on_generate)
        if mean_on <= 0 or mean_off <= 0 or peak_factor <= 0:
            raise FlowError(
                f"flow {flow.flow_id}: on/off parameters must be positive"
            )
        self._mean_on = mean_on
        self._mean_off = mean_off
        self._peak_rate = peak_factor * flow.desired_rate
        self._on_until = 0.0

    def _next_interval(self) -> float:
        rng = self.sim.rng.stream(f"traffic.onoff.f{self.flow.flow_id}")
        spacing = 1.0 / self._peak_rate
        now = self.sim.now
        if now < self._on_until:
            return spacing
        # Burst ended: draw an off period, then a fresh on period.
        off = float(rng.exponential(self._mean_off))
        on = float(rng.exponential(self._mean_on))
        self._on_until = now + off + on
        return off + spacing


def pareto_draw(rng, mean: float, alpha: float) -> float:
    """One draw from a Pareto distribution with the given *mean*.

    The scale is solved from ``mean = alpha * x_m / (alpha - 1)``, so
    the long-run average matches an exponential of the same mean while
    the tail stays heavy (infinite variance for ``alpha <= 2``).

    Raises:
        FlowError: unless ``alpha > 1`` (the mean diverges otherwise)
            and ``mean > 0``.
    """
    if alpha <= 1.0:
        raise FlowError(f"pareto shape must exceed 1 for a finite mean: {alpha}")
    if mean <= 0:
        raise FlowError(f"pareto mean must be positive: {mean}")
    scale = mean * (alpha - 1.0) / alpha
    return scale * (1.0 + float(rng.pareto(alpha)))


class ParetoOnOffSource(TrafficSource):
    """Heavy-tailed phase switching: Pareto on/off durations.

    Bursts send CBR at ``peak_factor * d(f)``; both phase lengths are
    Pareto with shape ``alpha`` (default 1.5 — infinite variance), so a
    single flow occasionally holds the channel, or goes dark, for far
    longer than the exponential model ever would.  With equal mean
    on/off durations and ``peak_factor=2`` the long-run offered rate
    equals ``d(f)``.
    """

    def __init__(
        self,
        sim: Simulator,
        flow: Flow,
        admit: Callable[[Packet], bool],
        *,
        on_generate: Callable[[Packet], None] | None = None,
        mean_on: float = 1.0,
        mean_off: float = 1.0,
        alpha: float = 1.5,
        peak_factor: float = 2.0,
    ) -> None:
        super().__init__(sim, flow, admit, on_generate=on_generate)
        if mean_on <= 0 or mean_off <= 0 or peak_factor <= 0:
            raise FlowError(
                f"flow {flow.flow_id}: on/off parameters must be positive"
            )
        if alpha <= 1.0:
            raise FlowError(
                f"flow {flow.flow_id}: pareto shape must exceed 1, got {alpha}"
            )
        self._mean_on = mean_on
        self._mean_off = mean_off
        self._alpha = alpha
        self._peak_rate = peak_factor * flow.desired_rate
        self._on_until = 0.0

    def _next_interval(self) -> float:
        rng = self.sim.rng.stream(f"traffic.pareto.f{self.flow.flow_id}")
        spacing = 1.0 / self._peak_rate
        now = self.sim.now
        if now < self._on_until:
            return spacing
        off = pareto_draw(rng, self._mean_off, self._alpha)
        on = pareto_draw(rng, self._mean_on, self._alpha)
        self._on_until = now + off + on
        return off + spacing
