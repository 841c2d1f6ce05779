"""Traffic sources.

A traffic source repeatedly *offers* packets for its flow to the node
stack through an ``admit`` callback.  Offers are shaped twice:

* by the flow's own arrival process (CBR / Poisson / on-off) at the
  desirable rate ``d(f)``;
* by the self-imposed rate limit, enforced with a
  :class:`~repro.flows.rate_limiter.TokenBucket` (GMP adjusts this
  limit; the baselines leave it unset).

If the source queue is full (buffer-based backpressure has reached
the source: the ``room`` probe or ``admit`` says no), the packet is
simply not generated, modeling the paper's "the flow source will
generate new packets at a smaller rate if the network cannot deliver
its desirable rate".
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator

from repro.errors import FlowError
from repro.flows.flow import Flow
from repro.flows.packet import Packet
from repro.flows.rate_limiter import TokenBucket
from repro.sim.kernel import Simulator


#: Poisson gaps drawn per numpy call.  A sized draw fills its array
#: element by element with the scalar sampler, so the gaps are the
#: floats one scalar draw each would give, whatever the block size.
GAP_BLOCK = 256


class TrafficSource:
    """Base class: offer scheduling, rate limiting, and counters.

    Subclasses define the arrival process via :meth:`_intervals`, the
    gaps between offers as an iterator; it is made at :meth:`start` and
    first advanced at the first tick, so a stream it draws from is
    created when the first gap is drawn.

    Args:
        sim: simulation kernel.
        flow: the flow this source feeds.
        admit: callback invoked with each generated packet; returns
            True if the node stack accepted it.
        on_generate: optional hook invoked on every *accepted* packet
            (GMP uses it to piggyback normalized rates).
        room: optional ``room(flow_id, destination)`` probe, False exactly
            when ``admit`` would refuse; such an offer builds no packet.
    """

    def __init__(
        self,
        sim: Simulator,
        flow: Flow,
        admit: Callable[[Packet], bool],
        *,
        on_generate: Callable[[Packet], None] | None = None,
        room: Callable[[int, int], bool] | None = None,
    ) -> None:
        self.sim = sim
        self.flow = flow
        self._admit = admit
        self._on_generate = on_generate
        self._room = room
        self._seq = itertools.count()  # numbers this flow's packets
        self._tag = f"traffic.f{flow.flow_id}"  # kernel tag of every tick
        self._bucket: TokenBucket | None = None
        self._started = False
        self._paused = False
        self._stopped = False
        self._pending = None  # the tick Event, re-armed; None when paused or stopped
        self._rearm = sim.rearm
        self._gaps: Iterator[float] = iter(())  # the arrival process, from start()
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
        self._gaps = self._intervals()
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
                next(self._gaps), self._tick, tag=self._tag
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
        now = self.sim.now
        bucket = self._bucket
        if bucket is None:
            taken = True
            ready_at = now  # no limit, no wait
        else:
            # The offer's token and the next token's time, from one
            # refill (the admit path below never touches the limit).
            taken, ready_at = bucket.take(now)
        if taken:
            self.generated += 1
            flow = self.flow
            room = self._room
            if room is not None and not room(flow.flow_id, flow.destination):
                self.rejected += 1
            else:
                packet = Packet(
                    flow.flow_id,
                    flow.source,
                    flow.destination,
                    flow.packet_bytes,
                    now,
                    next(self._seq),
                )
                if self._admit(packet):
                    self.admitted += 1
                    if self._on_generate is not None:
                        self._on_generate(packet)
                else:
                    self.rejected += 1
        else:
            self.limited += 1
        delay = next(self._gaps)
        # Don't wake before a token can exist: offering on the raw
        # arrival cadence quantizes the achieved rate to
        # d / ceil(d / limit), which for limits in (d/2, d) admits only
        # d/2 — far enough below the limit that GMP's rate-limit
        # condition reads the flow as "not achieving" and stops probing
        # upward, wedging it there.
        wait = ready_at - now
        if wait > delay:
            # The arrival process would have offered sooner; that offer
            # is suppressed by the limit.
            self.limited += 1
            delay = wait
        if self._pending is not None:  # None: paused or stopped mid-tick
            self._rearm(self._pending, delay)

    def _intervals(self) -> Iterator[float]:
        raise NotImplementedError


class CbrSource(TrafficSource):
    """Constant-bit-rate arrivals at the flow's desirable rate.

    This is the paper's workload: every flow offers a fixed 800
    packets/second.
    """

    def _intervals(self) -> Iterator[float]:
        return itertools.repeat(1.0 / self.flow.desired_rate)


class PoissonSource(TrafficSource):
    """Poisson arrivals with mean rate ``d(f)``, drawn :data:`GAP_BLOCK`
    gaps at a time."""

    def _intervals(self) -> Iterator[float]:
        return itertools.chain.from_iterable(self._gap_blocks())

    def _gap_blocks(self) -> Iterator[list[float]]:
        rng = self.sim.rng.stream(f"traffic.poisson.f{self.flow.flow_id}")
        mean_gap = 1.0 / self.flow.desired_rate
        while True:
            yield rng.exponential(mean_gap, size=GAP_BLOCK).tolist()


class OnOffSource(TrafficSource):
    """Exponential on/off bursts; CBR at ``peak_factor * d(f)`` while on.

    With the default mean on/off durations of 1 s each and
    ``peak_factor=2`` the long-run offered rate equals ``d(f)``.
    """

    _stream = "traffic.onoff"  # + ".f<flow id>": the phase draws' stream

    def __init__(
        self,
        sim: Simulator,
        flow: Flow,
        admit: Callable[[Packet], bool],
        *,
        on_generate: Callable[[Packet], None] | None = None,
        room: Callable[[int, int], bool] | None = None,
        mean_on: float = 1.0,
        mean_off: float = 1.0,
        peak_factor: float = 2.0,
    ) -> None:
        super().__init__(sim, flow, admit, on_generate=on_generate, room=room)
        if mean_on <= 0 or mean_off <= 0 or peak_factor <= 0:
            raise FlowError(
                f"flow {flow.flow_id}: on/off parameters must be positive"
            )
        self._mean_on = mean_on
        self._mean_off = mean_off
        self._peak_rate = peak_factor * flow.desired_rate

    def _phases(self, rng: Any) -> tuple[float, float]:
        """An off period, then the next on period."""
        return float(rng.exponential(self._mean_off)), float(rng.exponential(self._mean_on))

    def _intervals(self) -> Iterator[float]:
        # The spacing while a burst lasts; once it has ended, an off
        # period and then a fresh on period.
        sim = self.sim
        rng = sim.rng.stream(f"{self._stream}.f{self.flow.flow_id}")
        spacing = 1.0 / self._peak_rate
        on_until = 0.0
        while True:
            now = sim.now
            if now < on_until:
                yield spacing
            else:
                off, on = self._phases(rng)
                on_until = now + off + on
                yield off + spacing


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


class ParetoOnOffSource(OnOffSource):
    """Heavy-tailed phase switching: Pareto on/off durations.

    Bursts send CBR at ``peak_factor * d(f)``; both phase lengths are
    Pareto with shape ``alpha`` (default 1.5 — infinite variance), so a
    single flow occasionally holds the channel, or goes dark, for far
    longer than the exponential model ever would.  With equal mean
    on/off durations and ``peak_factor=2`` the long-run offered rate
    equals ``d(f)``.
    """

    _stream = "traffic.pareto"

    def __init__(
        self,
        sim: Simulator,
        flow: Flow,
        admit: Callable[[Packet], bool],
        *,
        alpha: float = 1.5,
        **options: Any,
    ) -> None:
        """``options`` are :class:`OnOffSource`'s keyword arguments."""
        super().__init__(sim, flow, admit, **options)
        if alpha <= 1.0:
            raise FlowError(
                f"flow {flow.flow_id}: pareto shape must exceed 1, got {alpha}"
            )
        self._alpha = alpha

    def _phases(self, rng: Any) -> tuple[float, float]:
        return (
            pareto_draw(rng, self._mean_off, self._alpha),
            pareto_draw(rng, self._mean_on, self._alpha),
        )
