"""The metrics registry: counters, gauges, time-weighted histograms,
and time-series probes, keyed by name + labels.

Design goals, in order:

1. **Zero cost when absent.**  A run without telemetry has no
   registry at all: instrumented components cache ``sim.telemetry``
   at construction and their hot paths skip every instrument call
   when it is ``None``.
2. **Deterministic.**  Instruments never touch wall clocks or RNGs;
   every timestamp is supplied by the caller (simulation time), so an
   instrumented run replays identically.
3. **Flat, greppable naming.**  Metric names are dotted
   (``mac.airtime_seconds``); labels are keyword arguments
   (``node=3``, ``link="1->2"``, ``flow=2``, ``state="full"``).  The
   same (name, labels) pair always returns the same instrument.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Iterator

from repro.errors import ConfigError

#: Default cap on stored points per time series; excess points are
#: counted in ``Series.dropped`` instead of silently vanishing.
DEFAULT_SERIES_LIMIT = 100_000

LabelKey = tuple[tuple[str, Any], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


def stable_instrument_key(
    instrument: "Instrument",
) -> tuple[str, str, tuple[tuple[str, str], ...]]:
    """Canonical ``(kind, name, sorted stringified labels)`` sort key.

    The one ordering every consumer of labeled instruments — the
    registry iterator, the exporters, tests — must share.  Label
    values are stringified so mixed int/str labels under the same
    metric name stay comparable; nothing here depends on ``id()``,
    ``repr()`` formatting, or hash order.
    """
    return (
        instrument.kind,
        instrument.name,
        tuple(
            (key, str(value))
            for key, value in sorted(instrument.labels.items())
        ),
    )


class Instrument:
    """Base class: identity (name + labels) and export plumbing."""

    kind = "instrument"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = dict(labels)

    def snapshot(self) -> dict[str, Any]:
        """Exportable view of the current value(s)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tags = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        return f"<{type(self).__name__} {self.name}{{{tags}}}>"


class Counter(Instrument):
    """Monotonically increasing count (packets, retries, seconds)."""

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge(Instrument):
    """Last-written value (queue length, events/sec, rate limit)."""

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        super().__init__(name, labels)
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict[str, Any]:
        return {"value": self.value}


class TimeWeightedHistogram(Instrument):
    """Dwell time per value bucket.

    Tracks a piecewise-constant signal (queue length, saturation
    state index): :meth:`update` closes the dwell interval of the
    previous value and opens one for the new value.  ``bucket_time[i]``
    is the total time spent with ``bounds[i-1] < value <= bounds[i]``
    (first bucket: ``value <= bounds[0]``; last: above every bound).
    """

    kind = "histogram"

    def __init__(
        self, name: str, labels: dict[str, Any], bounds: tuple[float, ...]
    ) -> None:
        super().__init__(name, labels)
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigError(
                f"histogram {name} needs sorted, non-empty bounds: {bounds}"
            )
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_time = [0.0] * (len(self.bounds) + 1)
        self._current: float | None = None
        self._since = 0.0
        self.weighted_sum = 0.0  # integral of value over time
        self.total_time = 0.0

    def update(self, now: float, value: float) -> None:
        """The signal takes ``value`` from ``now`` on."""
        self._accumulate(now)
        self._current = float(value)
        self._since = now

    def finalize(self, now: float) -> None:
        """Close the open dwell interval at the end of a run."""
        self._accumulate(now)
        self._since = now

    def _accumulate(self, now: float) -> None:
        if self._current is None:
            return
        dwell = now - self._since
        if dwell <= 0:
            return
        index = bisect.bisect_left(self.bounds, self._current)
        self.bucket_time[index] += dwell
        self.weighted_sum += self._current * dwell
        self.total_time += dwell

    @property
    def time_weighted_mean(self) -> float:
        """Time-average of the signal (0.0 before any dwell closes)."""
        if self.total_time <= 0:
            return 0.0
        return self.weighted_sum / self.total_time

    def snapshot(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "bucket_time": list(self.bucket_time),
            "time_weighted_mean": self.time_weighted_mean,
            "total_time": self.total_time,
        }


class Series(Instrument):
    """Append-only (time, value) probe with change compression.

    :meth:`record` stores every sample; :meth:`record_changed` skips
    samples equal to the previous value, which keeps long steady-state
    stretches from bloating the export while preserving the exact
    trajectory of a piecewise-constant signal.  A full series counts
    further samples in ``dropped`` rather than silently vanishing.
    """

    kind = "series"

    def __init__(
        self, name: str, labels: dict[str, Any], limit: int | None
    ) -> None:
        super().__init__(name, labels)
        self.times: list[float] = []
        self.values: list[float] = []
        self.limit = limit
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.times)

    def record(self, now: float, value: float) -> None:
        if self.limit is not None and len(self.times) >= self.limit:
            self.dropped += 1
            return
        self.times.append(now)
        self.values.append(float(value))

    def record_changed(self, now: float, value: float) -> None:
        """Record only if ``value`` differs from the last sample."""
        if self.values and self.values[-1] == value:
            return
        self.record(now, value)

    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.times, self.values))

    def snapshot(self) -> dict[str, Any]:
        return {
            "points": [[t, v] for t, v in zip(self.times, self.values)],
            "dropped": self.dropped,
        }


class SampleHistogram(Instrument):
    """Count-per-bucket distribution of individual observations.

    Unlike :class:`TimeWeightedHistogram` (dwell time of a
    piecewise-constant signal), this counts discrete samples — handler
    wall times, batch sizes — and answers quantile queries by linear
    interpolation inside the bucket that crosses the requested rank.
    ``bucket_counts[i]`` is the number of observations with
    ``bounds[i-1] < value <= bounds[i]`` (first bucket: ``value <=
    bounds[0]``; last: above every bound).
    """

    kind = "sample_histogram"

    def __init__(
        self, name: str, labels: dict[str, Any], bounds: tuple[float, ...]
    ) -> None:
        super().__init__(name, labels)
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigError(
                f"sample histogram {name} needs sorted, non-empty bounds: {bounds}"
            )
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def merge_counts(self, bucket_counts: list[int], total: float) -> None:
        """Fold pre-bucketed counts in (the kernel buckets during the
        run and merges once at the end, keeping the hot path flat)."""
        if len(bucket_counts) != len(self.bucket_counts):
            raise ConfigError(
                f"sample histogram {self.name} merge width mismatch: "
                f"{len(bucket_counts)} != {len(self.bucket_counts)}"
            )
        for index, extra in enumerate(bucket_counts):
            self.bucket_counts[index] += extra
        self.count += sum(bucket_counts)
        self.total += total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) from the buckets.

        Interpolates linearly inside the crossing bucket; observations
        above every bound report the last bound (a floor — exact values
        were never kept).
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must lie in [0, 1]: {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket in enumerate(self.bucket_counts):
            if bucket == 0:
                continue
            if cumulative + bucket >= rank:
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.bounds[-1]
                )
                lower = self.bounds[index - 1] if index > 0 else 0.0
                if index >= len(self.bounds):
                    return upper
                fraction = (rank - cumulative) / bucket
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += bucket
        return self.bounds[-1]

    def snapshot(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Factory and store for instruments.

    Args:
        series_limit: default point cap for :class:`Series` probes.
    """

    def __init__(
        self,
        *,
        series_limit: int | None = DEFAULT_SERIES_LIMIT,
    ) -> None:
        self.series_limit = series_limit
        self._instruments: dict[tuple[str, str, LabelKey], Instrument] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def _get(
        self,
        kind: str,
        name: str,
        labels: dict[str, Any],
        factory: Callable[[], Instrument],
    ) -> Instrument:
        key = (kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels, lambda: Counter(name, labels))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels, lambda: Gauge(name, labels))

    def histogram(
        self, name: str, bounds: tuple[float, ...], **labels: Any
    ) -> TimeWeightedHistogram:
        return self._get(
            "histogram",
            name,
            labels,
            lambda: TimeWeightedHistogram(name, labels, bounds),
        )

    def sample_histogram(
        self, name: str, bounds: tuple[float, ...], **labels: Any
    ) -> SampleHistogram:
        return self._get(
            "sample_histogram",
            name,
            labels,
            lambda: SampleHistogram(name, labels, bounds),
        )

    def series(
        self, name: str, *, limit: int | None = None, **labels: Any
    ) -> Series:
        cap = self.series_limit if limit is None else limit
        return self._get(
            "series", name, labels, lambda: Series(name, labels, cap)
        )

    def instruments(self, name: str | None = None) -> Iterator[Instrument]:
        """All instruments (optionally filtered by exact name), in
        the canonical :func:`stable_instrument_key` order."""
        for instrument in sorted(
            self._instruments.values(), key=stable_instrument_key
        ):
            if name is None or instrument.name == name:
                yield instrument

    def finalize(self, now: float) -> None:
        """Close every histogram's open dwell interval."""
        for instrument in self._instruments.values():
            if isinstance(instrument, TimeWeightedHistogram):
                instrument.finalize(now)
