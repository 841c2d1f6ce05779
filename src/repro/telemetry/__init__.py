"""Telemetry: metrics, structured protocol events, and profiling.

The subsystem has three parts:

* :class:`~repro.telemetry.registry.MetricsRegistry` — counters,
  gauges, time-weighted histograms, and time-series probes keyed by
  node/link/flow labels (see :mod:`repro.telemetry.registry`);
* a bounded **event log** (:meth:`Telemetry.event`) for discrete,
  structured happenings — GMP rate adjustments, link-condition
  transitions, bandwidth violations — that analysis joins against.
  High-volume categories (``channel.tx``, one event per DCF frame) are
  opt-in: their emitters record only when :meth:`Telemetry.wants`
  the category, i.e. when the run named it in ``trace_categories``;
* kernel **profiling** (events per tag, handler wall time, events/sec)
  collected by the simulator when ``profile=True``.

A :class:`Telemetry` instance is attached to the
:class:`~repro.sim.kernel.Simulator` (``sim.telemetry``); every model
component instruments itself through it.  The default is the shared
:data:`NULL_TELEMETRY`, which is disabled: instrumented components
cache ``telemetry.enabled`` at construction and skip their hot-path
bookkeeping entirely, so an un-instrumented run costs nothing and
dispatches exactly the same events as before the subsystem existed —
telemetry never schedules simulation events, even when enabled.

Exporters live in :mod:`repro.telemetry.exporters`: the JSONL records
that :mod:`repro.obs.stream` writes, Chrome ``trace_event`` JSON for
Perfetto / ``about:tracing`` timelines, and a plain-text summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Instrument,
    MetricsRegistry,
    SampleHistogram,
    Series,
    TimeWeightedHistogram,
    stable_instrument_key,
)

#: Cap on stored telemetry events; excess events are counted, not kept.
DEFAULT_EVENT_LIMIT = 200_000


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured event: time, dotted category, free-form fields."""

    time: float
    category: str
    fields: dict[str, Any] = field(default_factory=dict)


class Telemetry:
    """Facade bundling the metrics registry, the event log, and the
    profiling switches for one run.

    Args:
        enabled: master switch; a disabled instance stores nothing.
        profile: also measure per-event-tag wall time in the kernel
            (adds two clock reads per dispatched event, so it is a
            separate opt-in on top of ``enabled``).
        series_limit: default point cap per time series.
        event_limit: cap on stored events; the excess is counted in
            :attr:`events_dropped`.
        trace_categories: opt-in categories to record on top of the
            always-on protocol events: exact names, or prefixes ending
            in ``*`` (``"channel.*"``; ``"*"`` alone admits all).

    A Telemetry instance accumulates for its lifetime — hand a fresh
    one to each :meth:`~repro.scenarios.spec.RunSpec.run` call.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        profile: bool = False,
        series_limit: int | None = None,
        event_limit: int = DEFAULT_EVENT_LIMIT,
        trace_categories: Iterable[str] = (),
    ) -> None:
        self.enabled = enabled
        self.profile = profile and enabled
        if series_limit is not None:
            self.registry = MetricsRegistry(
                enabled=enabled, series_limit=series_limit
            )
        else:
            self.registry = MetricsRegistry(enabled=enabled)
        self._event_limit = event_limit
        self.trace_categories = tuple(trace_categories)
        self.events: list[TelemetryEvent] = []
        self.events_dropped = 0
        self.run_info: dict[str, Any] = {}

    def wants(self, category: str) -> bool:
        """True if this run asked for the opt-in ``category``.  Emitters
        check it once, at construction, before recording events of it."""
        return self.enabled and any(
            category == entry
            or (entry.endswith("*") and category.startswith(entry[:-1]))
            for entry in self.trace_categories
        )

    def event(self, time: float, category: str, **fields: Any) -> None:
        """Record one structured event (no-op when disabled)."""
        if not self.enabled:
            return
        if len(self.events) >= self._event_limit:
            self.events_dropped += 1
            return
        self.events.append(TelemetryEvent(time=time, category=category, fields=fields))

    def events_in(self, category: str) -> list[TelemetryEvent]:
        """Stored events of one exact category, in time order."""
        return [event for event in self.events if event.category == category]

    def finalize(self, now: float) -> None:
        """Close open measurement intervals at the end of a run."""
        self.registry.finalize(now)


#: Shared disabled instance used wherever no telemetry was requested.
NULL_TELEMETRY = Telemetry(enabled=False)

__all__ = [
    "Counter",
    "Gauge",
    "Instrument",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "SampleHistogram",
    "Series",
    "Telemetry",
    "TelemetryEvent",
    "TimeWeightedHistogram",
    "stable_instrument_key",
]
