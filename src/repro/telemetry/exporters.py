"""Telemetry exporters.

* JSONL record builders — :func:`run_record`, :func:`instrument_record`,
  :func:`sample_record` and :func:`event_record` build the dict-shaped
  lines of a ``--metrics-out`` file: a ``run`` header,
  counter/gauge/histogram snapshots, one ``sample`` line per
  time-series point, and one ``event`` line per structured event.
  :class:`repro.obs.stream.StreamPublisher` writes them while the run
  is in flight; the file loads straight into pandas
  (``pd.read_json(path, lines=True)``).
* :func:`write_chrome_trace` — Chrome ``trace_event`` JSON: series
  become counter tracks, telemetry events (DCF ``channel.tx`` frames
  included) become instant events on per-subsystem threads.  Load the file in
  Perfetto (https://ui.perfetto.dev) or ``about:tracing``; simulation
  seconds are mapped to trace microseconds 1:1.
* :func:`format_summary` — plain-text run summary (kernel profile,
  top counters, event counts) for terminals and logs.
"""

from __future__ import annotations

import json
from typing import Any

from repro.telemetry import Telemetry
from repro.telemetry.registry import (
    Counter,
    Gauge,
    SampleHistogram,
    Series,
    TimeWeightedHistogram,
    stable_instrument_key,
)

#: Simulation seconds -> trace microseconds.
_TRACE_US = 1_000_000.0


def _label_suffix(labels: dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _jsonable(fields: dict[str, Any]) -> dict[str, Any]:
    return {
        key: value
        if isinstance(value, (int, float, str, bool, type(None)))
        else str(value)
        for key, value in fields.items()
    }


# --- JSONL ---------------------------------------------------------------------


def run_record(info: dict[str, Any]) -> dict[str, Any]:
    """The ``run`` header record for ``info``."""
    return {"record": "run", **_jsonable(info)}


def instrument_record(instrument: Any) -> dict[str, Any]:
    """The snapshot/header record for one instrument (a series'
    sample lines are separate — see :func:`sample_record`)."""
    base = {
        "record": instrument.kind,
        "name": instrument.name,
        "labels": _jsonable(instrument.labels),
    }
    if isinstance(instrument, (Counter, Gauge)):
        return {**base, "value": instrument.value}
    if isinstance(instrument, (TimeWeightedHistogram, SampleHistogram)):
        return {**base, **instrument.snapshot()}
    if isinstance(instrument, Series):
        return {**base, "points": len(instrument), "dropped": instrument.dropped}
    return {**base, **instrument.snapshot()}


def sample_record(instrument: Series, t: float, v: float) -> dict[str, Any]:
    """One series point as a ``sample`` record."""
    return {
        "record": "sample",
        "name": instrument.name,
        "labels": _jsonable(instrument.labels),
        "t": t,
        "v": v,
    }


def event_record(event: Any) -> dict[str, Any]:
    """One telemetry event as an ``event`` record."""
    return {
        "record": "event",
        "t": event.time,
        "category": event.category,
        "fields": _jsonable(event.fields),
    }


# --- Chrome trace_event --------------------------------------------------------

#: Stable thread ids per subsystem (top-level category segment).
_SUBSYSTEM_TIDS = {
    "kernel": 1,
    "mac": 2,
    "channel": 2,
    "buffer": 3,
    "gmp": 4,
    "flow": 5,
    "traffic": 5,
    "runner": 6,
}
_DEFAULT_TID = 8
_PID = 1


def _tid_for(category: str) -> int:
    return _SUBSYSTEM_TIDS.get(category.split(".", 1)[0], _DEFAULT_TID)


def write_chrome_trace(
    path: str,
    telemetry: Telemetry,
    *,
    run_info: dict[str, Any] | None = None,
) -> int:
    """Write a Chrome ``trace_event`` JSON file.

    Series become counter tracks (``ph: "C"``); telemetry events become
    instant events (``ph: "i"``) on per-subsystem threads.  Returns the
    number of trace events written.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro simulation"},
        }
    ]
    named: set[int] = set()

    def name_thread(tid: int, name: str) -> None:
        if tid not in named:
            named.add(tid)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _PID,
                    "tid": tid,
                    "args": {"name": name},
                }
            )

    for subsystem, tid in sorted(_SUBSYSTEM_TIDS.items(), key=lambda kv: kv[1]):
        # First registration wins for shared tids (mac/channel, flow/traffic).
        name_thread(tid, subsystem)
    name_thread(_DEFAULT_TID, "other")

    count = 0
    for instrument in telemetry.registry.instruments():
        if not isinstance(instrument, Series):
            continue
        track = instrument.name + _label_suffix(instrument.labels)
        for t, v in zip(instrument.times, instrument.values):
            events.append(
                {
                    "name": track,
                    "ph": "C",
                    "ts": t * _TRACE_US,
                    "pid": _PID,
                    "tid": _tid_for(instrument.name),
                    "args": {"value": v},
                }
            )
            count += 1

    for event in telemetry.events:
        events.append(
            {
                "name": event.category,
                "ph": "i",
                "s": "t",
                "ts": event.time * _TRACE_US,
                "pid": _PID,
                "tid": _tid_for(event.category),
                "args": _jsonable(event.fields),
            }
        )
        count += 1

    payload: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    info = {**telemetry.run_info, **(run_info or {})}
    if telemetry.events_dropped:
        # A capped event log must not pass for a complete one.
        info["events_dropped"] = telemetry.events_dropped
    if info:
        payload["otherData"] = _jsonable(info)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, default=str)
    return count


# --- plain-text summary --------------------------------------------------------


def format_summary(telemetry: Telemetry, *, top: int = 12) -> str:
    """Human-readable run summary: kernel profile, largest counters,
    series sizes, and event counts by category."""
    lines: list[str] = ["telemetry summary", "================="]

    tag_counts = [
        (instrument.labels.get("tag", "?"), instrument.value)
        for instrument in telemetry.registry.instruments("kernel.events_by_tag")
    ]
    if tag_counts:
        lines.append("")
        lines.append("kernel: dispatched events by tag")
        wall = {
            instrument.labels.get("tag", "?"): instrument.value
            for instrument in telemetry.registry.instruments(
                "kernel.handler_wall_seconds"
            )
        }
        for tag, value in sorted(tag_counts, key=lambda kv: (-kv[1], kv[0]))[:top]:
            suffix = f"  {wall[tag] * 1e3:10.2f} ms" if tag in wall else ""
            lines.append(f"  {tag:<28} {int(value):>10}{suffix}")
        throughput = next(
            iter(telemetry.registry.instruments("kernel.events_per_sec")), None
        )
        if throughput is not None and getattr(throughput, "value", None):
            lines.append(f"  events/sec (wall): {throughput.value:,.0f}")

    hists = [
        instrument
        for instrument in telemetry.registry.instruments("kernel.handler_wall_hist")
        if isinstance(instrument, SampleHistogram) and instrument.count
    ]
    if hists:
        lines.append("")
        lines.append("kernel: handler wall time (top by total, us)")
        header = (
            f"  {'tag':<28} {'count':>10} {'p50':>9} {'p95':>9}"
            f" {'p99':>9} {'total ms':>10}"
        )
        lines.append(header)
        # Rank by where the wall time actually went, not call count.
        for hist in sorted(
            hists, key=lambda h: (-h.total, stable_instrument_key(h))
        )[:top]:
            tag = hist.labels.get("tag", "?")
            lines.append(
                f"  {tag:<28} {hist.count:>10}"
                f" {hist.quantile(0.50) * 1e6:>9.1f}"
                f" {hist.quantile(0.95) * 1e6:>9.1f}"
                f" {hist.quantile(0.99) * 1e6:>9.1f}"
                f" {hist.total * 1e3:>10.2f}"
            )

    counters = [
        instrument
        for instrument in telemetry.registry.instruments()
        if isinstance(instrument, Counter)
        and instrument.name != "kernel.events_by_tag"
        and instrument.value > 0
    ]
    if counters:
        lines.append("")
        lines.append(f"top counters (of {len(counters)} non-zero)")
        # Rank by value; break ties with the canonical instrument key
        # so equal counters cannot swap lines between runs.
        for instrument in sorted(
            counters, key=lambda c: (-c.value, stable_instrument_key(c))
        )[:top]:
            lines.append(
                f"  {instrument.name + _label_suffix(instrument.labels):<44}"
                f" {instrument.value:>12.3f}"
            )

    series = [
        instrument
        for instrument in telemetry.registry.instruments()
        if isinstance(instrument, Series) and len(instrument)
    ]
    if series:
        lines.append("")
        lines.append(f"time series: {len(series)} populated")
        total = sum(len(s) for s in series)
        dropped = sum(s.dropped for s in series)
        lines.append(f"  {total} points stored, {dropped} dropped")

    if telemetry.events:
        lines.append("")
        lines.append("events by category")
        by_category: dict[str, int] = {}
        for event in telemetry.events:
            by_category[event.category] = by_category.get(event.category, 0) + 1
        for category in sorted(by_category):
            lines.append(f"  {category:<28} {by_category[category]:>10}")
        if telemetry.events_dropped:
            lines.append(f"  (+{telemetry.events_dropped} dropped at the cap)")

    return "\n".join(lines)


# --- Prometheus text exposition -------------------------------------------------


def _prom_name(name: str, suffix: str = "") -> str:
    """``repro.`` metric name -> Prometheus metric name.

    Dots and every other illegal character become underscores, and all
    metrics share the ``repro_`` namespace prefix.
    """
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}{suffix}"


def _prom_escape(value: Any) -> str:
    text = str(value)
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_labels(labels: dict[str, Any], extra: str = "") -> str:
    parts = [
        f'{key}="{_prom_escape(value)}"' for key, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _prom_float(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(float(value))


def _prom_histogram_lines(
    name: str,
    labels: dict[str, Any],
    bounds: tuple[float, ...],
    per_bucket: list[float],
    total: float,
    count: float,
) -> list[str]:
    """Cumulative ``_bucket``/``_sum``/``_count`` lines for one
    histogram instrument (works for both counted and time-weighted
    buckets — Prometheus histograms only require monotone buckets)."""
    lines = []
    cumulative = 0.0
    for bound, in_bucket in zip(bounds, per_bucket):
        cumulative += in_bucket
        le = 'le="' + _prom_float(bound) + '"'
        lines.append(
            f"{name}_bucket{_prom_labels(labels, le)} {_prom_float(cumulative)}"
        )
    cumulative += per_bucket[len(bounds)] if len(per_bucket) > len(bounds) else 0.0
    lines.append(
        f"{name}_bucket" + _prom_labels(labels, 'le="+Inf"')
        + f" {_prom_float(cumulative)}"
    )
    lines.append(f"{name}_sum{_prom_labels(labels)} {_prom_float(total)}")
    lines.append(f"{name}_count{_prom_labels(labels)} {_prom_float(count)}")
    return lines


def render_metrics_prometheus(telemetry: Telemetry) -> str:
    """Render the registry in Prometheus text exposition format 0.0.4.

    Instruments are walked in ``stable_instrument_key`` order, so two
    renders of the same registry are byte-identical.  Mapping:

    * counters -> ``repro_<name>_total`` (``TYPE counter``);
    * gauges -> ``repro_<name>`` (unset gauges are skipped);
    * sample histograms -> cumulative ``_bucket``/``_sum``/``_count``;
    * time-weighted histograms -> the same shape with seconds-in-bucket
      as the (monotone) bucket values;
    * series -> a gauge of the most recent value, plus a
      ``_points_total`` counter of stored points.
    """
    groups: dict[tuple[str, str, str], list[str]] = {}

    def emit(kind: str, prom_name: str, prom_type: str, lines: list[str]) -> None:
        group = groups.setdefault((kind, prom_name, prom_type), [])
        group.extend(lines)

    for instrument in telemetry.registry.instruments():
        labels = instrument.labels
        if isinstance(instrument, Counter):
            name = _prom_name(instrument.name, "_total")
            emit(
                "counter",
                name,
                "counter",
                [f"{name}{_prom_labels(labels)} {_prom_float(instrument.value)}"],
            )
        elif isinstance(instrument, Gauge):
            if instrument.value is None:
                continue
            name = _prom_name(instrument.name)
            emit(
                "gauge",
                name,
                "gauge",
                [f"{name}{_prom_labels(labels)} {_prom_float(instrument.value)}"],
            )
        elif isinstance(instrument, SampleHistogram):
            name = _prom_name(instrument.name)
            emit(
                "sample_histogram",
                name,
                "histogram",
                _prom_histogram_lines(
                    name,
                    labels,
                    instrument.bounds,
                    [float(c) for c in instrument.bucket_counts],
                    instrument.total,
                    float(instrument.count),
                ),
            )
        elif isinstance(instrument, TimeWeightedHistogram):
            name = _prom_name(instrument.name, "_seconds")
            emit(
                "histogram",
                name,
                "histogram",
                _prom_histogram_lines(
                    name,
                    labels,
                    instrument.bounds,
                    list(instrument.bucket_time),
                    instrument.weighted_sum,
                    instrument.total_time,
                ),
            )
        elif isinstance(instrument, Series):
            if not instrument.values:
                continue
            name = _prom_name(instrument.name)
            emit(
                "series",
                name,
                "gauge",
                [f"{name}{_prom_labels(labels)} {_prom_float(instrument.values[-1])}"],
            )
            points = _prom_name(instrument.name, "_points_total")
            emit(
                "series_points",
                points,
                "counter",
                [f"{points}{_prom_labels(labels)} {_prom_float(len(instrument))}"],
            )

    out: list[str] = []
    seen_types: set[str] = set()
    for (_kind, prom_name, prom_type), lines in groups.items():
        if prom_name not in seen_types:
            seen_types.add(prom_name)
            out.append(f"# TYPE {prom_name} {prom_type}")
        out.extend(lines)
    if telemetry.events:
        name = "repro_telemetry_events_total"
        out.append(f"# TYPE {name} counter")
        by_category: dict[str, int] = {}
        for event in telemetry.events:
            by_category[event.category] = by_category.get(event.category, 0) + 1
        for category in sorted(by_category):
            out.append(
                f'{name}{{category="{_prom_escape(category)}"}} '
                f"{_prom_float(by_category[category])}"
            )
    return "\n".join(out) + "\n" if out else ""
