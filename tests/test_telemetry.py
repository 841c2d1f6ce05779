"""Tests for the telemetry subsystem: registry, facade, exporters,
and the kernel's profiling hooks."""

import json

import pytest

from repro.errors import ConfigError
from repro.sim.kernel import Simulator
from repro.telemetry import (
    NULL_TELEMETRY,
    MetricsRegistry,
    Telemetry,
)
from repro.telemetry.exporters import format_summary, write_chrome_trace
from repro.telemetry.registry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_SERIES,
)

from helpers import stream_file


# ---------------------------------------------------------------- registry


def test_registry_interns_by_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("mac.retries", node=1)
    b = registry.counter("mac.retries", node=1)
    c = registry.counter("mac.retries", node=2)
    assert a is b
    assert a is not c


def test_counter_accumulates_and_rejects_decrease():
    registry = MetricsRegistry()
    counter = registry.counter("x")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ConfigError):
        counter.inc(-1.0)


def test_gauge_keeps_last_value():
    gauge = MetricsRegistry().gauge("kernel.events_per_sec")
    assert gauge.value is None
    gauge.set(10.0)
    gauge.set(4.0)
    assert gauge.value == 4.0


def test_histogram_dwell_accounting():
    registry = MetricsRegistry()
    hist = registry.histogram("buffer.fullness", (0.5,), node=0)
    hist.update(0.0, 0.0)  # empty from t=0
    hist.update(4.0, 1.0)  # full from t=4
    hist.finalize(10.0)
    assert hist.bucket_time == [4.0, 6.0]
    assert hist.total_time == 10.0
    assert hist.time_weighted_mean == pytest.approx(0.6)


def test_histogram_rejects_bad_bounds():
    registry = MetricsRegistry()
    with pytest.raises(ConfigError):
        registry.histogram("bad", (2.0, 1.0))
    with pytest.raises(ConfigError):
        registry.histogram("empty", ())


def test_series_change_compression_and_limit():
    registry = MetricsRegistry(series_limit=3)
    series = registry.series("buffer.queue_len", node=0, dest=3)
    series.record_changed(0.0, 1.0)
    series.record_changed(1.0, 1.0)  # unchanged: skipped
    series.record_changed(2.0, 2.0)
    series.record(3.0, 2.0)  # plain record keeps duplicates
    series.record(4.0, 5.0)  # over the limit
    assert series.points() == [(0.0, 1.0), (2.0, 2.0), (3.0, 2.0)]
    assert series.dropped == 1


def test_disabled_registry_hands_out_null_singletons():
    registry = MetricsRegistry(enabled=False)
    assert registry.counter("x") is NULL_COUNTER
    assert registry.gauge("x") is NULL_GAUGE
    assert registry.histogram("x", (1.0,)) is NULL_HISTOGRAM
    assert registry.series("x") is NULL_SERIES
    registry.counter("x").inc(5.0)
    registry.gauge("x").set(1.0)
    registry.series("x").record(0.0, 1.0)
    assert NULL_COUNTER.value == 0.0
    assert NULL_GAUGE.value is None
    assert len(NULL_SERIES) == 0
    assert len(registry) == 0


def test_instruments_filter_and_deterministic_order():
    registry = MetricsRegistry()
    registry.counter("b.two", node=2)
    registry.counter("b.two", node=1)
    registry.gauge("a.one")
    first = [repr(i) for i in registry.instruments()]
    assert first == [repr(i) for i in registry.instruments()]
    only = list(registry.instruments("b.two"))
    assert [i.labels["node"] for i in only] == [1, 2]


# ----------------------------------------------------------------- facade


def test_event_log_caps_and_counts_drops():
    telemetry = Telemetry(event_limit=2)
    telemetry.event(0.0, "gmp.adjust", flow=1)
    telemetry.event(1.0, "mac.drop", node=2)
    telemetry.event(2.0, "gmp.adjust", flow=2)
    assert len(telemetry.events) == 2
    assert telemetry.events_dropped == 1
    assert [e.fields["flow"] for e in telemetry.events_in("gmp.adjust")] == [1]


def test_disabled_telemetry_records_nothing():
    assert not NULL_TELEMETRY.enabled
    NULL_TELEMETRY.event(0.0, "x")
    assert NULL_TELEMETRY.events == []
    assert Telemetry(enabled=False, profile=True).profile is False


# ----------------------------------------------------------------- kernel


def _run_ticks(telemetry):
    sim = Simulator(seed=1, telemetry=telemetry)
    ticks = []
    for index in range(5):
        sim.call_at(0.1 * index, lambda: ticks.append(1), tag="test.tick")
    sim.run(until=1.0)
    return sim


def test_kernel_counts_events_by_tag():
    telemetry = Telemetry()
    _run_ticks(telemetry)
    counters = list(telemetry.registry.instruments("kernel.events_by_tag"))
    by_tag = {c.labels["tag"]: c.value for c in counters}
    assert by_tag["test.tick"] == 5


def test_kernel_profile_measures_handler_wall_time():
    telemetry = Telemetry(profile=True)
    _run_ticks(telemetry)
    walls = list(telemetry.registry.instruments("kernel.handler_wall_seconds"))
    assert any(c.labels["tag"] == "test.tick" and c.value >= 0 for c in walls)


def test_kernel_default_telemetry_is_shared_null():
    sim = Simulator(seed=1)
    assert sim.telemetry is NULL_TELEMETRY


# -------------------------------------------------------------- exporters


def _populated_telemetry():
    telemetry = Telemetry()
    telemetry.registry.counter("mac.retries", node=1).inc(3)
    telemetry.registry.gauge("kernel.events_per_sec").set(100.0)
    hist = telemetry.registry.histogram("buffer.fullness", (0.5,), node=0)
    hist.update(0.0, 0.0)
    series = telemetry.registry.series("gmp.flow_rate", flow=1)
    series.record(1.0, 50.0)
    series.record(2.0, 60.0)
    telemetry.event(1.5, "gmp.adjust", flow=1, kind="decrease")
    telemetry.finalize(4.0)
    return telemetry


def test_write_metrics_jsonl(tmp_path):
    lines = stream_file(tmp_path / "m.jsonl", _populated_telemetry(), now=4.0)
    assert lines[-1]["records"] == len(lines)
    kinds = {line["record"] for line in lines}
    assert {"run", "counter", "gauge", "histogram", "series", "sample", "event"} <= kinds
    counter = next(l for l in lines if l["record"] == "counter")
    assert counter["name"] == "mac.retries"
    assert counter["labels"] == {"node": 1}
    assert counter["value"] == 3
    samples = [l for l in lines if l["record"] == "sample"]
    assert [(s["t"], s["v"]) for s in samples] == [(1.0, 50.0), (2.0, 60.0)]


def test_write_chrome_trace_is_perfetto_loadable_shape(tmp_path):
    path = tmp_path / "t.json"
    count = write_chrome_trace(path, _populated_telemetry())
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    # The returned count covers data events; metadata (ph "M") is extra.
    assert len([e for e in events if e["ph"] != "M"]) == count
    assert payload["displayTimeUnit"] == "ms"
    phases = {event["ph"] for event in events}
    assert {"M", "C", "i"} <= phases
    counters = [e for e in events if e["ph"] == "C"]
    # ts is sim seconds scaled to microseconds
    assert counters[0]["ts"] == pytest.approx(1.0 * 1_000_000)
    instants = [e for e in events if e["ph"] == "i"]
    assert instants[0]["name"] == "gmp.adjust"


def test_format_summary_mentions_key_sections():
    text = format_summary(_populated_telemetry())
    assert "mac.retries" in text
    assert "gmp.adjust" in text
    assert "time series" in text


# --------------------------------------------------- exporter edge cases


def test_write_metrics_jsonl_empty_registry(tmp_path):
    """A run that recorded nothing still writes a valid header-only
    file between the stream's open and close records."""
    telemetry = Telemetry()
    telemetry.run_info = {"scenario": "empty", "seed": 1}
    lines = stream_file(tmp_path / "empty.jsonl", telemetry)
    assert [line["record"] for line in lines] == ["stream_open", "run", "stream_close"]
    assert lines[1]["scenario"] == "empty"


def test_write_metrics_jsonl_marks_dropped_events(tmp_path):
    telemetry = Telemetry(event_limit=2)
    for i in range(5):
        telemetry.event(float(i), "gmp.adjust", flow=1)
    lines = stream_file(tmp_path / "dropped.jsonl", telemetry)
    assert lines[-2] == {"record": "events_dropped", "count": 3}


def test_chrome_trace_truncation_marker_round_trip(tmp_path):
    """A capped event log carries its drop count into the Chrome trace
    header, so truncation stays visible in the viewer too."""
    telemetry = Telemetry(event_limit=2, trace_categories=["channel.tx"])
    for i in range(5):
        telemetry.event(float(i), "channel.tx", node=i)
    assert telemetry.events_dropped == 3

    path = tmp_path / "trace.json"
    write_chrome_trace(path, telemetry)
    payload = json.loads(path.read_text())
    instants = [e for e in payload["traceEvents"] if e["name"] == "channel.tx"]
    assert [e["args"]["node"] for e in instants] == [0, 1]
    assert payload["otherData"]["events_dropped"] == 3


# --------------------------------------------------- sample histograms


def test_sample_histogram_quantiles_interpolate():
    from repro.telemetry.registry import SampleHistogram

    hist = SampleHistogram("kernel.wall", {}, bounds=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 1.5, 3.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.mean == pytest.approx(6.5 / 4)
    # Rank 2 of 4 is halfway through the 2-count (1, 2] bucket.
    assert hist.quantile(0.5) == pytest.approx(1.5)
    # Values above every bound floor at the last bound.
    hist.observe(100.0)
    assert hist.quantile(1.0) == pytest.approx(4.0)
    with pytest.raises(ConfigError):
        hist.quantile(1.5)


def test_sample_histogram_merge_counts():
    from repro.telemetry.registry import SampleHistogram

    hist = SampleHistogram("kernel.wall", {}, bounds=(1.0, 2.0))
    hist.observe(0.5)
    hist.merge_counts([2, 1, 0], total=3.5)
    assert hist.count == 4
    assert hist.total == pytest.approx(4.0)
    assert hist.bucket_counts == [3, 1, 0]
    with pytest.raises(ConfigError):
        hist.merge_counts([1, 2], total=1.0)  # width mismatch


def test_registry_interns_sample_histograms_and_nulls_when_disabled():
    registry = MetricsRegistry()
    a = registry.sample_histogram("kernel.wall", (1.0, 2.0), tag="x")
    assert a is registry.sample_histogram("kernel.wall", (1.0, 2.0), tag="x")
    snapshot = a.snapshot()
    assert {"p50", "p95", "p99", "bucket_counts"} <= set(snapshot)

    disabled = MetricsRegistry(enabled=False)
    null = disabled.sample_histogram("kernel.wall", (1.0,))
    null.observe(5.0)  # must be a silent no-op
    assert null.count == 0


def test_profiled_kernel_buckets_handler_wall_time():
    sim = Simulator(telemetry=Telemetry(profile=True))
    stop = sim.every(0.5, lambda: None, tag="tick")
    sim.run(until=5.0)
    stop()
    hists = [
        inst
        for inst in sim.telemetry.registry.instruments()
        if inst.kind == "sample_histogram" and inst.name == "kernel.handler_wall_hist"
    ]
    assert any(h.labels.get("tag") == "tick" for h in hists)
    tick = next(h for h in hists if h.labels.get("tag") == "tick")
    assert tick.count == 10
    assert tick.quantile(0.95) >= tick.quantile(0.5) > 0.0
    # The profile summary renders the per-tag percentile table.
    text = format_summary(sim.telemetry)
    assert "handler wall time" in text
    assert "p99" in text
