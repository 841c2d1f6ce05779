"""Prometheus text exposition: naming, label ordering, escaping,
cumulative buckets, and the stable-render guarantee ``/metrics``
scrapes depend on."""

from repro.telemetry import Telemetry
from repro.telemetry.exporters import render_metrics_prometheus


def _telemetry():
    telemetry = Telemetry()
    registry = telemetry.registry
    registry.counter("mac.retries", node=1).inc(3)
    registry.counter("mac.retries", node=2).inc(5)
    registry.gauge("kernel.events_per_sec").set(1234.5)
    hist = registry.sample_histogram("rate.error", (0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(2.0)
    dwell = registry.histogram("buffer.fullness", (0.5,), node=0)
    dwell.update(0.0, 0.2)
    dwell.update(4.0, 0.9)
    dwell.finalize(10.0)
    series = registry.series("flow.rate", flow=1)
    series.record(1.0, 100.0)
    series.record(2.0, 140.0)
    return telemetry


def test_counters_get_total_suffix_and_one_type_line():
    text = render_metrics_prometheus(_telemetry())
    lines = text.splitlines()
    assert lines.count("# TYPE repro_mac_retries_total counter") == 1
    assert 'repro_mac_retries_total{node="1"} 3.0' in lines
    assert 'repro_mac_retries_total{node="2"} 5.0' in lines


def test_gauge_and_series_rendering():
    lines = render_metrics_prometheus(_telemetry()).splitlines()
    assert "repro_kernel_events_per_sec 1234.5" in lines
    assert 'repro_flow_rate{flow="1"} 140.0' in lines
    assert 'repro_flow_rate_points_total{flow="1"} 2.0' in lines


def test_unset_gauge_and_empty_series_are_skipped():
    telemetry = Telemetry()
    telemetry.registry.gauge("never.set")
    telemetry.registry.series("never.recorded")
    assert "never" not in render_metrics_prometheus(telemetry)


def test_sample_histogram_buckets_are_cumulative():
    lines = render_metrics_prometheus(_telemetry()).splitlines()
    assert 'repro_rate_error_bucket{le="0.1"} 1.0' in lines
    assert 'repro_rate_error_bucket{le="1.0"} 2.0' in lines
    assert 'repro_rate_error_bucket{le="+Inf"} 3.0' in lines
    assert "repro_rate_error_sum 2.55" in lines
    assert "repro_rate_error_count 3.0" in lines


def test_time_weighted_histogram_renders_seconds():
    lines = render_metrics_prometheus(_telemetry()).splitlines()
    # 4 s below 0.5, then 6 s above: cumulative 4, 10; the sum is the
    # value-weighted integral (0.2*4 + 0.9*6).
    assert 'repro_buffer_fullness_seconds_bucket{node="0",le="0.5"} 4.0' in lines
    assert (
        'repro_buffer_fullness_seconds_bucket{node="0",le="+Inf"} 10.0'
        in lines
    )
    assert 'repro_buffer_fullness_seconds_sum{node="0"} 6.2' in lines
    assert 'repro_buffer_fullness_seconds_count{node="0"} 10.0' in lines


def test_label_ordering_and_escaping():
    telemetry = Telemetry()
    telemetry.registry.counter(
        "odd.metric", zeta="z", alpha='say "hi"\nnow', mid="back\\slash"
    ).inc()
    lines = render_metrics_prometheus(telemetry).splitlines()
    assert (
        'repro_odd_metric_total{alpha="say \\"hi\\"\\nnow",'
        'mid="back\\\\slash",zeta="z"} 1.0'
    ) in lines


def test_event_counts_rendered_as_counter():
    telemetry = Telemetry()
    telemetry.event(1.0, "fault.crash", node=1)
    telemetry.event(2.0, "fault.crash", node=2)
    lines = render_metrics_prometheus(telemetry).splitlines()
    assert (
        'repro_telemetry_events_total{category="fault.crash"} 2.0' in lines
    )


def test_double_render_is_byte_identical():
    telemetry = _telemetry()
    assert render_metrics_prometheus(telemetry) == render_metrics_prometheus(
        telemetry
    )
