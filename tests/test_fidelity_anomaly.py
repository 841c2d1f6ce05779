"""Anomaly detectors: synthetic unit coverage per detector plus the
clean-vs-fault integration pins from the issue's acceptance criteria."""

import random

import pytest

from repro.faults import FaultSchedule, NodeCrash, NodeRecover
from repro.fidelity.anomaly import (
    _window_means,
    detect_anomalies,
    detect_condition_flapping,
    detect_queue_divergence,
    detect_rate_oscillation,
    detect_starved_flows,
)
from repro.flows.flow import Flow, FlowSet
from repro.scenarios.figures import Scenario, figure3
from repro.scenarios.results import RunResult
from repro.scenarios.runner import run_scenario
from repro.telemetry import Telemetry
from repro.topology.builders import chain_topology


def synthetic_result(duration=40.0, interval_rates=None, extras=None, lifetimes=None):
    interval_rates = interval_rates or {}
    bounds = [float(t) for t in range(1, int(duration) + 1)]
    return RunResult(
        scenario="synthetic",
        protocol="gmp",
        substrate="fluid",
        duration=duration,
        warmup=duration / 3,
        seed=1,
        flow_rates={fid: 40.0 for fid in interval_rates} or {1: 40.0},
        hop_counts={1: 1},
        effective_throughput=40.0,
        rate_interval=1.0,
        interval_rates=interval_rates,
        interval_bounds=bounds if interval_rates else [],
        flow_lifetimes=lifetimes or {},
        extras=extras or {},
    )


# --- starved flows ---------------------------------------------------------------


def test_starved_flow_flags_sustained_zero_delivery():
    rates = [40.0] * 12 + [0.0] * 15 + [40.0] * 13
    result = synthetic_result(
        interval_rates={1: rates},
        extras={"maxmin_reference": {1: 40.0}},
    )
    findings = detect_starved_flows(result)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.labels == {"flow": "1"}
    assert finding.severity == "critical"
    assert finding.start == pytest.approx(12.0)
    assert finding.end == pytest.approx(27.0)


def test_starved_flow_ignores_flows_that_never_could_deliver():
    # Zero the whole run, zero reference: nothing to starve from.
    result = synthetic_result(
        interval_rates={1: [0.0] * 40},
        extras={"maxmin_reference": {1: 0.0}},
    )
    assert detect_starved_flows(result) == []


def test_starved_flow_not_flagged_after_legitimate_departure():
    # Flow delivers, then departs at t=20: the zero tail is a
    # departure, not starvation.
    rates = [40.0] * 20 + [0.0] * 20
    lifetimes = {1: (0.0, 20.0)}
    result = synthetic_result(
        interval_rates={1: rates},
        extras={"maxmin_reference": {1: 40.0}},
        lifetimes=lifetimes,
    )
    assert detect_starved_flows(result) == []
    # Control: without the lifetime the same series is a finding.
    unaware = synthetic_result(
        interval_rates={1: rates},
        extras={"maxmin_reference": {1: 40.0}},
    )
    assert len(detect_starved_flows(unaware)) == 1


def test_starved_flow_still_flagged_inside_its_lifetime():
    # Silence strictly inside the lifetime window is real starvation.
    rates = [0.0] * 8 + [40.0] * 6 + [0.0] * 12 + [40.0] * 8 + [0.0] * 6
    result = synthetic_result(
        interval_rates={1: rates},
        extras={"maxmin_reference": {1: 40.0}},
        lifetimes={1: (8.0, 34.0)},
    )
    findings = detect_starved_flows(result)
    assert len(findings) == 1
    assert findings[0].start == pytest.approx(14.0)
    assert findings[0].end == pytest.approx(26.0)


def test_late_arrival_gets_its_own_settle_grace():
    # A flow arriving at t=25 on a 40 s run: the run's warmup ended at
    # 10 s, but the flow's own grace runs to arrival + window (30 s),
    # so its start-up zeros are not findings.
    rates = [0.0] * 25 + [0.0] * 4 + [40.0] * 11
    result = synthetic_result(
        interval_rates={1: rates},
        extras={"maxmin_reference": {1: 40.0}},
        lifetimes={1: (25.0, 40.0)},
    )
    assert detect_starved_flows(result) == []


def test_oscillation_scan_is_lifetime_gated():
    # The departure edge (full rate -> 0) must not read as oscillation.
    rates = [100.0] * 30 + [0.0] * 10
    result = synthetic_result(
        interval_rates={1: rates},
        lifetimes={1: (0.0, 30.0)},
    )
    assert detect_rate_oscillation(result) == []


def test_starved_flow_ignores_short_dips():
    rates = [40.0] * 20 + [0.0] * 3 + [40.0] * 17
    result = synthetic_result(
        interval_rates={1: rates},
        extras={"maxmin_reference": {1: 40.0}},
    )
    assert detect_starved_flows(result) == []


# --- rate oscillation ------------------------------------------------------------


def test_oscillation_tolerates_the_aimd_limit_cycle():
    # ±30% around the mean: a normal GMP limit cycle.
    rates = [100.0 + (30.0 if t % 2 else -30.0) for t in range(40)]
    result = synthetic_result(interval_rates={1: rates})
    assert detect_rate_oscillation(result) == []


def test_oscillation_flags_swings_wider_than_the_mean():
    rates = [100.0 + (90.0 if t % 2 else -90.0) for t in range(40)]
    result = synthetic_result(interval_rates={1: rates})
    findings = detect_rate_oscillation(result)
    assert len(findings) == 1
    assert findings[0].labels == {"flow": "1"}
    assert findings[0].start == pytest.approx(20.0)


# --- condition flapping ----------------------------------------------------------


def flap_telemetry(times, link="1->2", dest=3):
    telemetry = Telemetry(enabled=True)
    for when in times:
        telemetry.event(
            when, "gmp.condition_change",
            link=link, dest=dest, old="unsaturated", new="buffer_saturated",
        )
    return telemetry


def test_condition_flapping_needs_count_and_short_dwell():
    fast = [12.0 + 0.5 * k for k in range(10)]  # 10 changes, 0.5s dwell
    result = synthetic_result(extras={"telemetry": flap_telemetry(fast)})
    findings = detect_condition_flapping(result)
    assert len(findings) == 1
    assert findings[0].labels == {"link": "1->2", "dest": "3"}

    slow = [12.0 + 4.0 * k for k in range(10)]  # long dwells: legitimate
    result = synthetic_result(extras={"telemetry": flap_telemetry(slow)})
    assert detect_condition_flapping(result) == []

    few = [12.0, 12.5, 13.0]  # short dwell but too few transitions
    result = synthetic_result(extras={"telemetry": flap_telemetry(few)})
    assert detect_condition_flapping(result) == []


def test_condition_flapping_ignores_warmup_transients():
    early = [0.5 * k for k in range(10)]  # all inside warmup (t < 10)
    result = synthetic_result(extras={"telemetry": flap_telemetry(early)})
    assert detect_condition_flapping(result) == []


# --- queue divergence ------------------------------------------------------------


def queue_telemetry(samples, node=0, dest=3):
    telemetry = Telemetry(enabled=True)
    series = telemetry.registry.series("buffer.queue_len", node=node, dest=dest)
    for when, value in samples:
        series.record(when, value)
    return telemetry


def test_queue_divergence_flags_occupancy_jumps():
    # Steady at 1 packet, then a wedge to 12 at t=25.
    telemetry = queue_telemetry([(0.0, 1.0), (25.0, 12.0)])
    result = synthetic_result(extras={"telemetry": telemetry})
    findings = detect_queue_divergence(result)
    assert len(findings) == 1
    assert findings[0].labels == {"node": "0", "dest": "3"}
    assert findings[0].start >= 10.0  # post-warmup windows only


def _window_means_reference(times, values, start, end, width):
    """The per-window full scan ``_window_means`` must match bit for bit."""
    if not times or end - start < width:
        return []
    means = []
    window_start = start
    while window_start + width <= end + 1e-9:
        window_end = window_start + width
        integral = 0.0
        previous_time = window_start
        current = None
        for when, value in zip(times, values):
            if when <= window_start:
                current = value
                continue
            if when >= window_end:
                break
            if current is not None:
                integral += current * (when - previous_time)
            previous_time = when
            current = value
        if current is not None:
            integral += current * (window_end - previous_time)
            means.append((window_start, window_end, integral / width))
        window_start = window_end
    return means


@pytest.mark.parametrize("seed", range(30))
def test_window_means_matches_the_full_scan(seed):
    rng = random.Random(seed)
    # Ascending times with repeats, some exactly on window edges.
    times = sorted(
        rng.choice([rng.uniform(0.0, 40.0), float(rng.randrange(0, 41, 5))])
        for _ in range(rng.randrange(0, 60))
    )
    values = [float(rng.randrange(0, 15)) for _ in times]
    start = rng.choice([0.0, 7.5, 10.0, rng.uniform(0.0, 20.0)])
    end = rng.uniform(start, 45.0)
    expected = _window_means_reference(times, values, start, end, 5.0)
    assert _window_means(times, values, start, end, 5.0) == expected


def test_queue_divergence_stays_quiet_on_steady_queues():
    telemetry = queue_telemetry([(0.0, 4.0), (20.0, 4.5), (30.0, 4.0)])
    result = synthetic_result(extras={"telemetry": telemetry})
    assert detect_queue_divergence(result) == []


# --- scan end (the live schedule) -----------------------------------------------


def test_until_truncates_starved_flow_scan():
    rates = [40.0] * 12 + [0.0] * 15 + [40.0] * 13
    result = synthetic_result(
        interval_rates={1: rates},
        extras={"maxmin_reference": {1: 40.0}},
    )
    # 4 s of silence by t=16 is not yet a finding; by t=20 it is, and
    # the stretch ends where the scan does.
    assert detect_starved_flows(result, until=16.0) == []
    (finding,) = detect_starved_flows(result, until=20.0)
    assert (finding.start, finding.end) == (12.0, 20.0)


def test_until_truncates_queue_divergence_on_the_planned_grid():
    # Steady at 1 packet, then a wedge to 12 at t=25.  The window grid
    # is anchored at the planned warmup (t=10): [20, 25) and [25, 30).
    telemetry = queue_telemetry([(0.0, 1.0), (25.0, 12.0)])
    result = synthetic_result(extras={"telemetry": telemetry})
    # By t=28 the [25, 30) window is incomplete, so nothing fires — a
    # grid re-anchored to a 28 s run would close [22, 27) and fire.
    assert detect_queue_divergence(result, until=28.0) == []
    (live,) = detect_queue_divergence(result, until=30.0)
    (full,) = detect_queue_divergence(result)
    assert live == full
    assert (live.start, live.end) == (20.0, 30.0)


# --- report plumbing -------------------------------------------------------------


def test_report_renders_and_serializes():
    rates = [40.0] * 12 + [0.0] * 15 + [40.0] * 13
    result = synthetic_result(
        interval_rates={1: rates},
        extras={"maxmin_reference": {1: 40.0}},
    )
    report = detect_anomalies(result)
    # The outage starves the flow AND its 0 -> 40 tail reads as an
    # oscillation; findings are sorted by start time.
    assert len(report) == 2
    assert report.by_detector("starved_flow")
    assert report.by_detector("rate_oscillation")
    assert "starved_flow" in report.render()
    payload = report.to_json()
    assert payload["findings"][0]["labels"] == {"flow": "1"}
    assert payload["findings"][0]["detector"] == "starved_flow"


def test_custom_config_thresholds_apply():
    rates = [40.0] * 12 + [0.0] * 15 + [40.0] * 13
    result = synthetic_result(
        interval_rates={1: rates},
        extras={"maxmin_reference": {1: 40.0}},
    )
    assert detect_starved_flows(result, starve_window=20.0) == []


# --- integration pins (acceptance criteria) --------------------------------------


def test_clean_gmp_run_scans_clean():
    telemetry = Telemetry(enabled=True)
    result = run_scenario(
        figure3(),
        protocol="gmp",
        substrate="fluid",
        duration=40.0,
        seed=1,
        telemetry=telemetry,
        rate_interval=1.0,
    )
    report = detect_anomalies(result)
    assert report.findings == []
    assert report.render() == "anomaly scan: clean (no findings)"


def test_crash_recover_run_is_flagged():
    topology = chain_topology(4)
    flows = FlowSet(
        [
            Flow(flow_id=1, source=0, destination=3, desired_rate=40.0),
            Flow(flow_id=2, source=2, destination=3, desired_rate=40.0),
        ]
    )
    scenario = Scenario(
        name="churn", topology=topology, flows=flows, notes=""
    )
    telemetry = Telemetry(enabled=True)
    result = run_scenario(
        scenario,
        protocol="gmp",
        substrate="fluid",
        duration=40.0,
        seed=7,
        capacity_pps=400.0,
        telemetry=telemetry,
        rate_interval=1.0,
        faults=FaultSchedule(
            [NodeCrash(at=12.0, node=1), NodeRecover(at=27.0, node=1)]
        ),
    )
    report = detect_anomalies(result)
    starved = report.by_detector("starved_flow")
    assert len(starved) == 1
    assert starved[0].labels == {"flow": "1"}
    # The outage window is bracketed by the crash/recover times.
    assert starved[0].start == pytest.approx(13.0, abs=1.5)
    assert starved[0].end == pytest.approx(27.0, abs=1.5)
    # The partitioned flow's 0 -> full-rate transient reads as a swing
    # wider than its mean.
    assert report.by_detector("rate_oscillation")
