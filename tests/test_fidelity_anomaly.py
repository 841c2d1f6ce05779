"""The health monitor's detectors (:mod:`repro.obs.health`; the file
keeps the name of their former module): synthetic unit coverage per
detector plus clean-vs-fault integration pins."""

import random

import pytest

from repro.obs.health import (
    LIVE_DETECTORS,
    _window_means,
    detect_condition_flapping,
    detect_queue_divergence,
    detect_starved_flows,
)
from repro.scenarios.results import RunResult
from repro.scenarios.spec import LITERAL, RunSpec
from repro.telemetry import Telemetry


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
    assert finding.first_seen == pytest.approx(12.0)
    assert finding.last_seen == pytest.approx(27.0)


def test_starved_flow_ignores_flows_that_never_could_deliver():
    # Zero the whole run, zero reference: nothing to starve from.
    result = synthetic_result(
        interval_rates={1: [0.0] * 40},
        extras={"maxmin_reference": {1: 0.0}},
    )
    assert detect_starved_flows(result) == []


def test_starved_flow_reads_the_lazy_reference_of_a_run_without_telemetry():
    # A flow stuck at zero from t=0 never showed it could deliver; only
    # the reference (here the unsolved one a GMP run carries) says so.
    result = synthetic_result(
        interval_rates={1: [0.0] * 40},
        extras={"solve_reference": lambda: {1: 40.0}},
    )
    (alert,) = detect_starved_flows(result)
    assert alert.probe == "starved_flow"
    assert alert.labels == {"flow": "1"}


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
    assert findings[0].first_seen == pytest.approx(14.0)
    assert findings[0].last_seen == pytest.approx(26.0)


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


def test_starved_flow_ignores_short_dips():
    rates = [40.0] * 20 + [0.0] * 3 + [40.0] * 17
    result = synthetic_result(
        interval_rates={1: rates},
        extras={"maxmin_reference": {1: 40.0}},
    )
    assert detect_starved_flows(result) == []


# --- condition flapping ----------------------------------------------------------


def flap_telemetry(times, link="1->2", dest=3):
    telemetry = Telemetry()
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
    telemetry = Telemetry()
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
    assert findings[0].first_seen >= 10.0  # post-warmup windows only


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
    assert (finding.first_seen, finding.last_seen) == (12.0, 20.0)


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
    assert (live.first_seen, live.last_seen) == (20.0, 30.0)


def test_custom_config_thresholds_apply():
    rates = [40.0] * 12 + [0.0] * 15 + [40.0] * 13
    result = synthetic_result(
        interval_rates={1: rates},
        extras={"maxmin_reference": {1: 40.0}},
    )
    assert detect_starved_flows(result, starve_window=20.0) == []


# --- integration pins (acceptance criteria) --------------------------------------


def test_clean_gmp_run_scans_clean():
    telemetry = Telemetry()
    result = RunSpec(
        scenario="figure3",
        protocol="gmp",
        substrate="fluid",
        duration=40.0,
        seed=1,
        rate_interval=1.0,
    ).run(telemetry=telemetry)
    for detector in LIVE_DETECTORS:
        assert detector(result) == [], detector.__name__


def test_crash_recover_run_is_flagged():
    telemetry = Telemetry()
    result = RunSpec(
        scenario=LITERAL,
        topology={
            "nodes": [[0.0, 0.0], [200.0, 0.0], [400.0, 0.0], [600.0, 0.0]],
            "flows": [[0, 3, 1.0, 40.0], [2, 3, 1.0, 40.0]],
        },
        protocol="gmp",
        substrate="fluid",
        duration=40.0,
        seed=7,
        capacity_pps=400.0,
        rate_interval=1.0,
        faults="crash:1@12;recover:1@27",
    ).run(telemetry=telemetry)
    starved = detect_starved_flows(result)
    assert len(starved) == 1
    assert starved[0].labels == {"flow": "1"}
    # The outage window is bracketed by the crash/recover times.
    assert starved[0].first_seen == pytest.approx(13.0, abs=1.5)
    assert starved[0].last_seen == pytest.approx(27.0, abs=1.5)
