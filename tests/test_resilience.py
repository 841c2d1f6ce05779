"""Tests for the transient-response (resilience) metrics, ending with
the acceptance scenario: GMP on the fluid substrate rides out a mid-run
relay crash and reconverges to the surviving-topology maxmin within
epsilon = 10%."""

import pytest

from repro.analysis.resilience import (
    evaluate_transient,
    goodput_lost,
    min_rate_dip,
    reconvergence_time,
    surviving_maxmin_reference,
)
from repro.errors import AnalysisError
from repro.scenarios.figures import figure3
from repro.scenarios.spec import LITERAL, RunSpec

from helpers import FAST

# --- reconvergence_time --------------------------------------------------------


def test_reconvergence_time_finds_first_settled_window():
    series = {1: [0.0, 100.0, 95.0, 92.0, 91.0, 90.0]}
    settle = reconvergence_time(
        series, 1.0, fault_time=1.0, reference={1: 90.0}, epsilon=0.1, hold=3
    )
    # Samples 2..4 are the first three consecutive in-band samples, so
    # the system is settled at the end of sample 2: t=3, fault at t=1.
    assert settle == pytest.approx(2.0)


def test_reconvergence_time_none_when_never_settling():
    series = {1: [0.0] * 8}
    assert (
        reconvergence_time(series, 1.0, fault_time=0.0, reference={1: 50.0})
        is None
    )


def test_reconvergence_time_requires_all_flows_in_band():
    series = {1: [90.0] * 6, 2: [0.0] * 6}
    assert (
        reconvergence_time(
            series, 1.0, fault_time=0.0, reference={1: 90.0, 2: 90.0}
        )
        is None
    )
    settle = reconvergence_time(
        series, 1.0, fault_time=0.0, reference={1: 90.0, 2: 0.0}, atol=0.5
    )
    # Settled from sample 0 on: reconverged at the end of that sample.
    assert settle == pytest.approx(1.0)


def test_reconvergence_time_validates_inputs():
    series = {1: [1.0, 2.0]}
    with pytest.raises(AnalysisError):
        reconvergence_time(series, 0.0, fault_time=0.0, reference={1: 1.0})
    with pytest.raises(AnalysisError):
        reconvergence_time(series, 1.0, fault_time=0.0, reference={1: 1.0}, hold=0)
    with pytest.raises(AnalysisError):
        reconvergence_time(
            series, 1.0, fault_time=0.0, reference={1: 1.0}, epsilon=-0.1
        )
    with pytest.raises(AnalysisError, match="no rate series for flows"):
        reconvergence_time(series, 1.0, fault_time=0.0, reference={9: 1.0})
    with pytest.raises(AnalysisError):
        reconvergence_time({}, 1.0, fault_time=0.0, reference={})


# --- goodput_lost / min_rate_dip -----------------------------------------------


def test_goodput_lost_counts_only_shortfall_with_partial_overlap():
    series = {1: [50.0, 50.0, 150.0]}
    lost = goodput_lost(
        series, 1.0, reference={1: 100.0}, start=0.5, end=1.5
    )
    # 50 pps shortfall over a 0.5 s slice of each of the two intervals.
    assert lost == pytest.approx(50.0)
    # The overshoot in sample 2 never pays anything back.
    full = goodput_lost(series, 1.0, reference={1: 100.0}, start=0.0, end=3.0)
    assert full == pytest.approx(100.0)


def test_min_rate_dip_windows():
    series = {1: [10.0, 2.0, 5.0], 2: [8.0, 9.0, 7.0]}
    assert min_rate_dip(series, 1.0, start=1.0) == pytest.approx(2.0)
    assert min_rate_dip(series, 1.0, start=2.0) == pytest.approx(5.0)
    assert min_rate_dip(series, 1.0, start=1.0, flow_ids=[2]) == pytest.approx(7.0)
    with pytest.raises(AnalysisError, match="no samples"):
        min_rate_dip(series, 1.0, start=99.0)
    with pytest.raises(AnalysisError):
        goodput_lost(series, 1.0, reference={1: 1.0}, start=2.0, end=1.0)


# --- surviving_maxmin_reference ------------------------------------------------


def test_surviving_reference_zeroes_partitioned_and_dead_flows():
    scenario = figure3()
    reference = surviving_maxmin_reference(
        scenario.topology, scenario.flows, {1}, 300.0
    )
    # Node 1 dead: flow 1 (0 -> 3) is partitioned, flow 2 sources at the
    # dead node, flow 3 (2 -> 3) keeps its single surviving hop.
    assert reference[1] == 0.0
    assert reference[2] == 0.0
    assert reference[3] == pytest.approx(300.0)


def test_surviving_reference_without_deaths_matches_full_solution():
    scenario = figure3()
    reference = surviving_maxmin_reference(
        scenario.topology, scenario.flows, set(), 300.0
    )
    assert all(rate > 0 for rate in reference.values())


def test_surviving_reference_rejects_unknown_nodes():
    scenario = figure3()
    with pytest.raises(AnalysisError, match="unknown nodes"):
        surviving_maxmin_reference(scenario.topology, scenario.flows, {42}, 300.0)


def test_evaluate_transient_requires_series():
    result = RunSpec(
        scenario="figure3", protocol="gmp", substrate="fluid", duration=3.0, seed=0, **FAST
    ).run()
    with pytest.raises(AnalysisError, match="rate_interval"):
        evaluate_transient(result, fault_time=1.0, reference={1: 10.0})


# --- acceptance: GMP rides out a relay crash -----------------------------------


def test_gmp_reconverges_after_relay_crash_and_recovery():
    """Figure-3 chain with desire-limited flows: capacity is abundant,
    so the maxmin reference equals each flow's desired rate and GMP can
    actually reach it (saturated chains only converge to ~0.35 rel)."""
    capacity = 400.0
    fault_time, recover_time = 10.0, 20.0
    spec = RunSpec(
        scenario=LITERAL,
        topology={
            "nodes": [[0.0, 0.0], [200.0, 0.0], [400.0, 0.0], [600.0, 0.0]],
            "flows": [[0, 3, 1.0, 40.0], [2, 3, 1.0, 40.0]],
        },
        protocol="gmp",
        substrate="fluid",
        duration=35.0,
        seed=7,
        capacity_pps=capacity,
        **FAST,
        faults=f"crash:1@{fault_time:g};recover:1@{recover_time:g}",
        rate_interval=1.0,
    )
    scenario = spec.build_scenario()
    result = spec.run()

    # The run completed (watchdogs armed by default) and the strict
    # fluid-substrate invariant audit passed.
    assert result.extras["invariants"].ok

    # Phase 1 — while the relay is down the rates must reconverge to the
    # surviving-topology maxmin: flow 1 is partitioned (0.0), flow 2 is
    # desire-limited.
    outage_reference = surviving_maxmin_reference(
        scenario.topology, scenario.flows, {1}, capacity
    )
    assert outage_reference[1] == 0.0
    assert outage_reference[2] == pytest.approx(40.0)
    outage = evaluate_transient(
        result,
        fault_time=fault_time,
        reference=outage_reference,
        epsilon=0.1,
        atol=4.0,
    )
    assert outage.time_to_reconverge is not None
    assert outage.reconverged_at < recover_time
    assert outage.min_rate_dip >= 0.0

    # Phase 2 — after recovery both flows return to the full-topology
    # reference (their desired rates) within epsilon = 10%.
    full_reference = surviving_maxmin_reference(
        scenario.topology, scenario.flows, set(), capacity
    )
    assert full_reference[1] == pytest.approx(40.0)
    assert full_reference[2] == pytest.approx(40.0)
    recovery = evaluate_transient(
        result,
        fault_time=recover_time,
        reference=full_reference,
        epsilon=0.1,
        atol=4.0,
    )
    assert recovery.time_to_reconverge is not None
    assert recovery.time_to_reconverge <= 15.0
    assert recovery.goodput_lost >= 0.0
