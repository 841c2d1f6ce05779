"""The per-flow rate explainer: bottleneck attribution, condition
dwell, the reference-gap arithmetic, the band verdict and the
attribution of each rate adjustment to its trigger."""

import pytest

from repro.analysis.maxmin_reference import MaxminSolution
from repro.errors import AnalysisError
from repro.fidelity.explain import explain_all, explain_flow
from repro.scenarios.results import RunResult
from repro.scenarios.spec import RunSpec
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def figure3_result():
    telemetry = Telemetry()
    return RunSpec(
        scenario="figure3",
        protocol="gmp",
        substrate="fluid",
        duration=20.0,
        seed=1,
        rate_interval=1.0,
    ).run(telemetry=telemetry)


@pytest.fixture(scope="module")
def churn_result():
    return RunSpec(
        scenario="figure3",
        protocol="gmp",
        substrate="fluid",
        duration=60.0,
        seed=1,
        churn="poisson:rate=0.3,mean_hold=6,max_flows=4",
    ).run(telemetry=Telemetry())


def _synthetic_result(samples, reference=100.0, events=()):
    """A one-flow GMP result (flow 1 on path 1 -> 2 -> 3) whose
    telemetry holds ``samples`` of its rate and the given events."""
    telemetry = Telemetry()
    series = telemetry.registry.series("gmp.flow_rate", flow=1)
    for time, value in samples:
        series.record(time, value)
    for time, category, fields in events:
        telemetry.event(time, category, **fields)
    return RunResult(
        scenario="synthetic",
        protocol="gmp",
        substrate="fluid",
        duration=10.0,
        warmup=0.0,
        seed=1,
        flow_rates={1: samples[-1][1]},
        hop_counts={1: 2},
        effective_throughput=0.0,
        extras={
            "telemetry": telemetry,
            "maxmin_solution": MaxminSolution(
                {1: reference}, {1: reference}, {1: (0, 0)}, {(0, 0): 1.0}
            ),
            "flow_paths": {1: [(1, 2), (2, 3)]},
        },
    )


def _adjust(time, reason, origin):
    return (
        time,
        "gmp.adjust",
        dict(
            flow=1,
            kind="decrease",
            reason=reason,
            origin=origin,
            multiplier=0.5,
            old_limit=200.0,
            new_limit=100.0,
        ),
    )


def _change(time, link, dest, old, new):
    return (
        time,
        "gmp.condition_change",
        dict(link=link, dest=dest, old=old, new=new),
    )


# --- reference, bottleneck, condition -------------------------------------------


def test_explain_names_clique_condition_and_gap(figure3_result):
    explanation = explain_flow(figure3_result, 2)
    # All three figure-3 flows share the one chain clique.
    assert explanation.bottleneck_clique is not None
    assert explanation.bottleneck_links  # member links are surfaced
    assert not explanation.desire_limited
    assert explanation.reference_rate > 0
    assert explanation.gap == pytest.approx(
        explanation.measured_rate - explanation.reference_rate
    )
    assert explanation.active_condition in (
        "bandwidth_saturated", "buffer_saturated"
    )
    assert explanation.path[0][0] == 1  # flow 2 starts at node 1
    assert explanation.path[-1][1] == 3
    # Path links carry per-state dwell seconds toward the destination.
    assert explanation.condition_dwell
    for states in explanation.condition_dwell.values():
        assert all(seconds >= 0 for seconds in states.values())


def test_narrative_mentions_the_key_facts(figure3_result):
    text = explain_flow(figure3_result, 2).narrative()
    assert "flow 2" in text
    assert "clique" in text
    assert "maxmin" in text
    assert "condition" in text
    assert "band" in text
    assert "Rate adjustments applied" in text


def test_explain_all_covers_every_flow(figure3_result):
    explanations = explain_all(figure3_result)
    assert [e.flow_id for e in explanations] == sorted(
        figure3_result.flow_rates
    )


def test_explanation_serializes_to_json(figure3_result):
    explanation = explain_flow(figure3_result, 1)
    payload = explanation.to_json()
    assert payload["flow_id"] == 1
    assert isinstance(payload["bottleneck_clique"], list)
    assert payload["path"]
    assert isinstance(payload["condition_dwell"], dict)
    assert payload["band"] == 0.05
    assert "entered_at" in payload and "closest_off" in payload
    assert len(payload["adjustments"]) == len(explanation.adjustments)
    assert payload["last_adjust"] == payload["adjustments"][-1]
    assert payload["last_adjust"]["time"] == explanation.last_adjust.time


def test_unknown_flow_raises(figure3_result):
    with pytest.raises(AnalysisError, match="unknown flow"):
        explain_flow(figure3_result, 99)


def test_run_without_reference_cannot_be_explained():
    bare = RunResult(
        scenario="bare",
        protocol="802.11",
        substrate="fluid",
        duration=10.0,
        warmup=3.0,
        seed=1,
        flow_rates={1: 50.0},
        hop_counts={1: 1},
        effective_throughput=50.0,
    )
    with pytest.raises(AnalysisError, match="maxmin_solution"):
        explain_flow(bare, 1)


def test_run_without_telemetry_cannot_be_explained():
    # The end-of-run reference is solved only for instrumented runs.
    result = RunSpec(
        scenario="figure3", protocol="gmp", substrate="fluid", duration=5.0, seed=1
    ).run()
    with pytest.raises(AnalysisError, match="maxmin_solution"):
        explain_flow(result, 1)


def test_explain_flow_validates_band_and_hold():
    result = _synthetic_result([(1.0, 100.0)])
    with pytest.raises(AnalysisError, match="band"):
        explain_flow(result, 1, band=1.5)
    with pytest.raises(AnalysisError, match="hold"):
        explain_flow(result, 1, hold=0)


# --- flows the reference does not cover -----------------------------------------


def test_retired_churn_flows_have_no_reference(churn_result):
    solved = churn_result.extras["maxmin_solution"].rates
    retired = sorted(set(churn_result.flow_rates) - set(solved))
    assert retired  # the churned flows left before the end-of-run solve
    for flow_id in retired:
        explanation = explain_flow(churn_result, flow_id)
        assert explanation.reference_rate is None
        assert explanation.gap is None and explanation.gap_pct is None
        assert not explanation.desire_limited
        assert explanation.bottleneck_clique is None
        assert explanation.entered_at is None
        assert explanation.closest_off is None
        assert "no centralized reference" in explanation.narrative()
        assert explanation.to_json()["reference_rate"] is None
    # The set-up flows keep theirs.
    assert explain_flow(churn_result, 1).reference_rate == solved[1]


# --- band verdict ----------------------------------------------------------------


def test_flow_enters_band_and_entry_time_is_first_in_band_sample():
    # Out of band at t=1,2, inside from t=3 onward.
    result = _synthetic_result(
        [(1.0, 50.0), (2.0, 80.0), (3.0, 98.0), (4.0, 101.0), (5.0, 99.0)]
    )
    explanation = explain_flow(result, 1, band=0.05, hold=3)
    assert explanation.entered_at == 3.0
    assert explanation.closest_off == pytest.approx(0.01)
    assert "Entered the ±5% band at t=3.0s" in explanation.narrative()


def test_flow_never_settles_without_enough_hold_samples():
    result = _synthetic_result([(1.0, 50.0), (2.0, 99.0), (3.0, 100.0)])
    explanation = explain_flow(result, 1, band=0.05, hold=3)
    assert explanation.entered_at is None
    assert explanation.closest_off == pytest.approx(0.0)
    assert "Never settled" in explanation.narrative()


def test_late_excursion_resets_band_entry():
    result = _synthetic_result(
        [
            (1.0, 100.0),
            (2.0, 100.0),
            (3.0, 50.0),
            (4.0, 99.0),
            (5.0, 100.0),
            (6.0, 101.0),
        ]
    )
    assert explain_flow(result, 1, band=0.05, hold=3).entered_at == 4.0


def test_zero_reference_flow_is_reported_not_crashed():
    result = _synthetic_result([(1.0, 0.0)], reference=0.0)
    explanation = explain_flow(result, 1)
    assert explanation.entered_at is None
    assert explanation.closest_off is None
    assert explanation.gap_pct == 0.0
    assert "band is undefined" in explanation.narrative()


def test_band_verdict_end_to_end_on_instrumented_gmp_run(figure3_result):
    assert set(figure3_result.extras["maxmin_reference"]) == set(
        figure3_result.flow_rates
    )
    for explanation in explain_all(figure3_result):
        # Every flow has rate samples and a positive reference.
        assert explanation.closest_off is not None
        assert explanation.adjustments == sorted(
            explanation.adjustments, key=lambda a: a.time
        )


# --- adjustment attribution ------------------------------------------------------


def test_adjustment_attributed_to_condition_change_at_origin():
    result = _synthetic_result(
        [(1.0, 100.0)],
        events=[
            _change(2.0, "1->2", 3, "none", "buffer_saturated"),
            _change(2.5, "4->5", 3, "none", "buffer_saturated"),
            _adjust(3.0, "buffer", origin=2),
        ],
    )
    (adjustment,) = explain_flow(result, 1).adjustments
    # Node 2 is an endpoint of 1->2 but not of 4->5.
    assert adjustment.trigger_time == 2.0
    assert "link 1->2" in adjustment.trigger
    assert adjustment.kind == "decrease"
    assert adjustment.origin == 2


def test_adjustment_ignores_other_destinations_and_unsaturations():
    result = _synthetic_result(
        [(1.0, 100.0)],
        events=[
            _change(1.0, "1->2", 3, "none", "buffer_saturated"),
            # Another destination's virtual link at the same node.
            _change(2.0, "2->1", 0, "none", "bandwidth_saturated"),
            # A transition *out of* saturation triggers no decrease.
            _change(2.5, "1->2", 3, "buffer_saturated", "unsaturated"),
            _adjust(3.0, "buffer", origin=2),
        ],
    )
    (adjustment,) = explain_flow(result, 1).adjustments
    assert adjustment.trigger_time == 1.0
    assert adjustment.trigger == (
        "link 1->2 (dest 3) went none -> buffer_saturated at t=1.0s"
    )


def test_bandwidth_adjustment_attributed_to_violation():
    result = _synthetic_result(
        [(1.0, 100.0)],
        events=[
            (4.0, "gmp.violation", dict(link="2->3", streak=3)),
            _adjust(6.0, "bandwidth", origin=2),
        ],
    )
    (adjustment,) = explain_flow(result, 1).adjustments
    assert adjustment.trigger_time == 4.0
    assert "violation" in adjustment.trigger


def test_churn_buffer_decrease_attributed_to_its_destination(churn_result):
    # Flow 1 runs 0 -> 3; its first decrease (buffer condition at node
    # 1) follows node 1's own dest-3 link saturating, not the dest-0
    # link 1->0 that also changed state at t=4.
    first = explain_flow(churn_result, 1).adjustments[0]
    assert (first.time, first.reason, first.origin) == (4.0, "buffer", 1)
    assert first.trigger == (
        "link 0->1 (dest 3) went none -> buffer_saturated at t=4.0s"
    )
