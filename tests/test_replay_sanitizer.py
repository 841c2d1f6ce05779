"""Replay sanitizer: passive observation, run-to-run digest equality,
what each digest of the behaviour fence holds across, and divergence
localization when nondeterminism is deliberately injected."""

from dataclasses import replace

import numpy as np
import pytest

from repro.flows.traffic import TrafficSource
from repro.scenarios.spec import RunSpec, replay_check
from repro.sim.kernel import Simulator
from repro.sim.replay import ReplaySanitizer, diff_sanitizers
from repro.telemetry import Telemetry

from test_policy_fingerprints import FENCE, GOLDEN, fence_run

#: The fence's rows by id: ``(spec, events, L0 prefix, L1 prefix)``.
ROWS = {row.id: row.values for row in FENCE}


def test_golden_digest_plain_and_instrumented():
    _spec, events, l0, l1 = ROWS["figure3-gmp-fluid-golden"]
    _result, *instrumented = fence_run(GOLDEN, telemetry=Telemetry(profile=True))
    assert instrumented == [events, l0, l1]


def test_renaming_a_handler_leaves_l0_unchanged(monkeypatch):
    # The tag is the event's identity: the source tick's handler name
    # is in no digest.
    _spec, events, l0, l1 = ROWS["figure3-gmp-fluid-golden"]
    monkeypatch.setattr(TrafficSource._tick, "__qualname__", "Renamed.tick")
    _result, *renamed = fence_run(GOLDEN)
    assert renamed == [events, l0, l1]


@pytest.mark.parametrize("row", ["figure3-gmp-fluid", "figure3-gmp-dcf"])
def test_l1_holds_across_runs_whose_l0_differs(row):
    # Rate sampling adds events that only read: the event sequence
    # changes, what the run measured does not.
    spec, events, l0, l1 = ROWS[row]
    sampled = replace(spec, rate_interval=1.0)
    _result, sampled_events, sampled_l0, sampled_l1 = fence_run(sampled)
    assert sampled_events > events
    assert sampled_l0 != l0
    assert sampled_l1 == l1


def test_sanitized_run_is_unperturbed():
    spec = RunSpec(
        scenario="figure3", protocol="gmp", substrate="fluid", duration=10.0, seed=3
    )
    bare = spec.run()
    sanitized = spec.run(sanitizer=ReplaySanitizer())
    assert (
        sanitized.extras["events_processed"]
        == bare.extras["events_processed"]
    )
    assert sanitized.flow_rates == bare.flow_rates


def test_replay_check_matches_on_deterministic_scenario():
    report, first, second = replay_check(
        RunSpec(scenario="figure3", substrate="fluid", duration=10.0, seed=2)
    )
    assert report.matched
    assert report.events_first == report.events_second
    assert report.divergence is None
    assert first.flow_rates == second.flow_rates
    assert report.observable_first == first.extras["observable_digest"]
    assert "passed" in report.render() and "L1 digest" in report.render()


def _run_tagged(tags):
    """Drive a bare kernel through `tags` one event per second."""
    sanitizer = ReplaySanitizer()
    sim = Simulator(sanitizer=sanitizer)
    for index, tag in enumerate(tags):
        sim.call_at(float(index), lambda: None, tag=tag)
    sim.run()
    return sanitizer


def test_diff_names_first_divergent_event():
    first = _run_tagged(["boot", "tx", "rx", "done"])
    second = _run_tagged(["boot", "tx", "retry", "done"])
    report = diff_sanitizers(first, second)
    assert not report.matched
    assert report.divergence is not None
    assert report.divergence.index == 2
    assert report.divergence.first.tag == "rx"
    assert report.divergence.second.tag == "retry"
    assert "retry" in report.render()


def test_diff_names_divergence_when_one_run_ends_early():
    first = _run_tagged(["boot", "tx"])
    second = _run_tagged(["boot"])
    report = diff_sanitizers(first, second)
    assert not report.matched
    assert report.divergence.index == 1
    assert report.divergence.second is None
    assert "<run ended>" in report.render()


def test_diff_fails_on_an_l1_mismatch_with_equal_l0():
    first, second = _run_tagged(["boot", "tx"]), _run_tagged(["boot", "tx"])
    first.observable, second.observable = "a" * 64, "b" * 64
    report = diff_sanitizers(first, second)
    assert not report.matched
    assert report.divergence is None
    assert "L1 digests: aaaa" in report.render()


def _run_with_unseeded_draw():
    """A model that schedules off ambient entropy — exactly the bug
    class the sanitizer exists to catch."""
    sanitizer = ReplaySanitizer()
    sim = Simulator(sanitizer=sanitizer)
    rogue = np.random.default_rng()  # deliberately unseeded

    def boot() -> None:
        sim.call_later(
            float(rogue.uniform(0.1, 1.0)), lambda: None, tag="rogue.draw"
        )

    sim.call_at(0.0, boot, tag="boot")
    sim.run()
    return sanitizer


def test_injected_unseeded_draw_is_reported_with_its_tag():
    report = diff_sanitizers(
        _run_with_unseeded_draw(), _run_with_unseeded_draw()
    )
    assert not report.matched
    assert report.divergence is not None
    assert report.divergence.first.tag == "rogue.draw"
    assert "rogue.draw" in report.render()
