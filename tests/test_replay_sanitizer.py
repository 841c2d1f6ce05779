"""Replay sanitizer: passive observation, run-to-run digest equality,
the pinned golden digest of the flagship scenario, and divergence
localization when nondeterminism is deliberately injected."""

import numpy as np

from repro.scenarios.figures import figure3
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import RunSpec, replay_check
from repro.sim.kernel import Simulator
from repro.sim.replay import ReplaySanitizer, describe_callback, diff_sanitizers
from repro.telemetry import Telemetry

#: Full replay digest of `figure3 --substrate fluid --duration 30
#: --seed 1` — every dispatched event's (time, priority, tag, callback)
#: folded into SHA-256.  Strictly stronger than the 42546 golden event
#: *count*: a run that dispatches the right number of events in the
#: wrong order, at perturbed times, or with different handlers changes
#: this digest.  Any change here means the simulation's event sequence
#: changed — bump it only alongside a deliberate model change.
GOLDEN_DIGEST = "947c811581b4d708bff6e41eae6f11ec3c5c7bc6d2a013a4cf76fe688ba94833"
GOLDEN_EVENTS = 42546


def _figure3(telemetry=None):
    sanitizer = ReplaySanitizer()
    result = run_scenario(
        figure3(),
        protocol="gmp",
        substrate="fluid",
        duration=30.0,
        seed=1,
        telemetry=telemetry,
        sanitizer=sanitizer,
    )
    return result, sanitizer


def test_golden_digest_plain_and_instrumented():
    plain, plain_sanitizer = _figure3()
    assert plain.extras["events_processed"] == GOLDEN_EVENTS
    assert plain_sanitizer.events == GOLDEN_EVENTS
    assert plain_sanitizer.hexdigest() == GOLDEN_DIGEST
    assert plain.extras["replay_digest"] == GOLDEN_DIGEST

    instrumented, instrumented_sanitizer = _figure3(Telemetry(profile=True))
    assert instrumented_sanitizer.hexdigest() == GOLDEN_DIGEST
    assert instrumented.extras["events_processed"] == GOLDEN_EVENTS


def test_sanitized_run_is_unperturbed():
    bare = run_scenario(
        figure3(), substrate="fluid", duration=10.0, seed=3
    )
    sanitized = run_scenario(
        figure3(),
        substrate="fluid",
        duration=10.0,
        seed=3,
        sanitizer=ReplaySanitizer(),
    )
    assert (
        sanitized.extras["events_processed"]
        == bare.extras["events_processed"]
    )
    assert sanitized.flow_rates == bare.flow_rates


def test_spec_run_reproduces_the_golden_digest():
    sanitizer = ReplaySanitizer()
    RunSpec(scenario="figure3", duration=30.0, seed=1).run(sanitizer=sanitizer)
    assert sanitizer.events == GOLDEN_EVENTS
    assert sanitizer.hexdigest() == GOLDEN_DIGEST


def test_replay_check_matches_on_deterministic_scenario():
    report, first, second = replay_check(
        RunSpec(scenario="figure3", substrate="fluid", duration=10.0, seed=2)
    )
    assert report.matched
    assert report.events_first == report.events_second
    assert report.divergence is None
    assert first.flow_rates == second.flow_rates
    assert "passed" in report.render()


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


def test_describe_callback_is_identity_free():
    class Model:
        def handler(self) -> None:
            pass

    one, two = Model(), Model()
    assert describe_callback(one.handler) == describe_callback(two.handler)
    assert "0x" not in describe_callback(one.handler)
