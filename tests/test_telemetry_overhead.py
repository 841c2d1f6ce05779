"""Telemetry must be passive: a run without it dispatches exactly the
same events as before the subsystem existed, and an instrumented run
dispatches the identical sequence (telemetry never schedules events or
touches the RNG)."""

import time

from repro.scenarios.spec import RunSpec
from repro.telemetry import Telemetry

#: Dispatched-event count of `figure3 --substrate fluid --duration 30
#: --seed 1`, captured before the telemetry subsystem landed.  Any
#: change here means telemetry perturbed the simulation.
GOLDEN_EVENTS = 42546


def _figure3(telemetry=None):
    start = time.perf_counter()
    result = RunSpec(
        scenario="figure3", protocol="gmp", substrate="fluid", duration=30.0, seed=1
    ).run(telemetry=telemetry)
    return result, time.perf_counter() - start


def test_disabled_run_matches_pre_telemetry_golden_count():
    result, _ = _figure3()
    assert result.extras["events_processed"] == GOLDEN_EVENTS


def test_enabled_run_dispatches_identical_events_and_rates():
    plain, plain_wall = _figure3()
    instrumented, instrumented_wall = _figure3(Telemetry(profile=True))
    assert (
        instrumented.extras["events_processed"]
        == plain.extras["events_processed"]
    )
    assert instrumented.flow_rates == plain.flow_rates
    assert instrumented.effective_throughput == plain.effective_throughput
    # The disabled path must not have grown measurable overhead: it is
    # the bare pre-telemetry dispatch loop, so it cannot be slower than
    # the fully instrumented profiling run by more than scheduling
    # noise (generous bound to stay robust on loaded CI machines).
    assert plain_wall <= instrumented_wall * 1.5 + 0.25
