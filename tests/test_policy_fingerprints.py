"""The behaviour fence: one table of runs, each pinned by two digests.

Every row is a :class:`RunSpec` with the events it dispatches and two
SHA-256 prefixes:

* **L0** — every dispatched event's ``(time, priority, tag)``.  A
  refactor or an optimisation that keeps the event sequence holds it.
  The tag is the event's identity, so renaming a handler cannot move it.
* **L1** — what the run measured (``Session._observables``): per-flow
  rates, admitted, delivered and delay sums, forwards, queued and
  MAC-held packets, drops and crash losses, GMP's limit history.  A
  change that dispatches fewer events for the same behaviour holds it.

The rows cover every queueing policy — GMP's per-destination queues,
plain 802.11's shared FIFO, 2PP's per-flow queues and the shared
backpressure queue — on the fluid and DCF substrates, scale300, and the
golden figure3 run.  The disrupted rows add flow churn — Poisson
arrivals whose flows send Poisson, on/off or Pareto on/off traffic —
and, on the ``churn-faults`` rows, link loss and a crash / recover: the
paths that pause, resume and stop sources, cancel all seven DCF timers
and abort frames in flight.

A failing row prints its new values; paste them over the old ones only
alongside a deliberate change to what the simulation does, and record
the old and new values in CHANGES.md.
"""

import functools
import re

import pytest

from repro.scenarios.spec import RunSpec
from repro.sim.replay import ReplaySanitizer

CHURN = "poisson:rate=1,mean_hold=2,max_flows=4"
FAULTS = "degrade:2-3@1:loss=0.3;restore:2-3@2;crash:1@3;recover:1@4"

#: ``figure3 --substrate fluid --duration 30 --seed 1 --period 4``: the golden run.
GOLDEN = RunSpec(scenario="figure3", substrate="fluid", duration=30.0, seed=1)


def _fig3(protocol, substrate, seconds, **disruption):
    return RunSpec(
        scenario="figure3",
        protocol=protocol,
        substrate=substrate,
        duration=seconds,
        seed=1,
        **disruption,
    )


FENCE = [
    # spec, events, L0 prefix, L1 prefix
    pytest.param(
        GOLDEN,
        42546, "f8401c3e6cf4224e", "36a69ea2f5909da5",
        id="figure3-gmp-fluid-golden",
    ),
    pytest.param(
        _fig3("gmp", "fluid", 20.0),
        31940, "83eeef880ef7e18a", "9f2b68488a8ff929",
        id="figure3-gmp-fluid",
    ),
    pytest.param(
        _fig3("gmp", "fluid", 20.0, churn=CHURN, faults=FAULTS),
        39826, "b38772bb67c82bda", "6202bd53a5692416",
        id="figure3-gmp-fluid-churn-faults",
    ),
    pytest.param(
        _fig3("gmp", "fluid", 20.0, churn=CHURN + ",traffic=onoff"),
        38710, "fe88916234482487", "5c6b7f0bcc35d547",
        id="figure3-gmp-fluid-churn-onoff",
    ),
    pytest.param(
        _fig3("gmp", "fluid", 20.0, churn=CHURN + ",traffic=pareto-onoff"),
        48676, "37499af0f251c236", "84828c3092654319",
        id="figure3-gmp-fluid-churn-pareto-onoff",
    ),
    pytest.param(
        _fig3("gmp", "dcf", 2.0),
        18573, "018e034c283d9d5c", "c202567d700c1d31",
        id="figure3-gmp-dcf",
    ),
    pytest.param(
        _fig3("gmp", "dcf", 5.0, churn=CHURN, faults=FAULTS),
        43593, "e348473700570084", "a9b1254239201a76",
        id="figure3-gmp-dcf-churn-faults",
    ),
    pytest.param(
        _fig3("802.11", "fluid", 20.0),
        49001, "ece69f5bbd49e647", "91647126ff4c2f1f",
        id="figure3-802.11-fluid",
    ),
    pytest.param(
        _fig3("802.11", "dcf", 2.0),
        21393, "c33affdf7589adc5", "94b730f1f83aa4d7",
        id="figure3-802.11-dcf",
    ),
    pytest.param(
        _fig3("2pp", "fluid", 20.0),
        9748, "30cdda0ded4a657b", "2e02145c5d2a3e78",
        id="figure3-2pp-fluid",
    ),
    pytest.param(
        _fig3("2pp", "dcf", 2.0),
        15211, "9579d79c7e74a633", "b551446679f0f621",
        id="figure3-2pp-dcf",
    ),
    pytest.param(
        _fig3("backpressure-shared", "fluid", 20.0),
        49001, "ece69f5bbd49e647", "4d8345e0c7c62663",
        id="figure3-backpressure-shared-fluid",
    ),
    pytest.param(
        _fig3("backpressure-shared", "dcf", 2.0),
        18572, "77b9f1417f280fbc", "4d3245cb53d669d8",
        id="figure3-backpressure-shared-dcf",
    ),
    pytest.param(
        RunSpec(scenario="scale300", substrate="fluid", duration=2.0, seed=1),
        14501, "55e42a85b83adf91", "b6b4644e2668e4e7",
        id="scale300-gmp-fluid",
    ),
]


class HandlerLog(ReplaySanitizer):
    """A sanitizer that also records the handlers dispatched under each
    tag family (digits folded: ``traffic.f3`` -> ``traffic.f#``)."""

    def __init__(self) -> None:
        super().__init__(journal_limit=0)
        self.families: dict[str, str] = {}
        self.handlers: dict[str, set[str]] = {}

    def observe(self, event) -> None:
        super().observe(event)
        family = self.families.get(event.tag)
        if family is None:
            family = self.families[event.tag] = re.sub(r"\d+", "#", event.tag)
        callback = event.callback
        while isinstance(callback, functools.partial):
            callback = callback.func
        self.handlers.setdefault(family, set()).add(callback.__qualname__)


def fence_run(spec, sanitizer=None, **observers):
    """Run ``spec`` under a journal-less sanitizer; returns
    ``(result, events, L0 prefix, L1 prefix)``."""
    sanitizer = sanitizer or ReplaySanitizer(journal_limit=0)
    result = spec.run(sanitizer=sanitizer, **observers)
    extras = result.extras
    return (
        result,
        extras["events_processed"],
        extras["replay_digest"][:16],
        extras["observable_digest"][:16],
    )


@pytest.mark.parametrize("spec, events, l0, l1", FENCE)
def test_run_matches_its_fingerprint(spec, events, l0, l1):
    log = HandlerLog()
    result, *measured = fence_run(spec, log)
    if measured != [events, l0, l1]:
        pytest.fail(f"fence row moved; new values: {measured}")
    # One tag, one handler: the tag alone identifies an event.
    shared = {family: handlers for family, handlers in log.handlers.items() if len(handlers) > 1}
    assert not shared
    if spec.churn:
        assert result.extras["churn"].arrivals > 0
    if spec.faults:
        assert len(result.extras["faults"]) == 4
