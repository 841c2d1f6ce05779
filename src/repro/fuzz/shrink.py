"""Scenario shrinking: reduce a failing fuzz case to a minimal repro.

Greedy delta debugging over the case's run spec: each pass proposes a
simpler candidate (drop the fault schedule, drop one fault event, drop
one static flow, simplify the churn process, halve the duration,
shrink the topology) and keeps it iff the candidate still fails *the
same oracles* as the original.  Passes repeat until a full sweep
changes nothing — the fixpoint is the spec committed as a regression
fixture.

Every candidate evaluation replays deterministically (same seeds), so
shrinking is itself reproducible: the same failing spec always shrinks
to the same minimal spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from repro.churn.spec import parse_churn_spec
from repro.errors import ReproError
from repro.fuzz.grammar import FuzzScenario, is_valid
from repro.fuzz.oracles import FuzzOutcome, evaluate
from repro.scenarios.spec import RANDOM

#: Runs shorter than this stop being meaningful (warmup + a few GMP
#: periods must fit).
MIN_DURATION = 10.0


@dataclass
class ShrinkResult:
    """Outcome of one shrink session.

    Attributes:
        minimal: the smallest still-failing case found.
        original: the case shrinking started from.
        evaluations: candidate runs spent (each is two simulations).
        steps: human-readable log of accepted reductions.
    """

    minimal: FuzzScenario
    original: FuzzScenario
    evaluations: int = 0
    steps: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"shrink: {len(self.steps)} reduction(s) in "
            f"{self.evaluations} evaluation(s)"
        ]
        lines.extend(f"  - {step}" for step in self.steps)
        return "\n".join(lines)


def _churn_candidates(case: FuzzScenario) -> Iterator[tuple[str, FuzzScenario]]:
    """Simplifications of the churn component, simplest-first."""
    if case.spec.churn is None:
        return
    if case.plant_bug is None:
        # A planted GMP leak needs churn to manifest; otherwise try
        # removing the whole process first.
        yield "drop churn", case.with_spec(churn=None)
    try:
        churn = parse_churn_spec(case.spec.churn)
    except ReproError:
        return

    def simpler(**changes) -> FuzzScenario:
        return case.with_spec(churn=replace(churn, **changes).to_text())

    if churn.model == "poisson":
        if churn.max_flows > 1:
            yield "churn max_flows -> 1", simpler(max_flows=1)
        if churn.rate > 0.1:
            yield "halve churn rate", simpler(rate=round(churn.rate / 2, 4))
        if churn.hold != "exp":
            yield "churn hold -> exp", simpler(hold="exp")
        if churn.traffic != "cbr":
            yield "churn traffic -> cbr", simpler(traffic="cbr")
    elif churn.burst > 1:
        yield "adversary burst -> 1", simpler(burst=1)


def _fault_candidates(case: FuzzScenario) -> Iterator[tuple[str, FuzzScenario]]:
    """Simplifications of the fault component."""
    if case.spec.faults is None:
        return
    yield "drop faults", case.with_spec(faults=None)
    events = [part.strip() for part in case.spec.faults.split(";") if part.strip()]
    if len(events) > 1:
        for index in range(len(events)):
            kept = events[:index] + events[index + 1 :]
            yield (
                f"drop fault event {events[index]!r}",
                case.with_spec(faults=";".join(kept)),
            )


def _candidates(case: FuzzScenario) -> Iterator[tuple[str, FuzzScenario]]:
    """All one-step reductions, biggest-win-first."""
    yield from _fault_candidates(case)
    yield from _churn_candidates(case)
    spec = case.spec
    if len(spec.flows) > 1:
        for index in range(len(spec.flows)):
            kept = spec.flows[:index] + spec.flows[index + 1 :]
            yield (
                f"drop static flow {spec.flows[index]}",
                case.with_spec(flows=kept),
            )
    if spec.duration / 2 >= max(MIN_DURATION, spec.rate_interval or 0.0):
        yield (
            f"halve duration to {spec.duration / 2:g}s",
            case.with_spec(duration=spec.duration / 2),
        )
    if spec.scenario == RANDOM and spec.nodes is not None and spec.nodes > 3:
        yield (
            f"shrink to {spec.nodes - 1} nodes",
            case.with_spec(nodes=spec.nodes - 1),
        )


def shrink(
    case: FuzzScenario,
    failed_names: set[str],
    *,
    max_evaluations: int = 40,
    still_fails: Callable[[FuzzScenario], FuzzOutcome] | None = None,
) -> ShrinkResult:
    """Reduce ``case`` while it keeps failing the same oracles.

    Args:
        case: the failing fuzz case.
        failed_names: oracle names the original failed (a candidate is
            accepted only if it fails at least one of them again —
            shrinking must not wander onto a *different* bug).
        max_evaluations: budget of candidate evaluations (each costs
            two simulation runs).
        still_fails: evaluation hook, overridable in tests; defaults to
            :func:`repro.fuzz.oracles.evaluate`.
    """
    evaluate_spec = still_fails or evaluate
    result = ShrinkResult(minimal=case, original=case)

    def reproduces(candidate: FuzzScenario) -> bool:
        result.evaluations += 1
        outcome = evaluate_spec(candidate)
        return bool(outcome.failed_names() & failed_names)

    current = case
    improved = True
    while improved and result.evaluations < max_evaluations:
        improved = False
        for label, candidate in _candidates(current):
            if result.evaluations >= max_evaluations:
                break
            if not is_valid(candidate):
                continue
            if reproduces(candidate):
                current = candidate
                result.steps.append(label)
                improved = True
                break  # restart passes from the simpler spec
    result.minimal = current
    return result
