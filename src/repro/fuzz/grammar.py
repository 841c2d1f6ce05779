"""The scenario grammar: generation and the fixture format.

A :class:`FuzzScenario` is one fuzz case: a
:class:`~repro.scenarios.spec.RunSpec` — random topology, static
flows, churn and fault DSL texts, run seed, duration — plus the defect
planted in it, if any.  It is small enough to commit as a regression
fixture (the spec's JSON with a ``plant_bug`` key) and precise enough
to replay the identical simulation, and the DSL texts make a fixture
double as a human-readable bug report.

:func:`generate_scenarios` draws cases from a seeded grammar through a
:class:`~repro.sim.rng.RngRegistry` — case ``i`` of budget ``N``
under seed ``S`` is always the same, independent of how many other
cases run, so a CI failure reproduces locally from just ``(S, i)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.churn.spec import parse_churn_spec
from repro.errors import FuzzError, ReproError
from repro.routing.link_state import link_state_routes
from repro.scenarios.spec import RANDOM, RunSpec
from repro.sim.rng import RngRegistry
from repro.topology.builders import random_topology

#: Planted bugs the fuzzer can inject to validate its own oracle +
#: shrinker pipeline (``--plant-bug``).
PLANTED_BUGS = ("gmp-leak",)


@dataclass(frozen=True)
class FuzzScenario:
    """One fuzz case, fully replayable.

    Attributes:
        spec: the run.
        plant_bug: name of a deliberately injected defect (see
            :data:`PLANTED_BUGS`), or None for an honest run.  It rides
            beside the spec so a shrunk planted-bug fixture replays the
            bug, and its honest twin is the same spec without it.
    """

    spec: RunSpec
    plant_bug: str | None = None

    def __post_init__(self) -> None:
        if self.plant_bug is not None and self.plant_bug not in PLANTED_BUGS:
            raise FuzzError(
                f"unknown planted bug {self.plant_bug!r}; known: {PLANTED_BUGS}"
            )
        if self.plant_bug == "gmp-leak" and self.spec.churn is None:
            raise FuzzError("gmp-leak needs a churn spec to leak departures on")

    def with_spec(self, **changes: Any) -> FuzzScenario:
        """This case with the given spec fields changed."""
        return FuzzScenario(replace(self.spec, **changes), self.plant_bug)

    def planted(self) -> RunSpec:
        """The spec that runs: ``gmp-leak`` turns on the churn engine's
        ``leak`` hook, which skips the GMP teardown on departure."""
        if self.plant_bug is None:
            return self.spec
        assert self.spec.churn is not None
        churn = replace(parse_churn_spec(self.spec.churn), leak_departed_state=True)
        return replace(self.spec, churn=churn.to_text())

    def write(self, path: str | Path) -> None:
        """Write the fixture: the spec's JSON plus ``plant_bug``."""
        data: dict[str, Any] = self.spec.to_json()
        if self.plant_bug is not None:
            data["plant_bug"] = self.plant_bug
        Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def read(cls, path: str | Path) -> FuzzScenario:
        """Load a fixture.

        Raises:
            FuzzError: on an unreadable file, or a spec with a missing
                or wrong-typed field or unparsable DSL text.
        """
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise FuzzError(f"cannot read fuzz spec {path}: {error}") from None
        try:
            plant_bug = data.pop("plant_bug", None) if isinstance(data, dict) else None
            return cls(RunSpec.from_json(data), plant_bug)
        except ReproError as error:
            raise FuzzError(f"malformed fuzz spec {path}: {error}") from None

    def label(self) -> str:
        """Short human identifier (names shrunk fixture files)."""
        spec = self.spec
        where = f"n{spec.nodes}-t{spec.topo_seed}" if spec.scenario == RANDOM else spec.scenario
        return f"fuzz-{where}-s{spec.seed}"


def is_valid(case: FuzzScenario) -> bool:
    """Whether the case's scenario materializes (shrinker candidates)."""
    try:
        case.spec.build_scenario()
    except ReproError:
        return False
    return True


@dataclass
class GrammarConfig:
    """Knobs of the generation grammar (defaults = CI smoke shape)."""

    min_nodes: int = 4
    max_nodes: int = 8
    min_flows: int = 1
    max_flows: int = 3
    durations: tuple[float, ...] = (20.0, 30.0, 40.0)
    churn_probability: float = 0.8
    fault_probability: float = 0.5
    traffic_models: tuple[str, ...] = ("cbr", "poisson", "onoff", "pareto-onoff")
    hold_models: tuple[str, ...] = ("exp", "pareto")
    seed_space: int = 2**31 - 1


def _draw_flows(rng, routes, nodes: int, config: GrammarConfig):
    pairs = [
        (s, d)
        for s in range(nodes)
        for d in range(nodes)
        if s != d and routes.table(s).has_route(d)
    ]
    count = min(int(rng.integers(config.min_flows, config.max_flows + 1)), len(pairs))
    chosen: list[tuple[int, int]] = []
    for _ in range(count):
        remaining = [pair for pair in pairs if pair not in chosen]
        if not remaining:
            break
        chosen.append(remaining[int(rng.integers(len(remaining)))])
    return tuple(chosen)


def _draw_churn(rng, config: GrammarConfig) -> str:
    if rng.uniform() < 0.25:
        burst = int(rng.integers(1, 4))
        on = int(rng.integers(1, 4))
        off = int(rng.integers(1, 4))
        return f"adversary:burst={burst},on={on},off={off}"
    rate = round(float(rng.uniform(0.15, 0.5)), 3)
    mean_hold = round(float(rng.uniform(3.0, 10.0)), 2)
    hold = config.hold_models[int(rng.integers(len(config.hold_models)))]
    max_flows = int(rng.integers(2, 6))
    traffic = config.traffic_models[int(rng.integers(len(config.traffic_models)))]
    text = (
        f"poisson:rate={rate},mean_hold={mean_hold},hold={hold},"
        f"max_flows={max_flows},traffic={traffic}"
    )
    if hold == "pareto":
        alpha = round(float(rng.uniform(1.2, 2.5)), 2)
        text += f",alpha={alpha}"
    return text


def _draw_faults(rng, nodes: int, duration: float) -> str | None:
    kind = int(rng.integers(3))
    if kind == 0:
        # Crash/recover one node mid-run.
        node = int(rng.integers(nodes))
        crash_at = round(float(rng.uniform(0.2, 0.5)) * duration, 2)
        recover_at = round(
            crash_at + float(rng.uniform(0.1, 0.3)) * duration, 2
        )
        if recover_at >= duration:
            return f"crash:{node}@{crash_at}"
        return f"crash:{node}@{crash_at};recover:{node}@{recover_at}"
    if kind == 1:
        # Control-plane loss window.
        prob = round(float(rng.uniform(0.2, 0.9)), 2)
        start = round(float(rng.uniform(0.2, 0.5)) * duration, 2)
        end = round(start + float(rng.uniform(0.1, 0.4)) * duration, 2)
        end = min(end, round(duration, 2))
        if end <= start:
            return None
        return f"ctrl:{prob}@{start}-{end}"
    return None  # fault-free third of the fault-enabled runs


def generate_scenarios(
    budget: int,
    seed: int,
    *,
    config: GrammarConfig | None = None,
    plant_bug: str | None = None,
) -> list[FuzzScenario]:
    """Draw ``budget`` scenarios from the grammar under ``seed``.

    Each scenario uses its own registry stream (``fuzz.scenario.<i>``),
    so the i-th spec is stable across budget changes.

    Raises:
        FuzzError: on a non-positive budget or unknown planted bug.
    """
    if budget < 1:
        raise FuzzError(f"budget must be >= 1: {budget}")
    config = config or GrammarConfig()
    registry = RngRegistry(seed)
    cases: list[FuzzScenario] = []
    for index in range(budget):
        rng = registry.stream(f"fuzz.scenario.{index}")
        nodes = int(rng.integers(config.min_nodes, config.max_nodes + 1))
        topo_seed = int(rng.integers(config.seed_space))
        run_seed = int(rng.integers(config.seed_space))
        duration = float(
            config.durations[int(rng.integers(len(config.durations)))]
        )
        topology = random_topology(
            nodes, seed=topo_seed, require_connected=True
        )
        routes = link_state_routes(topology)
        flows = _draw_flows(rng, routes, nodes, config)
        if not flows:
            # Degenerate placement; fall back to any routable pair.
            flows = ((0, nodes - 1),)
        churn = (
            _draw_churn(rng, config)
            if rng.uniform() < config.churn_probability
            else None
        )
        # A planted GMP leak needs departures to leak on.
        if plant_bug == "gmp-leak" and churn is None:
            churn = _draw_churn(rng, config)
        faults = (
            _draw_faults(rng, nodes, duration)
            if rng.uniform() < config.fault_probability
            else None
        )
        case = FuzzScenario(
            RunSpec(
                scenario=RANDOM,
                nodes=nodes,
                topo_seed=topo_seed,
                seed=run_seed,
                duration=duration,
                flows=flows,
                churn=churn,
                faults=faults,
            ),
            plant_bug,
        )
        if not is_valid(case):
            # e.g. the fallback pair is unroutable on this placement;
            # regenerate as a minimal fault-free variant.
            case = case.with_spec(faults=None)
            if not is_valid(case):
                continue
        cases.append(case)
    return cases
