"""One run description: :class:`RunSpec`.

A :class:`RunSpec` holds every input that shapes the dispatched event
sequence of one run.  It validates at construction, round-trips
through :meth:`~RunSpec.to_json` / :meth:`~RunSpec.from_json`, and has
a :meth:`~RunSpec.digest` that is the same in every process.  The sweep
keys its cache on that digest, a served session journals the spec as
its header, a fuzz fixture is a spec plus a planted bug, and
``python -m repro <scenario>`` builds one from its flags.

What is not part of a run's identity — the keywords in
:data:`OBSERVERS` — is passed to :meth:`RunSpec.run`.
:func:`replay_check` runs a spec twice and diffs the L0 and L1 digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, fields
from typing import Any

from repro.churn.spec import parse_churn_spec
from repro.core.config import GmpConfig
from repro.errors import ConfigError
from repro.faults.spec import parse_fault_spec
from repro.flows.flow import Flow, FlowSet
from repro.routing.link_state import link_state_routes
from repro.scenarios.figures import (
    PAPER_DESIRED_RATE,
    Scenario,
    figure1,
    figure2,
    figure2_weighted,
    figure3,
    figure4,
)
from repro.scenarios.results import RunResult
from repro.scenarios.runner import (
    PROTOCOLS,
    ROUTING_PROTOCOLS,
    SUBSTRATES,
    TRAFFIC_MODELS,
    run_scenario,
)
from repro.scenarios.scale import scale100, scale300, scale300c, scale1000
from repro.sim.replay import ReplayReport, ReplaySanitizer, diff_sanitizers
from repro.topology.builders import random_topology
from repro.topology.network import Topology

#: Scenario factories addressable by name.  ``figure2w`` is Figure 2
#: under Table 2's weights (1, 2, 1, 3) — a separate name so weighted
#: and unweighted runs never share sweep-cache entries.  The ``scale*``
#: family (:mod:`repro.scenarios.scale`) provides seeded city-scale
#: topologies; ``scale300c`` is the clustered variant.
SCENARIO_FACTORIES = {
    "figure1": figure1,
    "figure2": figure2,
    "figure2w": figure2_weighted,
    "figure3": figure3,
    "figure4": figure4,
    "scale100": scale100,
    "scale300": scale300,
    "scale300c": scale300c,
    "scale1000": scale1000,
}

#: The scenario name of a seeded random connected topology, described
#: inline by ``nodes``, ``topo_seed`` and static ``flows``.
RANDOM = "random"
#: The scenario name of a literal topology, described inline by
#: ``topology``: ``{"nodes": [[x, y], ...], "flows": [[source, dest,
#: weight?, desired_rate?], ...]}`` at the default radio ranges.  Node
#: ``i`` sits at ``nodes[i]``; flow ids are 1..n in order, weight
#: defaults to 1 and desired rate to the paper's 800 pkt/s.
LITERAL = "literal"

#: The keywords :meth:`RunSpec.run` accepts: they observe the run
#: (``monitors`` among them), bound it, audit it, or (``control``) steer
#: it through a journal of their own, and none is part of the spec's
#: identity.
OBSERVERS = frozenset(
    "telemetry sanitizer monitors control "
    "max_events stall_limit wall_deadline check_invariants".split()
)

#: scalar field -> type, and the scalar fields that may be None.
_SCALARS: dict[str, type] = {
    "scenario": str, "protocol": str, "substrate": str, "traffic": str, "seed": int,
    "duration": float, "period": float, "beta": float, "routing": str,
}
_OPTIONAL: dict[str, type] = {
    "nodes": int, "topo_seed": int, "rate_interval": float, "churn": str, "faults": str,
    "capacity_pps": float,
}
#: Fields newer than the spec's first digests, with their defaults:
#: :meth:`RunSpec.to_json` leaves each out while it holds its default,
#: so a spec that does not set them keeps the digest it always had.
_LATE: dict[str, Any] = {
    "topology": None, "capacity_pps": None, "gmp": None, "routing": "link_state",
}
#: The :class:`GmpConfig` fields ``gmp`` may override -> (type, may be
#: None).  ``period`` and ``beta`` are spec fields of their own.
_GMP: dict[str, tuple[type, bool]] = {
    f.name: (int if str(f.type).startswith("int") else float, "None" in str(f.type))
    for f in fields(GmpConfig)
    if f.name not in ("period", "beta")
}


def _typed(name: str, value: Any, kind: type, optional: bool = False) -> Any:
    """``value`` as ``kind`` (an int widens to float), or ConfigError."""
    if value is None and optional:
        return None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        wanted = kind.__name__ + (" or null" if optional else "")
        raise ConfigError(f"run spec field {name!r} must be {wanted}, got {value!r}")
    return value


def _gmp_overrides(value: Any) -> dict[str, Any] | None:
    """``gmp`` checked by name and type, sorted, defaults dropped (so
    one override has one spelling); None when nothing is left."""
    if value is not None and not isinstance(value, Mapping):
        raise ConfigError(f"gmp must map GmpConfig fields to values, got {value!r}")
    unknown = sorted(set(value or ()) - set(_GMP))
    if unknown:
        raise ConfigError(f"gmp fields {unknown} are not among {sorted(_GMP)}; nor are period, beta")
    typed = {name: _typed(f"gmp.{name}", value[name], *_GMP[name]) for name in sorted(value or ())}
    return {name: v for name, v in typed.items() if v != getattr(GmpConfig, name)} or None


def _literal(value: Any) -> dict[str, tuple[tuple[Any, ...], ...]]:
    """A literal topology with typed positions and every flow spelled
    ``(source, dest, weight, desired_rate)``."""

    def flow(source: Any, dest: Any, weight: Any = 1.0, rate: Any = PAPER_DESIRED_RATE) -> tuple:
        row = zip((source, dest, weight, rate), (int, int, float, float))
        typed = tuple(_typed("topology", item, kind) for item, kind in row)
        if not all(0 < number < math.inf for number in typed[2:]):
            raise ConfigError(f"flow weight and desired rate must be positive: {typed}")
        return typed

    try:
        if set(value) != {"nodes", "flows"} or not value["nodes"]:
            raise TypeError
        nodes = tuple(
            (_typed("topology", x, float), _typed("topology", y, float)) for x, y in value["nodes"]
        )
        flows = tuple(flow(*row) for row in value["flows"])
    except (TypeError, ValueError):
        raise ConfigError(
            f"a topology is {{'nodes': [[x, y], ...], 'flows': [[source, dest, weight?, "
            f"desired_rate?], ...]}} with a node: {value!r}"
        ) from None
    return {"nodes": nodes, "flows": flows}


@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """Every input that shapes one run's event sequence.

    Attributes:
        scenario: a key of :data:`SCENARIO_FACTORIES`, :data:`RANDOM`
            or :data:`LITERAL`.
        weights: figure2's four flow weights (None: all 1).
        nodes / topo_seed / flows: a :data:`RANDOM` scenario's node
            count, placement seed and static (source, dest) pairs; flow
            ids are 1..n in order.
        topology: a :data:`LITERAL` scenario's node positions and
            flows (see there).
        protocol / substrate / seed / duration: one of
            :data:`~repro.scenarios.runner.PROTOCOLS`; "fluid" or "dcf";
            the RNG seed; simulated seconds (rates skip the first third).
        traffic / routing: a key of :data:`~repro.scenarios.runner.
            TRAFFIC_MODELS` / :data:`~repro.scenarios.runner.ROUTING_PROTOCOLS`.
        period / beta: the GMP period and equality tolerance.
        gmp: overrides of the other :class:`GmpConfig` fields, by name.
        capacity_pps: the clique capacity of the fluid substrate and the
            2PP allocation, or None for the PHY's saturation estimate.
        rate_interval: per-flow rate sampling window, or None for the
            runner's default.
        churn / faults: churn and fault DSL text, or None.

    Raises:
        ConfigError / ChurnError / FaultError: at construction, on a
            wrong type, an unknown name, an out-of-range number,
            unparsable DSL text or a literal flow with no route.
    """

    scenario: str = "figure3"
    weights: tuple[float, ...] | None = None
    nodes: int | None = None
    topo_seed: int | None = None
    flows: tuple[tuple[int, int], ...] = ()
    topology: dict[str, tuple[tuple[Any, ...], ...]] | None = None
    protocol: str = "gmp"
    substrate: str = "fluid"
    seed: int = 1
    duration: float = 30.0
    traffic: str = "cbr"
    routing: str = "link_state"
    period: float = GmpConfig.period
    beta: float = GmpConfig.beta
    gmp: dict[str, Any] | None = None
    capacity_pps: float | None = None
    rate_interval: float | None = None
    churn: str | None = None
    faults: str | None = None

    def __post_init__(self) -> None:
        # Normalise in place (the dataclass is frozen): ints widen to
        # floats and lists become tuples, so one run spelled two ways
        # compares, hashes and digests equal.
        for name, kind in (*_SCALARS.items(), *_OPTIONAL.items()):
            value = _typed(name, getattr(self, name), kind, optional=name in _OPTIONAL)
            object.__setattr__(self, name, value)
        try:
            flows = tuple((_typed("flows", s, int), _typed("flows", d, int)) for s, d in self.flows)
            weights = self.weights and tuple(_typed("weights", w, float) for w in self.weights)
        except (TypeError, ValueError):
            raise ConfigError(
                f"flows must be [source, dest] pairs and weights numbers: "
                f"{self.flows!r}, {self.weights!r}"
            ) from None
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "gmp", _gmp_overrides(self.gmp))
        if self.topology is not None:
            object.__setattr__(self, "topology", _literal(self.topology))

        for what, name, choices in (
            ("scenario", self.scenario, (*SCENARIO_FACTORIES, RANDOM, LITERAL)),
            ("protocol", self.protocol, PROTOCOLS),
            ("substrate", self.substrate, SUBSTRATES),
            ("traffic model", self.traffic, tuple(TRAFFIC_MODELS)),
            ("routing", self.routing, tuple(ROUTING_PROTOCOLS)),
        ):
            if name not in choices:
                raise ConfigError(f"unknown {what} {name!r}; pick from {choices}")
        if not 0 < self.duration < math.inf:
            raise ConfigError(f"duration must be positive and finite: {self.duration}")
        if self.capacity_pps is not None and not 0 < self.capacity_pps < math.inf:
            raise ConfigError(f"capacity_pps must be positive and finite: {self.capacity_pps}")
        self.gmp_config()
        if self.rate_interval is not None and not 0 < self.rate_interval <= self.duration:
            raise ConfigError(
                f"rate_interval {self.rate_interval} must lie within (0, {self.duration}]"
            )
        if self.churn is not None:
            parse_churn_spec(self.churn)
            if self.protocol == "2pp":
                raise ConfigError("2pp's allocation is static: it cannot take churn")
        if self.faults is not None:
            parse_fault_spec(self.faults)
        if self.scenario == RANDOM:
            if self.nodes is None or self.nodes < 2 or self.topo_seed is None or not flows:
                raise ConfigError(
                    f"a {RANDOM!r} scenario needs 2+ nodes, a topo_seed and a flow: "
                    f"{self.nodes}, {self.topo_seed}, {flows}"
                )
        elif self.nodes is not None or self.topo_seed is not None or flows:
            raise ConfigError(f"nodes, topo_seed and flows describe a {RANDOM!r} scenario")
        if (self.scenario == LITERAL) != (self.topology is not None):
            raise ConfigError(f"a topology describes a {LITERAL!r} scenario, and it needs one")
        if self.topology is not None:
            self.build_scenario()
        if weights is not None and (
            self.scenario != "figure2" or len(weights) != 4 or min(weights) <= 0
        ):
            raise ConfigError(f"weights are figure2's four positive weights: {weights}")

    def __hash__(self) -> int:
        return hash(self.digest())

    def to_json(self) -> dict[str, Any]:
        """Every field, JSON-plain; a field of :data:`_LATE` only when
        it is set."""
        data = asdict(self)
        data["flows"] = [list(pair) for pair in self.flows]
        data["weights"] = self.weights and list(self.weights)
        if self.topology is not None:
            data["topology"] = {key: list(map(list, rows)) for key, rows in self.topology.items()}
        for name, default in _LATE.items():
            if data[name] == default:
                del data[name]
        return data

    @classmethod
    def from_json(cls, data: Any) -> RunSpec:
        """Rebuild a spec from :meth:`to_json` output; absent fields
        take their defaults.

        Raises:
            ConfigError: on a non-object, an unknown field, or any
                construction error.
        """
        if not isinstance(data, dict):
            raise ConfigError(f"a run spec is a JSON object, got {data!r}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown run spec field(s) {unknown}")
        return cls(**data)

    def digest(self) -> str:
        """SHA-256 of the canonical JSON form: the same for the same
        spec in every process, whatever its hash seed."""
        text = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def gmp_config(self) -> GmpConfig:
        """The run's GMP parameters (ConfigError when out of range)."""
        return GmpConfig(period=self.period, beta=self.beta, **(self.gmp or {}))

    def build_scenario(self) -> Scenario:
        """Materialise the topology and static flows.

        Raises:
            ConfigError: when a random or literal scenario's flow pair
                lies outside its topology, is a self-loop or has no
                route.
        """
        if self.weights is not None:
            return figure2(weights=self.weights)  # type: ignore[arg-type]
        if self.scenario == RANDOM:
            topology = random_topology(self.nodes, seed=self.topo_seed, require_connected=True)
            specs = [(s, d, 1.0, PAPER_DESIRED_RATE) for s, d in self.flows]
            name = f"{RANDOM}-n{self.nodes}-t{self.topo_seed}"
        elif self.scenario == LITERAL:
            topology = Topology()
            topology.add_nodes(self.topology["nodes"])
            specs = list(self.topology["flows"])
            name = LITERAL
        else:
            return SCENARIO_FACTORIES[self.scenario]()
        routes = link_state_routes(topology)
        for source, dest, *_ in specs:
            if source not in topology or dest not in topology:
                raise ConfigError(f"flow pair ({source}, {dest}) outside the topology")
            if source == dest or not routes.table(source).has_route(dest):
                raise ConfigError(f"flow pair ({source}, {dest}) is unroutable")
        flows = [
            Flow(flow_id, source, dest, weight=weight, desired_rate=rate)
            for flow_id, (source, dest, weight, rate) in enumerate(specs, start=1)
        ]
        return Scenario(name=name, topology=topology, flows=FlowSet(flows))

    def run(self, **observers: Any) -> RunResult:
        """Build the scenario and run it through
        :func:`~repro.scenarios.runner.run_scenario`.

        Raises:
            ConfigError: on a keyword outside :data:`OBSERVERS` (a run
                input belongs in the spec), plus whatever
                ``run_scenario`` raises.
        """
        misplaced = sorted(set(observers) - OBSERVERS)
        if misplaced:
            raise ConfigError(f"{misplaced} are not observers; run inputs belong in the RunSpec")
        return run_scenario(
            self.build_scenario(),
            protocol=self.protocol,
            substrate=self.substrate,
            duration=self.duration,
            seed=self.seed,
            traffic=self.traffic,
            routing=self.routing,
            gmp_config=self.gmp_config(),
            capacity_pps=self.capacity_pps,
            rate_interval=self.rate_interval,
            churn=parse_churn_spec(self.churn) if self.churn is not None else None,
            faults=parse_fault_spec(self.faults) if self.faults is not None else None,
            **observers,
        )


def replay_check(
    spec: RunSpec, *, journal_limit: int | None = None, **observers: Any
) -> tuple[ReplayReport, RunResult, RunResult]:
    """Run ``spec`` twice and diff the L0 and L1 digests.

    A matched report proves the two runs dispatched the identical
    event sequence and measured the same; a mismatch names the first
    divergent event (index, timestamp, tag) — the symptom of an
    unseeded draw, a wall-clock read, or hash-order iteration feeding
    the schedule.  ``observers`` go to both runs; a telemetry instance
    accumulates across runs, so the intended use is the watchdogs and
    ``check_invariants``.

    Returns:
        ``(report, first_result, second_result)``.
    """
    if "sanitizer" in observers:
        raise ConfigError("replay_check manages its own sanitizers")
    limits = {"journal_limit": journal_limit} if journal_limit is not None else {}
    first, second = ReplaySanitizer(**limits), ReplaySanitizer(**limits)
    result_first = spec.run(sanitizer=first, **observers)
    result_second = spec.run(sanitizer=second, **observers)
    return diff_sanitizers(first, second), result_first, result_second


# --- command line ---------------------------------------------------------------


def _weights(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad weights {text!r}") from None


#: The run command line's flags, one per spec field (``--weights``
#: applies to figure2 only); ``repro serve`` takes a subset.  Each
#: defaults to its :class:`RunSpec` field.
RUN_FLAGS: dict[str, dict[str, Any]] = {
    "protocol": {"choices": PROTOCOLS},
    "substrate": {"choices": SUBSTRATES},
    "duration": {"type": float},
    "seed": {"type": int},
    "period": {"type": float, "help": "GMP period (s)"},
    "beta": {"type": float},
    "traffic": {"choices": tuple(TRAFFIC_MODELS)},
    "churn": {
        "help": 'dynamic workload, e.g. "poisson:rate=0.3,mean_hold=6,hold=pareto" '
        'or "adversary:burst=2,on=2,off=2"',
    },
    "weights": {
        "type": _weights,
        "help": "figure2 flow weights, comma-separated (e.g. 1,2,1,3)",
    },
    "faults": {
        "help": 'fault schedule, e.g. "crash:1@20;recover:1@40;ctrl:0.5@10-30"',
    },
    "rate_interval": {
        "type": float,
        "help": "record per-flow rates over windows of this many seconds",
    },
}


def add_run_flags(
    parser: argparse.ArgumentParser, names: Iterable[str] = tuple(RUN_FLAGS), **defaults: Any
) -> None:
    """Add the run flags ``names`` to ``parser``, each defaulting to its
    :class:`RunSpec` field unless ``defaults`` overrides it."""
    spec_defaults = {field.name: field.default for field in fields(RunSpec)}
    for name in names:
        default = defaults.get(name, spec_defaults[name])
        parser.add_argument("--" + name.replace("_", "-"), default=default, **RUN_FLAGS[name])


def spec_from_args(args: argparse.Namespace) -> RunSpec:
    """The spec a parsed command line describes: ``args.scenario`` plus
    whichever run flags its parser defines."""
    values = {name: getattr(args, name) for name in RUN_FLAGS if hasattr(args, name)}
    if args.scenario != "figure2":
        values.pop("weights", None)
    return RunSpec(scenario=args.scenario, **values)
