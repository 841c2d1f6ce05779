"""Churn specifications and the deterministic trace builder.

A :class:`ChurnSpec` describes a *process*; :func:`build_trace` expands
it into a concrete :class:`ChurnTrace` — a time-ordered sequence of
:class:`FlowArrival` / :class:`FlowDeparture` events — using named
:class:`~repro.sim.rng.RngRegistry` streams, so the whole dynamic
workload is a pure function of the run seed: replaying the same seed
replays the identical churn, and the replay sanitizer's digest covers
it.

The compact textual form (CLI ``--churn``, fuzzer repro specs)::

    poisson:rate=0.3,mean_hold=6,hold=pareto,alpha=1.5,max_flows=4
    adversary:burst=2,on=2,off=2

Keys for ``poisson``: ``rate`` (arrivals/s), ``mean_hold`` (s),
``hold`` (``exp`` | ``pareto``), ``alpha`` (Pareto shape), ``max_flows``
(concurrent cap), ``traffic`` (``cbr`` | ``poisson`` | ``onoff`` |
``pareto-onoff``), ``desired_rate``, ``start``, ``stop``, ``static``
(1: static flows get holding times too).  ``adversary`` adds ``burst``
(flows per wave), ``on`` / ``off`` (wave length in GMP periods).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ChurnError
from repro.flows.flow import Flow, FlowSet
from repro.flows.traffic import pareto_draw
from repro.routing.table import RouteSet
from repro.sim.rng import RngRegistry

#: Traffic models a churned flow may use (validated here; the runner
#: owns the name -> class mapping).
CHURN_TRAFFIC_MODELS = ("cbr", "poisson", "onoff", "pareto-onoff")

HOLD_MODELS = ("exp", "pareto")
CHURN_MODELS = ("poisson", "adversary")


@dataclass(frozen=True)
class ChurnSpec:
    """Parameters of the churn process.

    Attributes:
        model: "poisson" (memoryless arrivals) or "adversary"
            (period-locked bursts; see :mod:`repro.churn.adversary`).
        rate: mean flow arrivals per second (poisson model).
        mean_hold: mean holding time (lifetime) of a churned flow.
        hold: holding-time law — "exp" or heavy-tailed "pareto".
        alpha: Pareto shape for ``hold="pareto"`` (must exceed 1).
        max_flows: cap on concurrently active churned flows; arrivals
            beyond it are skipped (and counted).
        traffic: arrival process of churned flows' packets.
        desired_rate: desirable rate d(f) of churned flows (pkt/s).
        weight: maxmin weight of churned flows.
        start: no churn arrivals before this time.
        stop: no churn arrivals after this time (None: run end).
        burst: adversary — flows per arrival wave.
        on_periods: adversary — wave lifetime in GMP periods.
        off_periods: adversary — gap between waves in GMP periods.
        include_static: also assign holding times (drawn from the same
            law) to the scenario's static flows, so they depart too.
        leak_departed_state: **testing hook** (text key ``leak``) —
            skip the GMP teardown on departure, deliberately planting
            the state-leak bug the fuzz oracles exist to catch.  Used by
            the fuzzer's self-check (``--plant-bug gmp-leak``) to
            validate the whole oracle + shrinker pipeline; never set it
            in real workloads.
    """

    model: str = "poisson"
    rate: float = 0.25
    mean_hold: float = 8.0
    hold: str = "pareto"
    alpha: float = 1.5
    max_flows: int = 8
    traffic: str = "poisson"
    desired_rate: float = 800.0
    weight: float = 1.0
    start: float = 0.0
    stop: float | None = None
    burst: int = 2
    on_periods: int = 2
    off_periods: int = 2
    include_static: bool = False
    leak_departed_state: bool = False

    def __post_init__(self) -> None:
        if self.model not in CHURN_MODELS:
            raise ChurnError(
                f"unknown churn model {self.model!r}; pick from {CHURN_MODELS}"
            )
        if self.hold not in HOLD_MODELS:
            raise ChurnError(
                f"unknown holding-time law {self.hold!r}; pick from {HOLD_MODELS}"
            )
        if self.traffic not in CHURN_TRAFFIC_MODELS:
            raise ChurnError(
                f"unknown churn traffic model {self.traffic!r}; pick from "
                f"{CHURN_TRAFFIC_MODELS}"
            )
        if self.rate <= 0:
            raise ChurnError(f"arrival rate must be positive: {self.rate}")
        if self.mean_hold <= 0:
            raise ChurnError(f"mean_hold must be positive: {self.mean_hold}")
        if self.hold == "pareto" and self.alpha <= 1.0:
            raise ChurnError(
                f"pareto shape must exceed 1 for a finite mean: {self.alpha}"
            )
        if self.max_flows < 1:
            raise ChurnError(f"max_flows must be >= 1: {self.max_flows}")
        if self.desired_rate <= 0:
            raise ChurnError(
                f"desired_rate must be positive: {self.desired_rate}"
            )
        if self.weight <= 0:
            raise ChurnError(f"weight must be positive: {self.weight}")
        if self.start < 0:
            raise ChurnError(f"start must be >= 0: {self.start}")
        if self.stop is not None and self.stop <= self.start:
            raise ChurnError(
                f"empty churn window [{self.start}, {self.stop})"
            )
        if self.burst < 1 or self.on_periods < 1 or self.off_periods < 1:
            raise ChurnError(
                "adversary burst/on/off must all be >= 1: "
                f"burst={self.burst}, on={self.on_periods}, "
                f"off={self.off_periods}"
            )

    def to_text(self) -> str:
        """The compact textual form; round-trips through
        :func:`parse_churn_spec`."""
        parts: list[str] = []
        defaults = ChurnSpec()
        for key, label in _TEXT_KEYS.items():
            value = getattr(self, key)
            if value == getattr(defaults, key):
                continue
            if isinstance(value, bool):
                value = int(value)
            parts.append(f"{label}={value:g}" if isinstance(value, float) else f"{label}={value}")
        body = ",".join(parts)
        return f"{self.model}:{body}" if body else self.model


#: attribute -> textual key (model is the prefix).
_TEXT_KEYS = {
    "rate": "rate",
    "mean_hold": "mean_hold",
    "hold": "hold",
    "alpha": "alpha",
    "max_flows": "max_flows",
    "traffic": "traffic",
    "desired_rate": "desired_rate",
    "weight": "weight",
    "start": "start",
    "stop": "stop",
    "burst": "burst",
    "on_periods": "on",
    "off_periods": "off",
    "include_static": "static",
    "leak_departed_state": "leak",
}

_FLOAT_KEYS = {"rate", "mean_hold", "alpha", "desired_rate", "weight", "start", "stop"}
_INT_KEYS = {"max_flows", "burst", "on_periods", "off_periods"}
_BOOL_KEYS = {"include_static", "leak_departed_state"}


def parse_churn_spec(text: str) -> ChurnSpec:
    """Parse the compact ``model:key=value,...`` churn syntax.

    Raises:
        ChurnError: on any syntax or validation error.
    """
    model, _sep, body = text.strip().partition(":")
    model = model.strip()
    values: dict[str, object] = {"model": model}
    by_label = {label: key for key, label in _TEXT_KEYS.items()}
    if body.strip():
        for item in body.split(","):
            label, sep, raw = item.partition("=")
            label = label.strip()
            raw = raw.strip()
            if not sep or not raw:
                raise ChurnError(f"bad churn parameter {item!r} (expected key=value)")
            key = by_label.get(label)
            if key is None:
                raise ChurnError(
                    f"unknown churn key {label!r}; known: {sorted(by_label)}"
                )
            if key in _FLOAT_KEYS:
                try:
                    values[key] = float(raw)
                except ValueError:
                    raise ChurnError(f"bad number {raw!r} for churn key {label!r}") from None
            elif key in _INT_KEYS:
                try:
                    values[key] = int(raw)
                except ValueError:
                    raise ChurnError(f"bad integer {raw!r} for churn key {label!r}") from None
            elif key in _BOOL_KEYS:
                values[key] = raw not in ("0", "false", "no")
            else:
                values[key] = raw
    return ChurnSpec(**values)  # type: ignore[arg-type]


# --- trace ----------------------------------------------------------------------


@dataclass(frozen=True)
class FlowArrival:
    """A new flow joins the network at time ``at``."""

    at: float
    flow: Flow


@dataclass(frozen=True)
class FlowDeparture:
    """Flow ``flow_id`` leaves at time ``at`` (its source stops; queued
    packets drain)."""

    at: float
    flow_id: int


@dataclass(frozen=True)
class ChurnTrace:
    """A concrete, time-ordered churn workload.

    Attributes:
        events: arrivals and departures sorted by time (arrivals first
            on ties, declaration order preserved).
        skipped_at_cap: arrivals the ``max_flows`` cap suppressed
            during generation.
    """

    events: tuple[FlowArrival | FlowDeparture, ...]
    skipped_at_cap: int = 0

    def __len__(self) -> int:
        return len(self.events)

    def arrivals(self) -> list[FlowArrival]:
        return [e for e in self.events if isinstance(e, FlowArrival)]

    def departures(self) -> list[FlowDeparture]:
        return [e for e in self.events if isinstance(e, FlowDeparture)]


def routable_pairs(routes: RouteSet, flows: FlowSet) -> list[tuple[int, int]]:
    """Ordered (source, dest) candidates for churned flows: every
    routable pair, excluding pairs already used by a static flow (two
    flows on the identical pair are legal but tell us nothing new)."""
    taken = {(flow.source, flow.destination) for flow in flows}
    pairs: list[tuple[int, int]] = []
    for source in routes.node_ids():
        table = routes.table(source)
        for dest in routes.node_ids():
            if source == dest or (source, dest) in taken:
                continue
            if table.has_route(dest):
                pairs.append((source, dest))
    return pairs


def _hold_time(spec: ChurnSpec, rng) -> float:
    if spec.hold == "pareto":
        return pareto_draw(rng, spec.mean_hold, spec.alpha)
    return float(rng.exponential(spec.mean_hold))


def build_trace(
    spec: ChurnSpec,
    *,
    routes: RouteSet,
    flows: FlowSet,
    duration: float,
    rng: RngRegistry,
    period: float = 2.0,
) -> ChurnTrace:
    """Expand ``spec`` into a concrete trace for one run.

    Every draw goes through named registry streams (``churn.arrival``,
    ``churn.hold``, ``churn.pair``), so the trace is a deterministic
    function of the registry's seed and the spec.

    Args:
        spec: the churn process.
        routes: routing tables (candidate pairs must be routable).
        flows: the scenario's static flows (ids are allocated above
            theirs; with ``include_static`` they get departures too).
        duration: run length; no event is scheduled at or after it.
        rng: the run's RNG registry (the simulator's).
        period: the GMP measurement period (adversary phase lock).

    Raises:
        ChurnError: when no routable candidate pair exists.
    """
    if spec.model == "adversary":
        from repro.churn.adversary import build_adversary_trace

        return build_adversary_trace(
            spec, routes=routes, flows=flows, duration=duration, period=period
        )

    pairs = routable_pairs(routes, flows)
    if not pairs:
        raise ChurnError("no routable (source, dest) pair for churn arrivals")
    arrival_rng = rng.stream("churn.arrival")
    hold_rng = rng.stream("churn.hold")
    pair_rng = rng.stream("churn.pair")

    events: list[FlowArrival | FlowDeparture] = []
    next_id = flows.next_flow_id()

    if spec.include_static:
        for flow in flows:
            hold = _hold_time(spec, hold_rng)
            if hold < duration:
                events.append(FlowDeparture(at=hold, flow_id=flow.flow_id))

    stop = duration if spec.stop is None else min(spec.stop, duration)
    now = spec.start
    active: list[float] = []  # departure times of live churned flows
    skipped = 0
    while True:
        now += float(arrival_rng.exponential(1.0 / spec.rate))
        if now >= stop:
            break
        active = [t for t in active if t > now]
        hold = _hold_time(spec, hold_rng)
        if len(active) >= spec.max_flows:
            skipped += 1
            continue
        source, dest = pairs[int(pair_rng.integers(len(pairs)))]
        flow = Flow(
            flow_id=next_id,
            source=source,
            destination=dest,
            weight=spec.weight,
            desired_rate=spec.desired_rate,
            packet_bytes=1024,
        )
        next_id += 1
        events.append(FlowArrival(at=now, flow=flow))
        departure = now + hold
        if departure < duration:
            events.append(FlowDeparture(at=departure, flow_id=flow.flow_id))
            active.append(departure)
        else:
            active.append(duration)
    events.sort(key=lambda e: (e.at, isinstance(e, FlowDeparture)))
    return ChurnTrace(events=tuple(events), skipped_at_cap=skipped)


def replace(spec: ChurnSpec, **changes) -> ChurnSpec:
    """``dataclasses.replace`` re-exported for spec mutation (shrinker,
    planted-bug hook) without importing dataclasses at call sites."""
    return dataclasses.replace(spec, **changes)
