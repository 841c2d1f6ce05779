"""Transient-response metrics for fault-injection runs.

Given the per-interval rate series a fault run records, these helpers
quantify how the protocol rode out the fault:

* :func:`reconvergence_time` — how long after the fault every flow's
  rate settled within a tolerance band around a reference allocation
  (and stayed there for a holding window);
* :func:`goodput_lost` — packet-time area between the reference and
  the achieved rates over a window;
* :func:`min_rate_dip` — the worst instantaneous (per-interval) rate
  any flow fell to during the transient;
* :func:`surviving_maxmin_reference` — the maxmin allocation on the
  *surviving* topology, i.e. what the rates should reconverge to while
  crashed nodes are down;
* :func:`per_arrival_convergence` — for dynamic workloads (flow
  churn), how long after each flow's *arrival* its delivered rate
  settled, measured against its own steady level late in its lifetime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from repro.analysis.maxmin_reference import weighted_maxmin_rates
from repro.errors import AnalysisError
from repro.flows.flow import Flow, FlowSet
from repro.routing.link_state import link_state_routes
from repro.topology.cliques import CliqueSystem
from repro.topology.network import Topology


@dataclass(frozen=True)
class TransientMetrics:
    """Summary of one fault transient.

    Attributes:
        fault_time: when the fault hit.
        reconverged_at: absolute time reconvergence was first achieved
            (end of the first in-band sample), or None.
        time_to_reconverge: ``reconverged_at - fault_time``, or None.
        goodput_lost: packets of goodput lost versus the reference
            between the fault and reconvergence (or the series end).
        min_rate_dip: worst per-interval rate any referenced flow hit
            after the fault.
    """

    fault_time: float
    reconverged_at: float | None
    time_to_reconverge: float | None
    goodput_lost: float
    min_rate_dip: float


def _check_series(
    interval_rates: dict[int, list[float]], interval: float
) -> int:
    if interval <= 0:
        raise AnalysisError(f"interval must be positive: {interval}")
    if not interval_rates:
        raise AnalysisError("no rate series to analyze")
    return min(len(series) for series in interval_rates.values())


def _window_edges(
    count: int, interval: float, bounds: list[float] | None
) -> list[float]:
    """Edge times of the first ``count`` windows: ``edges[j]`` /
    ``edges[j+1]`` bracket sample ``j``.

    Without explicit bounds every window is assumed ``interval`` wide —
    which overstates the final window when the run ended mid-window.
    Runs recorded through :meth:`~repro.scenarios.spec.RunSpec.run`
    carry the true edges in ``RunResult.interval_bounds``; pass them to
    weight the partial tail correctly.
    """
    if bounds:
        if len(bounds) < count:
            raise AnalysisError(
                f"interval_bounds has {len(bounds)} edges for {count} samples"
            )
        return [0.0] + [float(b) for b in bounds[:count]]
    return [index * interval for index in range(count + 1)]


def reconvergence_time(
    interval_rates: dict[int, list[float]],
    interval: float,
    *,
    fault_time: float,
    reference: dict[int, float],
    epsilon: float = 0.1,
    atol: float = 0.0,
    hold: int = 3,
    bounds: list[float] | None = None,
) -> float | None:
    """Seconds from the fault until every referenced flow's rate stays
    within ``epsilon`` (relative) + ``atol`` (absolute) of its
    reference for ``hold`` consecutive samples.

    Sample ``j`` covers ``[bounds[j-1], bounds[j])`` when ``bounds``
    (the run's ``interval_bounds``) is given, else
    ``[j*interval, (j+1)*interval)``.  Returns None when the series
    never settles.

    Raises:
        AnalysisError: on empty series, bad interval, or a referenced
            flow with no series.
    """
    if hold < 1:
        raise AnalysisError(f"hold must be >= 1: {hold}")
    if epsilon < 0 or atol < 0:
        raise AnalysisError("tolerances must be non-negative")
    count = _check_series(interval_rates, interval)
    missing = [flow_id for flow_id in reference if flow_id not in interval_rates]
    if missing:
        raise AnalysisError(f"no rate series for flows {missing}")
    edges = _window_edges(count, interval, bounds)

    def in_band(index: int) -> bool:
        for flow_id, target in reference.items():
            rate = interval_rates[flow_id][index]
            if abs(rate - target) > epsilon * target + atol:
                return False
        return True

    streak = 0
    for index in range(count):
        if edges[index] < fault_time - 1e-9:
            continue  # window starts before the fault
        streak = streak + 1 if in_band(index) else 0
        if streak >= hold:
            settled_index = index - hold + 1
            return edges[settled_index + 1] - fault_time
    return None


def goodput_lost(
    interval_rates: dict[int, list[float]],
    interval: float,
    *,
    reference: dict[int, float],
    start: float,
    end: float,
    bounds: list[float] | None = None,
) -> float:
    """Packets of goodput lost versus ``reference`` over ``[start, end)``.

    Only shortfalls count: a flow transiently exceeding its reference
    does not pay back another flow's loss.  Pass the run's
    ``interval_bounds`` as ``bounds`` so a partial final window is
    weighted by its true width.
    """
    if end < start:
        raise AnalysisError(f"empty window [{start}, {end})")
    count = _check_series(interval_rates, interval)
    edges = _window_edges(count, interval, bounds)
    lost = 0.0
    for flow_id, target in reference.items():
        series = interval_rates.get(flow_id)
        if series is None:
            raise AnalysisError(f"no rate series for flow {flow_id}")
        for index in range(count):
            lo = edges[index]
            hi = edges[index + 1]
            overlap = min(hi, end) - max(lo, start)
            if overlap <= 0:
                continue
            lost += max(0.0, target - series[index]) * overlap
    return lost


def min_rate_dip(
    interval_rates: dict[int, list[float]],
    interval: float,
    *,
    start: float,
    end: float | None = None,
    flow_ids: list[int] | None = None,
    bounds: list[float] | None = None,
) -> float:
    """Worst per-interval rate any selected flow hit in the window."""
    count = _check_series(interval_rates, interval)
    edges = _window_edges(count, interval, bounds)
    selected = flow_ids if flow_ids is not None else sorted(interval_rates)
    worst = math.inf
    for flow_id in selected:
        series = interval_rates.get(flow_id)
        if series is None:
            raise AnalysisError(f"no rate series for flow {flow_id}")
        for index in range(count):
            lo = edges[index]
            hi = edges[index + 1]
            if hi <= start or (end is not None and lo >= end):
                continue
            worst = min(worst, series[index])
    if not math.isfinite(worst):
        raise AnalysisError(f"no samples in window starting at {start}")
    return worst


def evaluate_transient(
    result,
    *,
    fault_time: float,
    reference: dict[int, float],
    epsilon: float = 0.1,
    atol: float = 0.0,
    hold: int = 3,
) -> TransientMetrics:
    """All transient metrics for one fault-run :class:`RunResult`.

    Raises:
        AnalysisError: if the result carries no per-interval series
            (run without ``rate_interval``).
    """
    interval = getattr(result, "rate_interval", None)
    series = getattr(result, "interval_rates", None)
    if not interval or not series:
        raise AnalysisError(
            "result has no per-interval rate series; run the scenario "
            "with rate_interval set"
        )
    bounds = list(getattr(result, "interval_bounds", None) or [])
    count = min(len(s) for s in series.values())
    edges = _window_edges(count, interval, bounds)
    settle = reconvergence_time(
        series,
        interval,
        fault_time=fault_time,
        reference=reference,
        epsilon=epsilon,
        atol=atol,
        hold=hold,
        bounds=bounds,
    )
    reconverged_at = None if settle is None else fault_time + settle
    window_end = reconverged_at if reconverged_at is not None else edges[-1]
    lost = goodput_lost(
        series,
        interval,
        reference=reference,
        start=fault_time,
        end=window_end,
        bounds=bounds,
    )
    dip = min_rate_dip(
        series,
        interval,
        start=fault_time,
        end=window_end if window_end > fault_time else None,
        flow_ids=sorted(reference),
        bounds=bounds,
    )
    return TransientMetrics(
        fault_time=fault_time,
        reconverged_at=reconverged_at,
        time_to_reconverge=settle,
        goodput_lost=lost,
        min_rate_dip=dip,
    )


def per_arrival_convergence(
    interval_rates: dict[int, list[float]],
    interval: float,
    *,
    lifetimes: dict[int, tuple[float, float]],
    epsilon: float = 0.15,
    atol: float = 5.0,
    hold: int = 3,
    tail: float = 0.25,
    bounds: list[float] | None = None,
) -> dict[int, float | None]:
    """Seconds from each flow's arrival until its rate settled.

    With churn there is no single external reference allocation — the
    feasible share changes with every arrival and departure — so each
    flow is measured against *its own* steady level: the mean of the
    last ``tail`` fraction of its in-lifetime samples.  A flow settles
    at the end of the first run of ``hold`` consecutive in-lifetime
    samples within ``epsilon`` (relative) + ``atol`` (absolute,
    packets/s) of that level.

    Args:
        interval_rates: the run's per-interval rate series (a flow's
            samples before its arrival are zero-padded by the runner).
        interval: nominal window width (``RunResult.rate_interval``).
        lifetimes: flow id → (arrival, departure) for the flows to
            evaluate — typically ``RunResult.flow_lifetimes``.
        epsilon: relative tolerance around the steady level.
        atol: absolute tolerance in packets/second (interval sampling
            of a stochastic arrival process never sits exactly on the
            mean, so a purely relative band under-reports).
        hold: consecutive in-band samples required.
        tail: fraction of the lifetime's samples defining the level.
        bounds: the run's ``interval_bounds`` (true window edges).

    Returns:
        flow id → seconds after arrival, or None when the flow never
        settled (or lived for fewer than ``hold`` windows, or its
        steady level is zero — a flow that never got going has no
        convergence time).

    Raises:
        AnalysisError: on bad tolerances or a lifetime flow with no
            rate series.
    """
    if hold < 1:
        raise AnalysisError(f"hold must be >= 1: {hold}")
    if epsilon < 0 or atol < 0:
        raise AnalysisError("tolerances must be non-negative")
    if not 0 < tail <= 1:
        raise AnalysisError(f"tail fraction must lie in (0, 1]: {tail}")
    if not lifetimes:
        return {}
    count = _check_series(interval_rates, interval)
    edges = _window_edges(count, interval, bounds)

    settled: dict[int, float | None] = {}
    for flow_id, (arrival, departure) in sorted(lifetimes.items()):
        series = interval_rates.get(flow_id)
        if series is None:
            raise AnalysisError(f"no rate series for flow {flow_id}")
        in_life = [
            index
            for index in range(count)
            if edges[index] >= arrival - 1e-9
            and edges[index + 1] <= departure + 1e-9
        ]
        if len(in_life) < hold:
            settled[flow_id] = None
            continue
        tail_count = max(1, math.ceil(tail * len(in_life)))
        level_samples = [series[index] for index in in_life[-tail_count:]]
        level = sum(level_samples) / len(level_samples)
        if level <= 0:
            settled[flow_id] = None
            continue
        band = epsilon * level + atol
        streak = 0
        answer: float | None = None
        for index in in_life:
            streak = streak + 1 if abs(series[index] - level) <= band else 0
            if streak >= hold:
                first = in_life[in_life.index(index) - hold + 1]
                answer = edges[first + 1] - arrival
                break
        settled[flow_id] = answer
    return settled


def surviving_maxmin_reference(
    topology: Topology,
    flows: FlowSet,
    dead_nodes: set[int],
    capacity: float,
) -> dict[int, float]:
    """Maxmin reference rates on the topology minus ``dead_nodes``.

    Flows sourced at, destined to, or disconnected by the dead nodes
    get a reference of 0.0; the rest are solved by progressive filling
    over the surviving network's contention cliques.

    Raises:
        AnalysisError: if ``dead_nodes`` contains unknown nodes.
    """
    unknown = {node for node in dead_nodes if node not in topology}
    if unknown:
        raise AnalysisError(f"unknown nodes in dead set: {sorted(unknown)}")

    survivor = Topology(tx_range=topology.tx_range, cs_range=topology.cs_range)
    for node in topology:
        if node.node_id not in dead_nodes:
            survivor.add_node(node.node_id, node.x, node.y)

    reference = {flow.flow_id: 0.0 for flow in flows}
    if len(survivor) < 2:
        return reference

    routes = link_state_routes(survivor)
    alive: list[Flow] = []
    for flow in flows:
        if flow.source in dead_nodes or flow.destination in dead_nodes:
            continue
        if not routes.table(flow.source).has_route(flow.destination):
            continue  # partitioned away; it can deliver nothing
        alive.append(flow)
    if not alive:
        return reference

    paths = (routes.path_links(flow.source, flow.destination) for flow in alive)
    cliques = CliqueSystem(survivor, chain.from_iterable(paths)).cliques
    solution = weighted_maxmin_rates(
        FlowSet(alive), routes, cliques, capacity
    )
    reference.update(solution.rates)
    return reference
