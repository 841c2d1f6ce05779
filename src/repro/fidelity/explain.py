"""Per-flow diagnosis: *why is flow f running at rate r?*

:func:`explain_flow` joins four views of one finished GMP run into one
:class:`RateExplanation` record:

* the **centralized reference** — which contention clique froze the
  flow during water-filling (or that the flow reached its desirable
  rate), the clique's member links, and its consumed capacity;
* the **measured run** — the flow's delivered rate, its gap to the
  reference, and when its ``gmp.flow_rate`` samples entered (and
  stayed inside) a tolerance band around the reference;
* the **protocol's own view** — which of the paper's local link
  conditions dominated the flow's path during the run (from the
  ``gmp.condition_seconds`` dwell counters) and the final rate limit;
* the flow's **adjustments** — every applied ``gmp.adjust`` for it,
  joined to the link-condition transition or bandwidth violation that
  likely triggered it.

A GMP run made with a :class:`~repro.telemetry.Telemetry`
carries everything needed in ``RunResult.extras``.  ``python -m repro
<scenario>`` prints every flow's :meth:`~RateExplanation.narrative`
and ``--explain-out`` saves it (or the :meth:`~RateExplanation.to_json`
list); ``GET /flows/<id>`` of a served session returns the JSON.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.analysis.convergence import convergence_time
from repro.errors import AnalysisError
from repro.scenarios.results import RunResult
from repro.telemetry import Telemetry, TelemetryEvent

#: Condition states a virtual link can dwell in (lowercased
#: :class:`~repro.core.classification.LinkType` names, as recorded by
#: the ``gmp.condition_seconds`` counter).
CONDITION_STATES = ("bandwidth_saturated", "buffer_saturated", "unsaturated")

#: Default tolerance band around the maxmin reference (±5%).
BAND = 0.05

#: Default number of trailing in-band rate samples a flow needs to
#: count as settled (guards against a lucky last sample).
HOLD = 3

#: Adjustments a narrative lists (the most recent ones); ``to_json``
#: carries them all.
SHOWN_ADJUSTMENTS = 5


@dataclass(frozen=True)
class AdjustmentAttribution:
    """One applied rate adjustment of a flow, joined to its likely
    trigger (None when no matching transition preceded it)."""

    time: float
    kind: str  # "increase" | "decrease"
    reason: str  # "source" | "buffer" | "bandwidth"
    origin: int  # node that issued the winning request
    multiplier: float
    old_limit: float | None
    new_limit: float | None
    trigger: str | None  # human-readable transition or violation
    trigger_time: float | None


@dataclass
class RateExplanation:
    """Everything known about why one flow runs at its measured rate.

    Attributes:
        flow_id: the explained flow.
        measured_rate: delivered packets/second over the measurement
            window.
        reference_rate: the centralized weighted-maxmin rate, or None
            when the flow was retired before the reference was solved
            (the reference covers the flows live at that moment).
        gap / gap_pct: ``measured - reference`` (absolute, percent of
            the reference); None without a reference.
        weight: the flow's maxmin weight.
        path: the flow's routed path as directed links.
        desire_limited: True when the reference froze the flow at its
            desirable rate rather than at a clique.
        bottleneck_clique: clique id that froze the flow in the
            reference computation (None when desire-limited or without
            a reference).
        bottleneck_links: that clique's member links.
        bottleneck_usage / bottleneck_capacity: consumed vs available
            capacity of the bottleneck clique in the reference.
        active_condition: the dominant post-warmup link condition on
            the flow's path toward its destination ("source" when the
            path never left the unsaturated state and the flow is
            desire-limited).
        condition_dwell: per path link, seconds spent in each
            condition state for this flow's destination.
        rate_limit: the flow's final GMP rate limit, if one applied.
        band: relative tolerance of the band verdict (0.05 = ±5%).
        entered_at: first time from which every later rate sample stays
            within the band (at least ``hold`` of them), or None if the
            flow never settled or the band is undefined.
        closest_off: smallest relative distance of a rate sample to the
            reference, or None when the band is undefined (no or zero
            reference, no rate samples).
        adjustments: the flow's applied rate adjustments in time order,
            each joined to its likely trigger.
    """

    flow_id: int
    measured_rate: float
    reference_rate: float | None
    gap: float | None
    gap_pct: float | None
    weight: float
    path: list[tuple[int, int]]
    desire_limited: bool
    bottleneck_clique: tuple[int, int] | None
    bottleneck_links: list[tuple[int, int]]
    bottleneck_usage: float | None
    bottleneck_capacity: float | None
    active_condition: str
    condition_dwell: dict[str, dict[str, float]] = field(default_factory=dict)
    rate_limit: float | None = None
    band: float = BAND
    entered_at: float | None = None
    closest_off: float | None = None
    adjustments: list[AdjustmentAttribution] = field(default_factory=list)

    @property
    def last_adjust(self) -> AdjustmentAttribution | None:
        """The flow's last applied adjustment, if telemetry saw one."""
        return self.adjustments[-1] if self.adjustments else None

    def to_json(self) -> dict[str, Any]:
        """Every field as JSON-ready values, plus ``last_adjust``."""
        payload = asdict(self)
        payload["path"] = [list(link) for link in self.path]
        payload["bottleneck_links"] = [
            list(link) for link in self.bottleneck_links
        ]
        if self.bottleneck_clique is not None:
            payload["bottleneck_clique"] = list(self.bottleneck_clique)
        payload["last_adjust"] = (
            payload["adjustments"][-1] if self.adjustments else None
        )
        return payload

    def narrative(self) -> str:
        """The explanation as a readable paragraph, followed by the
        flow's last :data:`SHOWN_ADJUSTMENTS` adjustments, one per
        line."""
        hops = " -> ".join(
            [str(self.path[0][0])] + [str(b) for _, b in self.path]
        ) if self.path else "?"
        head = (
            f"flow {self.flow_id} (weight {self.weight:g}, path {hops}) "
            f"measured {self.measured_rate:.1f} pkt/s"
        )
        if self.reference_rate is None:
            lines = [
                f"{head}; no centralized reference (retired before the "
                "reference was solved)."
            ]
        else:
            lines = [
                f"{head} vs centralized maxmin {self.reference_rate:.1f} "
                f"pkt/s ({self.gap_pct:+.1f}%)."
            ]
        if self.desire_limited:
            lines.append(
                "The reference froze it at its desirable rate — no clique "
                "constrains it (desire-limited)."
            )
        elif self.bottleneck_clique is not None:
            links = ", ".join(
                f"{a}-{b}" for a, b in self.bottleneck_links
            )
            usage = (
                f" ({self.bottleneck_usage:.1f}/"
                f"{self.bottleneck_capacity:.1f} pkt/s used)"
                if self.bottleneck_usage is not None
                and self.bottleneck_capacity is not None
                else ""
            )
            lines.append(
                f"Bottleneck: contention clique "
                f"{self.bottleneck_clique} over links {{{links}}}{usage}."
            )
        lines.append(
            f"Dominant local condition on its path: "
            f"{self.active_condition.replace('_', '-')}."
        )
        if self.rate_limit is not None:
            limit = (
                "unlimited" if self.rate_limit == float("inf")
                else f"{self.rate_limit:.1f} pkt/s"
            )
            lines.append(f"Final GMP rate limit: {limit}.")
        band = f"±{self.band * 100:g}% band"
        if self.entered_at is not None:
            lines.append(f"Entered the {band} at t={self.entered_at:.1f}s.")
        elif self.closest_off is not None:
            lines.append(
                f"Never settled in the {band} "
                f"(closest {self.closest_off * 100:.0f}% off)."
            )
        elif self.reference_rate is not None:
            lines.append(
                f"The {band} is undefined (zero reference or no rate "
                "samples)."
            )
        lines.append(f"Rate adjustments applied: {len(self.adjustments)}.")
        text = [" ".join(lines)]
        hidden = len(self.adjustments) - SHOWN_ADJUSTMENTS
        if hidden > 0:
            text.append(f"  (+{hidden} earlier adjustments)")
        for adjustment in self.adjustments[max(hidden, 0):]:
            entry = (
                f"  t={adjustment.time:6.1f}s {adjustment.kind} "
                f"x{adjustment.multiplier:.2f} ({adjustment.reason} "
                f"condition at node {adjustment.origin})"
            )
            if adjustment.trigger is not None:
                entry += f" — after {adjustment.trigger}"
            text.append(entry)
        return "\n".join(text)


def _require(result: RunResult, key: str) -> Any:
    if key not in result.extras:
        raise AnalysisError(
            f"cannot explain flows: run is missing extras[{key!r}] — "
            "re-run with protocol='gmp' and telemetry enabled"
        )
    return result.extras[key]


def explain_flow(
    result: RunResult, flow_id: int, *, band: float = BAND, hold: int = HOLD
) -> RateExplanation:
    """Explain one flow of a finished GMP run.

    Args:
        result: the run; its extras must carry the reference solution.
        flow_id: the flow to explain.
        band: relative tolerance around the reference for the band
            verdict (0.05 = ±5%).
        hold: minimum in-band trailing rate samples for the flow to
            count as settled.

    Raises:
        AnalysisError: when ``flow_id`` is unknown, ``band`` is outside
            (0, 1), ``hold`` is below 1, or the run lacks the reference
            solution (non-GMP protocol, no telemetry).
    """
    if not 0 < band < 1:
        raise AnalysisError(f"band must be in (0, 1): {band}")
    if hold < 1:
        raise AnalysisError(f"hold must be >= 1: {hold}")
    if flow_id not in result.flow_rates:
        raise AnalysisError(
            f"unknown flow {flow_id}; run has flows "
            f"{sorted(result.flow_rates)}"
        )
    solution = _require(result, "maxmin_solution")
    paths = _require(result, "flow_paths")
    weights = result.extras.get("flow_weights", {})
    capacity = result.extras.get("capacity_pps")
    telemetry = result.extras.get("telemetry")
    if not isinstance(telemetry, Telemetry):
        telemetry = None

    measured = result.flow_rates[flow_id]
    reference = solution.rates.get(flow_id)
    clique_id = solution.bottlenecks.get(flow_id)
    desire_limited = reference is not None and clique_id is None

    bottleneck_links: list[tuple[int, int]] = []
    usage: float | None = None
    if clique_id is not None:
        for clique in result.extras.get("cliques", []):
            if clique.clique_id == clique_id:
                bottleneck_links = clique.sorted_links()
                break
        usage = solution.clique_usage.get(clique_id)

    path = [tuple(link) for link in paths.get(flow_id, [])]
    dwell, active = _condition_dwell(telemetry, path)
    if active == "unsaturated" and desire_limited:
        # Paper condition 1: the flow sits at its source's desirable
        # rate; nothing on the path ever saturated for it.
        active = "source"

    gap = gap_pct = None
    if reference is not None:
        gap = measured - reference
        gap_pct = 100.0 * gap / reference if reference else 0.0
    entered_at, closest_off = _band_verdict(
        telemetry, flow_id, reference, band=band, hold=hold
    )
    return RateExplanation(
        flow_id=flow_id,
        measured_rate=measured,
        reference_rate=reference,
        gap=gap,
        gap_pct=gap_pct,
        weight=weights.get(flow_id, 1.0),
        path=path,
        desire_limited=desire_limited,
        bottleneck_clique=clique_id,
        bottleneck_links=bottleneck_links,
        bottleneck_usage=usage,
        bottleneck_capacity=capacity,
        active_condition=active,
        condition_dwell=dwell,
        rate_limit=result.extras.get("rate_limits", {}).get(flow_id),
        band=band,
        entered_at=entered_at,
        closest_off=closest_off,
        adjustments=_adjustments(
            telemetry, flow_id, path[-1][1] if path else None
        ),
    )


def _condition_dwell(
    telemetry: Telemetry | None, path: list[tuple[int, int]]
) -> tuple[dict[str, dict[str, float]], str]:
    """Per-path-link condition dwell seconds toward the flow's
    destination, and the dominant *saturated* state over the whole
    path ("unsaturated" when nothing ever saturated)."""
    dwell: dict[str, dict[str, float]] = {}
    if telemetry is None or not path:
        return dwell, "unsaturated"
    destination = path[-1][1]
    wanted = {f"{a}->{b}" for a, b in path}
    for counter in telemetry.registry.instruments("gmp.condition_seconds"):
        link = counter.labels.get("link")
        if link not in wanted:
            continue
        if counter.labels.get("dest") != destination:
            continue
        state = str(counter.labels.get("state"))
        dwell.setdefault(link, {})[state] = counter.value
    totals = {state: 0.0 for state in CONDITION_STATES}
    for states in dwell.values():
        for state, seconds in states.items():
            totals[state] = totals.get(state, 0.0) + seconds
    saturated = {
        state: seconds
        for state, seconds in totals.items()
        if state != "unsaturated" and seconds > 0.0
    }
    if not saturated:
        return dwell, "unsaturated"
    return dwell, max(saturated, key=lambda state: (saturated[state], state))


def _band_verdict(
    telemetry: Telemetry | None,
    flow_id: int,
    reference: float | None,
    *,
    band: float,
    hold: int,
) -> tuple[float | None, float | None]:
    """``(entered_at, closest_off)`` of the flow's ``gmp.flow_rate``
    samples against its reference; both None when the band is
    undefined."""
    times: list[float] = []
    values: list[float] = []
    if telemetry is not None:
        for series in telemetry.registry.instruments("gmp.flow_rate"):
            if series.labels.get("flow") == flow_id:
                times, values = list(series.times), list(series.values)
                break
    if not reference or not values:
        return None, None
    entered = convergence_time(values, reference, tolerance=band, hold=hold)
    closest = min(abs(value - reference) / reference for value in values)
    return (None if entered is None else times[entered]), closest


def _adjustments(
    telemetry: Telemetry | None, flow_id: int, destination: int | None
) -> list[AdjustmentAttribution]:
    """The flow's applied adjustments, each joined to its likely
    trigger.  A bandwidth response follows the latest persistent
    clique-occupancy violation; any other response follows the latest
    transition *into* a saturated state of a virtual link toward the
    flow's destination that has the issuing node as an endpoint."""
    if telemetry is None:
        return []
    saturations = [
        change
        for change in telemetry.events_in("gmp.condition_change")
        if change.fields["dest"] == destination
        and change.fields["new"] in ("buffer_saturated", "bandwidth_saturated")
    ]
    violations = telemetry.events_in("gmp.violation")
    attributions: list[AdjustmentAttribution] = []
    for event in telemetry.events_in("gmp.adjust"):
        fields = event.fields
        if fields["flow"] != flow_id:
            continue
        origin = int(fields["origin"])
        if fields["reason"] == "bandwidth":
            candidates = violations
        else:
            candidates = [
                change
                for change in saturations
                if str(origin) in change.fields["link"].split("->")
            ]
        cause: TelemetryEvent | None = None
        for candidate in candidates:
            if candidate.time > event.time:
                break
            cause = candidate
        attributions.append(
            AdjustmentAttribution(
                time=event.time,
                kind=str(fields["kind"]),
                reason=str(fields["reason"]),
                origin=origin,
                multiplier=float(fields["multiplier"]),
                old_limit=fields["old_limit"],
                new_limit=fields["new_limit"],
                trigger=None if cause is None else _describe(cause),
                trigger_time=None if cause is None else cause.time,
            )
        )
    return attributions


def _describe(cause: TelemetryEvent) -> str:
    fields = cause.fields
    if cause.category == "gmp.violation":
        return (
            f"bandwidth violation on link {fields['link']} "
            f"(streak {fields['streak']})"
        )
    return (
        f"link {fields['link']} (dest {fields['dest']}) went "
        f"{fields['old']} -> {fields['new']} at t={cause.time:.1f}s"
    )


def explain_all(result: RunResult) -> list[RateExplanation]:
    """Explanations for every flow of the run, in flow-id order."""
    return [
        explain_flow(result, flow_id) for flow_id in sorted(result.flow_rates)
    ]
