"""Per-flow rate explainers: *why is flow f running at rate r?*

:func:`explain_flow` joins three views of one finished GMP run:

* the **centralized reference** — which contention clique froze the
  flow during water-filling (or that the flow reached its desirable
  rate), the clique's member links, and its consumed capacity;
* the **measured run** — the flow's delivered rate and its gap to the
  reference;
* the **protocol's own view** — which of the paper's local link
  conditions dominated the flow's path during the run (from the
  ``gmp.condition_seconds`` dwell counters) and the final rate limit
  with the reason of its last adjustment.

The result is a :class:`RateExplanation` whose :meth:`~RateExplanation.
narrative` reads as a paragraph; ``python -m repro explain <scenario>
--flow N`` prints it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import AnalysisError, ConfigError
from repro.scenarios.results import RunResult
from repro.scenarios.runner import run_scenario
from repro.scenarios.sweep import scenario_factory
from repro.telemetry import Telemetry

#: Condition states a virtual link can dwell in (lowercased
#: :class:`~repro.core.classification.LinkType` names, as recorded by
#: the ``gmp.condition_seconds`` counter).
CONDITION_STATES = ("bandwidth_saturated", "buffer_saturated", "unsaturated")


@dataclass
class RateExplanation:
    """Everything known about why one flow runs at its measured rate.

    Attributes:
        flow_id: the explained flow.
        measured_rate: delivered packets/second over the measurement
            window.
        reference_rate: the centralized weighted-maxmin rate.
        gap / gap_pct: ``measured - reference`` (absolute, percent of
            the reference).
        weight: the flow's maxmin weight.
        path: the flow's routed path as directed links.
        desire_limited: True when the reference froze the flow at its
            desirable rate rather than at a clique.
        bottleneck_clique: clique id that froze the flow in the
            reference computation (None when desire-limited).
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
        last_adjust: fields of the flow's last ``gmp.adjust`` event
            (kind, reason, origin, new_limit), if telemetry saw one.
    """

    flow_id: int
    measured_rate: float
    reference_rate: float
    gap: float
    gap_pct: float
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
    last_adjust: dict[str, Any] | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "flow_id": self.flow_id,
            "measured_rate": self.measured_rate,
            "reference_rate": self.reference_rate,
            "gap": self.gap,
            "gap_pct": self.gap_pct,
            "weight": self.weight,
            "path": [list(link) for link in self.path],
            "desire_limited": self.desire_limited,
            "bottleneck_clique": (
                list(self.bottleneck_clique)
                if self.bottleneck_clique is not None
                else None
            ),
            "bottleneck_links": [list(link) for link in self.bottleneck_links],
            "bottleneck_usage": self.bottleneck_usage,
            "bottleneck_capacity": self.bottleneck_capacity,
            "active_condition": self.active_condition,
            "condition_dwell": {
                link: dict(states)
                for link, states in self.condition_dwell.items()
            },
            "rate_limit": self.rate_limit,
            "last_adjust": (
                dict(self.last_adjust) if self.last_adjust is not None else None
            ),
        }

    def narrative(self) -> str:
        """The explanation as readable prose."""
        hops = " -> ".join(
            [str(self.path[0][0])] + [str(b) for _, b in self.path]
        ) if self.path else "?"
        lines = [
            f"flow {self.flow_id} (weight {self.weight:g}, path {hops}) "
            f"measured {self.measured_rate:.1f} pkt/s vs centralized "
            f"maxmin {self.reference_rate:.1f} pkt/s "
            f"({self.gap_pct:+.1f}%)."
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
        if self.last_adjust is not None:
            lines.append(
                f"Last adjustment: {self.last_adjust.get('kind')} "
                f"({self.last_adjust.get('reason')}, origin "
                f"{self.last_adjust.get('origin')})."
            )
        return " ".join(lines)


def _require(result: RunResult, key: str) -> Any:
    if key not in result.extras:
        raise AnalysisError(
            f"cannot explain flows: run is missing extras[{key!r}] — "
            "re-run with protocol='gmp' and telemetry enabled"
        )
    return result.extras[key]


def explain_flow(result: RunResult, flow_id: int) -> RateExplanation:
    """Explain one flow of a finished GMP run.

    Raises:
        AnalysisError: when ``flow_id`` is unknown or the run lacks the
            reference solution (non-GMP protocol, telemetry disabled).
    """
    if flow_id not in result.flow_rates:
        raise AnalysisError(
            f"unknown flow {flow_id}; run has flows "
            f"{sorted(result.flow_rates)}"
        )
    solution = _require(result, "maxmin_solution")
    paths = _require(result, "flow_paths")
    weights = result.extras.get("flow_weights", {})
    capacity = result.extras.get("capacity_pps")

    measured = result.flow_rates[flow_id]
    reference = solution.rates.get(flow_id, 0.0)
    clique_id = solution.bottlenecks.get(flow_id)
    desire_limited = clique_id is None

    bottleneck_links: list[tuple[int, int]] = []
    usage: float | None = None
    if clique_id is not None:
        for clique in result.extras.get("cliques", []):
            if clique.clique_id == clique_id:
                bottleneck_links = clique.sorted_links()
                break
        usage = solution.clique_usage.get(clique_id)

    path = [tuple(link) for link in paths.get(flow_id, [])]
    dwell, active = _condition_dwell(result, path)
    if active == "unsaturated" and desire_limited:
        # Paper condition 1: the flow sits at its source's desirable
        # rate; nothing on the path ever saturated for it.
        active = "source"

    limits = result.extras.get("rate_limits", {})
    rate_limit = limits.get(flow_id)

    last_adjust: dict[str, Any] | None = None
    telemetry = result.extras.get("telemetry")
    if isinstance(telemetry, Telemetry) and telemetry.enabled:
        for event in telemetry.events_in("gmp.adjust"):
            if event.fields.get("flow") == flow_id:
                last_adjust = dict(event.fields)

    return RateExplanation(
        flow_id=flow_id,
        measured_rate=measured,
        reference_rate=reference,
        gap=measured - reference,
        gap_pct=(
            100.0 * (measured - reference) / reference if reference else 0.0
        ),
        weight=weights.get(flow_id, 1.0),
        path=path,
        desire_limited=desire_limited,
        bottleneck_clique=clique_id,
        bottleneck_links=bottleneck_links,
        bottleneck_usage=usage,
        bottleneck_capacity=capacity,
        active_condition=active,
        condition_dwell=dwell,
        rate_limit=rate_limit,
        last_adjust=last_adjust,
    )


def _condition_dwell(
    result: RunResult, path: list[tuple[int, int]]
) -> tuple[dict[str, dict[str, float]], str]:
    """Per-path-link condition dwell seconds toward the flow's
    destination, and the dominant *saturated* state over the whole
    path ("unsaturated" when nothing ever saturated)."""
    dwell: dict[str, dict[str, float]] = {}
    telemetry = result.extras.get("telemetry")
    if (
        not isinstance(telemetry, Telemetry)
        or not telemetry.enabled
        or not path
    ):
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


def explain_all(result: RunResult) -> list[RateExplanation]:
    """Explanations for every flow of the run, in flow-id order."""
    return [
        explain_flow(result, flow_id) for flow_id in sorted(result.flow_rates)
    ]


def run_and_explain(
    scenario_name: str,
    flow_id: int | None = None,
    *,
    substrate: str = "fluid",
    duration: float = 60.0,
    seed: int = 1,
) -> list[RateExplanation]:
    """Run a named scenario under GMP with telemetry and explain flows.

    Convenience wrapper for the CLI: explains ``flow_id`` only, or
    every flow when it is None.

    Raises:
        ConfigError: on an unknown scenario name.
        AnalysisError: on an unknown flow id.
    """
    telemetry = Telemetry(enabled=True)
    result = run_scenario(
        scenario_factory(scenario_name)(),
        protocol="gmp",
        substrate=substrate,
        duration=duration,
        seed=seed,
        telemetry=telemetry,
    )
    if flow_id is None:
        return explain_all(result)
    return [explain_flow(result, flow_id)]


# --- command line ---------------------------------------------------------------


def explain_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro explain``."""
    parser = argparse.ArgumentParser(
        prog="repro explain",
        description="Run a scenario under GMP and explain why each "
        "flow sits at its measured rate: bottleneck clique, active "
        "local condition, and gap to the centralized maxmin reference.",
    )
    parser.add_argument(
        "scenario", help="scenario name (e.g. figure3; see repro sweep)"
    )
    parser.add_argument(
        "--flow", type=int, default=None,
        help="explain only this flow id (default: every flow)",
    )
    parser.add_argument("--substrate", default="fluid")
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="also write the structured explanations as JSON to PATH",
    )
    args = parser.parse_args(argv)

    try:
        explanations = run_and_explain(
            args.scenario,
            args.flow,
            substrate=args.substrate,
            duration=args.duration,
            seed=args.seed,
        )
    except (ConfigError, AnalysisError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    for explanation in explanations:
        print(explanation.narrative())
        print()
    if args.json_out:
        payload = json.dumps(
            [explanation.to_json() for explanation in explanations],
            indent=2,
            sort_keys=True,
        )
        Path(args.json_out).write_text(payload + "\n", encoding="utf-8")
        print(f"explanations -> {args.json_out}", file=sys.stderr)
    return 0
