"""Run results.

A :class:`RunResult` carries everything the paper's tables report —
per-flow end-to-end rates, the effective network throughput ``U``, and
the two fairness indices — plus diagnostics (drops, protocol request
counts, rate-limit trajectories).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.fairness import (
    equality_fairness_index,
    maxmin_fairness_index,
)
from repro.analysis.report import format_table
from repro.flows.flow import FlowSet


@dataclass
class RunResult:
    """Outcome of one simulated session.

    Attributes:
        scenario: scenario name.
        protocol: "gmp", "802.11", "2pp", or a queueing-only mode.
        substrate: "dcf" or "fluid".
        duration: simulated seconds.
        warmup: seconds excluded from rate measurement.
        seed: RNG seed.
        flow_rates: delivered packets/second per flow over
            ``[warmup, duration]``.
        hop_counts: routing-path hop count per flow.
        effective_throughput: ``U = sum r(f) * l_f``.
        buffer_drops: packets lost to queue admission network-wide.
        mac_drops: packets discarded by MAC retry exhaustion.
        rate_interval: width in seconds of the per-interval rate
            samples, or None when no time series was recorded.
        interval_rates: per flow, delivered packets/second in each
            consecutive ``rate_interval`` window from t=0; used by
            the resilience metrics to time fault transients.  The last
            window may be *partial* (the run ended mid-window); its
            rate divides by the actual window width, and the true edges
            are in ``interval_bounds``.
        interval_bounds: end time of each interval-rate window (sample
            ``j`` covers ``(interval_bounds[j-1], interval_bounds[j]]``
            with an implicit leading 0.0); empty when no time series
            was recorded.
        flow_lifetimes: flow id → (arrival, departure) simulated times
            for flows that did not span the whole run (dynamic
            workloads).  A flow absent from this map lived from 0 to
            ``duration``; its rate excludes warmup as usual, while a
            churned flow's rate is measured over its lifetime window.
        extras: protocol-specific diagnostics (e.g. GMP rate-limit
            history, 2PP allocation, fault log, invariant report, the
            telemetry handle, the maxmin reference rates — or, on a
            GMP run, ``solve_reference``, which solves them when
            called — the churn report and per-arrival convergence
            times).
    """

    scenario: str
    protocol: str
    substrate: str
    duration: float
    warmup: float
    seed: int
    flow_rates: dict[int, float]
    hop_counts: dict[int, int]
    effective_throughput: float
    buffer_drops: int = 0
    mac_drops: int = 0
    rate_interval: float | None = None
    interval_rates: dict[int, list[float]] = field(default_factory=dict)
    interval_bounds: list[float] = field(default_factory=list)
    flow_lifetimes: dict[int, tuple[float, float]] = field(default_factory=dict)
    extras: dict[str, Any] = field(default_factory=dict)

    def lifetime(self, flow_id: int) -> tuple[float, float]:
        """The window a flow was alive: its churn lifetime if it had
        one, else the whole run."""
        return self.flow_lifetimes.get(flow_id, (0.0, self.duration))

    @property
    def i_mm(self) -> float:
        """Maxmin fairness index over raw flow rates."""
        return maxmin_fairness_index(self.flow_rates.values())

    @property
    def i_eq(self) -> float:
        """Chiu–Jain equality index over raw flow rates."""
        return equality_fairness_index(self.flow_rates.values())

    def normalized_rates(self, flows: FlowSet) -> dict[int, float]:
        """Per-flow normalized rates ``r(f)/w(f)``."""
        return {
            flow_id: flows.get(flow_id).normalized(rate)
            for flow_id, rate in self.flow_rates.items()
        }

    def point_summary(self) -> dict[str, Any]:
        """JSON-plain summary of this run — the sweep-cache record,
        stored beside the run's spec.

        Carries everything the fidelity harness and CI consume without
        re-running the scenario: per-flow raw and normalized rates,
        hop counts, weights, the three paper metrics (``U``, ``I_mm``,
        ``I_eq``) and, on a GMP run, each flow's maxmin reference rate.
        Flow ids become string keys so a freshly computed summary is
        byte-identical to one recalled from a JSON cache.
        """
        weights = self.extras.get("flow_weights", {})
        summary = {
            "warmup": self.warmup,
            "flow_rates": {
                str(flow_id): rate
                for flow_id, rate in sorted(self.flow_rates.items())
            },
            "normalized_rates": {
                str(flow_id): rate / weights.get(flow_id, 1.0)
                for flow_id, rate in sorted(self.flow_rates.items())
            },
            "flow_weights": {
                str(flow_id): weights.get(flow_id, 1.0)
                for flow_id in sorted(self.flow_rates)
            },
            "hop_counts": {
                str(flow_id): hops
                for flow_id, hops in sorted(self.hop_counts.items())
            },
            "effective_throughput": self.effective_throughput,
            "i_mm": self.i_mm,
            "i_eq": self.i_eq,
            "buffer_drops": self.buffer_drops,
            "mac_drops": self.mac_drops,
        }
        solve = self.extras.get("solve_reference")
        if solve is not None:
            summary["maxmin_reference"] = {
                str(flow_id): rate for flow_id, rate in sorted(solve().items())
            }
        return summary

    def summary_table(self) -> str:
        """Paper-style text table of this run."""
        rows: list[list[object]] = [
            [f"f{flow_id}", float(rate)]
            for flow_id, rate in sorted(self.flow_rates.items())
        ]
        rows.append(["U", float(self.effective_throughput)])
        rows.append(["I_mm", float(self.i_mm)])
        rows.append(["I_eq", float(self.i_eq)])
        return format_table(
            ["metric", self.protocol],
            rows,
            title=f"{self.scenario} ({self.substrate}, {self.duration:g}s)",
            float_format="{:.3f}",
        )
