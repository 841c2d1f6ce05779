"""In-run health monitoring with deduplicated, cooldown-gated alerts.

The :class:`HealthMonitor` is a kernel
:class:`~repro.sim.kernel.RunMonitor`: the simulator ticks it between
event dispatches on a simulated-clock cadence, and on each tick it
runs two kinds of check:

* one **liveness probe**, ``event_rate_stall``, over the kernel's own
  event counter: the run went quiet relative to its own history;
* three **detectors** scanned up to ``now`` over a *partial*
  :class:`~repro.scenarios.results.RunResult` snapshot supplied by the
  scenario runner (its interval-rate series, and, when the run carried
  a :class:`~repro.telemetry.Telemetry`, the GMP events and the buffer
  occupancy trajectories):

  - ``starved_flow``: a flow delivering (nearly) nothing for a
    sustained window inside its own lifetime while it demonstrably
    could deliver (it did earlier, or its maxmin reference is
    positive);
  - ``condition_flapping``: a virtual link toggling between saturation
    conditions with short dwells long after start-up transients should
    have settled;
  - ``queue_divergence``: a per-destination queue whose time-weighted
    occupancy jumps between adjacent windows after warmup (a crash, a
    routing change, or a control-plane wedge).

A detector returns :class:`Alert` records whose ``first_seen`` and
``last_seen`` span the window it saw; ``until=None`` scans the whole
run.  The warm-up cut-off and window grid stay anchored to
``result.duration`` (the *planned* length, also mid-run); only the scan
stops at ``until``.  The thresholds are the constants below; they stay
silent on clean converged GMP runs and flag fault-injected runs, both
pinned by tests.

The monitor records each observation in an :class:`AlertLog`, which
deduplicates by (probe, labels), tracks first/last-seen times and a
repeat count, and re-delivers a persisting alert only after a cooldown.
Delivery is pluggable: :func:`console_delivery` and
:func:`jsonl_delivery` ship with the module; anything callable with
one :class:`Alert` works.

Everything here observes only — no events are scheduled, no randomness
drawn — so a monitored run dispatches the identical event sequence and
replay digest as an unmonitored one.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable

from repro.scenarios.results import RunResult
from repro.telemetry import Telemetry

# Detector thresholds (all times in simulated seconds).

#: Fraction of the run treated as start-up and never scanned.
WARMUP_FRACTION = 0.25
#: Window width for windowed statistics.
WINDOW = 5.0
#: A flow below this rate (pkt/s) counts as dead.
STARVE_RATE = 1.0
#: Dead windows must cover at least this long to be an alert.
STARVE_WINDOW = 5.0
#: Condition transitions after warmup that count as flapping ...
FLAP_COUNT = 6
#: ... when the mean dwell between them is below this.
FLAP_DWELL = 3.0
#: Minimum between-window jump of a queue's time-weighted mean
#: occupancy (packets) ...
QUEUE_JUMP = 3.0
#: ... and minimum relative jump, both required for an alert.
QUEUE_JUMP_REL = 0.5

# Monitor constants (simulated seconds).

#: Between two evaluations.
HEALTH_INTERVAL = 1.0
#: No checks before this time: start-up is legitimately weird.
GRACE = 10.0
#: Minimum gap before a persisting alert is re-delivered.
COOLDOWN = 10.0
#: A window event rate below this fraction of the pre-window mean rate
#: counts as a stall (over one ``WINDOW``).
STALL_FRACTION = 0.25


@dataclass
class Alert:
    """One health condition: a detector's observation over
    ``first_seen``–``last_seen``, or an :class:`AlertLog` entry
    deduplicated over every tick that saw it."""

    probe: str
    severity: str  # "warning" | "critical"
    labels: dict[str, str]
    message: str
    first_seen: float
    last_seen: float
    count: int = 1
    deliveries: int = 0

    def to_json(self) -> dict[str, Any]:
        return {
            "probe": self.probe,
            "severity": self.severity,
            "labels": dict(self.labels),
            "message": self.message,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "count": self.count,
        }

    def render(self) -> str:
        tags = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        seen = (
            f"t={self.first_seen:.1f}s"
            if self.count == 1
            else f"t={self.first_seen:.1f}–{self.last_seen:.1f}s x{self.count}"
        )
        return f"[{self.severity}] {self.probe} {seen} {{{tags}}}: {self.message}"


AlertKey = tuple[str, tuple[tuple[str, str], ...]]
Delivery = Callable[[Alert], None]


class AlertLog:
    """Deduplicating, cooldown-gated alert store.

    The first occurrence of a (probe, labels) condition is delivered
    immediately; while it persists, the stored alert's ``last_seen``
    and ``count`` advance but delivery repeats only every ``COOLDOWN``
    simulated seconds — a flapping probe cannot flood the hooks.
    """

    def __init__(
        self, *, deliveries: tuple[Delivery, ...] | list[Delivery] = ()
    ) -> None:
        self.deliveries = list(deliveries)
        self._alerts: dict[AlertKey, Alert] = {}
        self._last_delivered: dict[AlertKey, float] = {}

    def raise_alert(
        self,
        now: float,
        probe: str,
        severity: str,
        labels: dict[str, str],
        message: str,
    ) -> Alert:
        """Record one observation of a condition; deliver if due."""
        key: AlertKey = (probe, tuple(sorted(labels.items())))
        alert = self._alerts.get(key)
        if alert is None:
            alert = Alert(
                probe=probe,
                severity=severity,
                labels=dict(labels),
                message=message,
                first_seen=now,
                last_seen=now,
            )
            self._alerts[key] = alert
            self._deliver(key, alert, now)
            return alert
        alert.last_seen = now
        alert.count += 1
        alert.message = message
        if severity == "critical":
            alert.severity = "critical"
        if now - self._last_delivered.get(key, float("-inf")) >= COOLDOWN:
            self._deliver(key, alert, now)
        return alert

    def _deliver(self, key: AlertKey, alert: Alert, now: float) -> None:
        self._last_delivered[key] = now
        alert.deliveries += 1
        for hook in self.deliveries:
            hook(alert)

    def alerts(self) -> list[Alert]:
        """Every deduplicated alert, ordered by first occurrence."""
        return sorted(
            self._alerts.values(), key=lambda a: (a.first_seen, a.probe)
        )

    def render(self) -> str:
        alerts = self.alerts()
        if not alerts:
            return "health: clean (no alerts)"
        lines = [f"health: {len(alerts)} alert(s)"]
        lines.extend(f"  {alert.render()}" for alert in alerts)
        return "\n".join(lines)


# --- delivery hooks --------------------------------------------------------------


def console_delivery(write: Callable[[str], None] = print) -> Delivery:
    """Deliver alerts as rendered lines (default: ``print``)."""

    def deliver(alert: Alert) -> None:
        write(f"health alert {alert.render()}")

    return deliver


def jsonl_delivery(path: str) -> Delivery:
    """Append one JSON line per delivery to ``path``.

    Opens per delivery (alerts are rare by design), so every delivered
    alert is durable immediately — even if the run is later killed.
    """

    def deliver(alert: Alert) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(alert.to_json()) + "\n")

    return deliver


# --- detectors -----------------------------------------------------------------


def _interval_edges(result: RunResult) -> list[tuple[float, float]]:
    """(start, end) of every interval-rate window."""
    edges: list[tuple[float, float]] = []
    previous = 0.0
    for bound in result.interval_bounds:
        edges.append((previous, bound))
        previous = bound
    return edges


def detect_starved_flows(
    result: RunResult,
    until: float | None = None,
    *,
    starve_window: float = STARVE_WINDOW,
) -> list[Alert]:
    """Sustained zero-delivery stretches of flows that could deliver,
    scanned up to ``until`` (default: the end of the run).

    Dynamic workloads: each flow is scanned only inside its own
    lifetime window (``result.flow_lifetimes``).  A flow that
    legitimately departed mid-run delivers nothing afterwards — that is
    a departure, not starvation — and a flow arriving late gets its own
    settle grace instead of being measured against the run's warmup.
    """
    alerts: list[Alert] = []
    if not result.interval_bounds:
        return alerts
    until = result.duration if until is None else until
    warmup_end = result.duration * WARMUP_FRACTION
    reference = result.extras.get("maxmin_reference")
    if reference is None:
        # A GMP run without telemetry carries the reference unsolved.
        solve = result.extras.get("solve_reference")
        reference = solve() if solve is not None else {}
    edges = _interval_edges(result)
    for flow_id, rates in sorted(result.interval_rates.items()):
        arrival, departure = result.lifetime(flow_id)
        flow_warmup_end = warmup_end
        if arrival > 0.0:
            flow_warmup_end = max(warmup_end, arrival + WINDOW)
        could_deliver = reference.get(flow_id, 0.0) > STARVE_RATE
        run_start: float | None = None
        run_end = 0.0

        def flush() -> None:
            nonlocal run_start
            if run_start is None:
                return
            if run_end - run_start >= starve_window and could_deliver:
                alerts.append(
                    Alert(
                        probe="starved_flow",
                        severity="critical",
                        labels={"flow": str(flow_id)},
                        message=(
                            f"flow {flow_id} delivered < "
                            f"{STARVE_RATE:g} pkt/s for "
                            f"{run_end - run_start:.1f}s"
                        ),
                        first_seen=run_start,
                        last_seen=run_end,
                    )
                )
            run_start = None

        for (start, end), rate in zip(edges, rates):
            if end > until + 1e-9:
                break
            if start < arrival - 1e-9 or end > departure + 1e-9:
                # Window not fully inside the flow's lifetime: silence
                # there is absence, not starvation.
                continue
            if end <= flow_warmup_end:
                # Start-up: remember only whether the flow ever moved.
                if rate > STARVE_RATE:
                    could_deliver = True
                continue
            if rate < STARVE_RATE:
                if run_start is None:
                    run_start = start
                run_end = end
            else:
                could_deliver = True
                flush()
        flush()
    return alerts


def detect_condition_flapping(
    result: RunResult, until: float | None = None
) -> list[Alert]:
    """Virtual links whose saturation condition keeps toggling, scanned
    up to ``until`` (default: the end of the run)."""
    alerts: list[Alert] = []
    telemetry = result.extras.get("telemetry")
    if not isinstance(telemetry, Telemetry) or not telemetry.enabled:
        return alerts
    until = result.duration if until is None else until
    warmup_end = result.duration * WARMUP_FRACTION
    changes: dict[tuple[str, str], list[float]] = {}
    for event in telemetry.events_in("gmp.condition_change"):
        if not warmup_end <= event.time <= until:
            continue
        key = (str(event.fields.get("link")), str(event.fields.get("dest")))
        changes.setdefault(key, []).append(event.time)
    for (link, dest), times in sorted(changes.items()):
        if len(times) < FLAP_COUNT:
            continue
        dwell = (times[-1] - times[0]) / (len(times) - 1)
        if dwell < FLAP_DWELL:
            alerts.append(
                Alert(
                    probe="condition_flapping",
                    severity="warning",
                    labels={"link": link, "dest": dest},
                    message=(
                        f"virtual link {link} (dest {dest}) changed "
                        f"condition {len(times)} times after warmup "
                        f"(mean dwell {dwell:.1f}s)"
                    ),
                    first_seen=times[0],
                    last_seen=times[-1],
                )
            )
    return alerts


def _window_means(
    times: list[float],
    values: list[float],
    start: float,
    end: float,
    width: float,
) -> list[tuple[float, float, float]]:
    """Time-weighted means of a piecewise-constant signal, per window.

    Returns ``(window_start, window_end, mean)`` triples; the signal
    holds each sampled value until the next sample.  ``times`` is
    ascending, so each window bisects to its first sample and reads
    only the samples inside it.
    """
    if not times or end - start < width:
        return []
    means: list[tuple[float, float, float]] = []
    window_start = start
    index = 0
    while window_start + width <= end + 1e-9:
        window_end = window_start + width
        index = bisect_right(times, window_start, index)
        integral = 0.0
        previous_time = window_start
        current = values[index - 1] if index else None
        while index < len(times) and times[index] < window_end:
            if current is not None:
                integral += current * (times[index] - previous_time)
            previous_time = times[index]
            current = values[index]
            index += 1
        if current is not None:
            integral += current * (window_end - previous_time)
            means.append((window_start, window_end, integral / width))
        window_start = window_end
    return means


def detect_queue_divergence(
    result: RunResult, until: float | None = None
) -> list[Alert]:
    """Queues whose occupancy jumps between adjacent post-warmup
    windows, scanned up to ``until`` (default: the end of the run)."""
    alerts: list[Alert] = []
    telemetry = result.extras.get("telemetry")
    if not isinstance(telemetry, Telemetry) or not telemetry.enabled:
        return alerts
    until = result.duration if until is None else until
    warmup_end = result.duration * WARMUP_FRACTION
    for instrument in telemetry.registry.instruments("buffer.queue_len"):
        times = getattr(instrument, "times", [])
        if not times:
            continue
        values = getattr(instrument, "values", [])
        means = _window_means(times, values, warmup_end, until, WINDOW)
        for (start_a, _, mean_a), (start_b, end_b, mean_b) in zip(
            means, means[1:]
        ):
            jump = abs(mean_b - mean_a)
            scale = max(mean_a, mean_b)
            if jump >= QUEUE_JUMP and scale > 0 and (
                jump / scale >= QUEUE_JUMP_REL
            ):
                node = instrument.labels.get("node")
                dest = instrument.labels.get("dest")
                alerts.append(
                    Alert(
                        probe="queue_divergence",
                        severity="warning",
                        labels={"node": str(node), "dest": str(dest)},
                        message=(
                            f"queue at node {node} (dest {dest}) moved "
                            f"from mean {mean_a:.1f} to {mean_b:.1f} "
                            f"packets between adjacent {WINDOW:g}s "
                            f"windows"
                        ),
                        first_seen=start_a,
                        last_seen=end_b,
                    )
                )
                break  # one alert per queue is enough
    return alerts


# --- the monitor -----------------------------------------------------------------


#: The detectors scanned each tick.
LIVE_DETECTORS = (
    detect_starved_flows,
    detect_condition_flapping,
    detect_queue_divergence,
)


class HealthMonitor:
    """Periodic in-run health evaluator (a kernel run monitor), ticked
    every :data:`HEALTH_INTERVAL` simulated seconds.

    Args:
        deliveries: alert delivery hooks.
    """

    interval = HEALTH_INTERVAL

    def __init__(
        self, *, deliveries: tuple[Delivery, ...] | list[Delivery] = ()
    ) -> None:
        self.log = AlertLog(deliveries=deliveries)
        self._sim: Any = None
        self._snapshot: Callable[[], RunResult] | None = None
        # (sim time, kernel events processed) history for the stall probe.
        self._event_history: list[tuple[float, int]] = []
        self.ticks = 0

    def bind(self, sim: Any, snapshot: Callable[[], RunResult]) -> None:
        """Attach to a simulator; ``snapshot`` builds the partial
        :class:`RunResult` the detectors scan mid-flight."""
        self._sim = sim
        self._snapshot = snapshot
        sim.attach_monitor(self)

    def alerts(self) -> list[Alert]:
        return self.log.alerts()

    # --- RunMonitor hooks --------------------------------------------------

    def on_tick(self, now: float) -> None:
        self.ticks += 1
        if self._sim is not None:
            self._event_history.append((now, self._sim.events_processed))
        if now < GRACE:
            return
        self._probe_event_rate(now)
        self._run_detectors(now)

    def on_abort(self, now: float, error: BaseException) -> None:
        """A kernel watchdog tripped: record it as a critical alert so
        every delivery hook sees the death certificate."""
        self.log.raise_alert(
            now, "watchdog_abort", "critical", {}, f"run aborted: {error}"
        )

    def finalize(self, now: float) -> AlertLog:
        """One last evaluation at the end of the run; returns the log."""
        self.on_tick(now)
        return self.log

    # --- checks ------------------------------------------------------------

    def _probe_event_rate(self, now: float) -> None:
        """The run went quiet: window event rate far below the mean
        rate of everything before the window."""
        history = self._event_history
        if not history or now - history[0][0] < WINDOW:
            return
        anchor = history[0]
        for sample in history:
            if sample[0] <= now - WINDOW:
                anchor = sample
            else:
                break
        anchor_time, anchor_events = anchor
        if anchor_time <= 0:
            return
        baseline = anchor_events / anchor_time
        if baseline <= 0:
            return
        current = self._sim.events_processed if self._sim is not None else 0
        span = now - anchor_time
        if span <= 0:
            return
        window_rate = (current - anchor_events) / span
        if window_rate < STALL_FRACTION * baseline:
            self.log.raise_alert(
                now,
                "event_rate_stall",
                "critical",
                {},
                (
                    f"event rate fell to {window_rate:.0f}/s over the last "
                    f"{span:.1f}s (baseline {baseline:.0f}/s)"
                ),
            )

    def _run_detectors(self, now: float) -> None:
        """Scan the run so far.  The detectors anchor their warm-up
        cut-off and window grid to the planned duration, so each scan
        sees the windows the end-of-run scan will, cut at ``now``; none
        runs before one full window past warm-up has elapsed."""
        if self._snapshot is None:
            return
        result = self._snapshot()
        if now <= result.duration * WARMUP_FRACTION + WINDOW:
            return
        for detector in LIVE_DETECTORS:
            for alert in detector(result, now):
                self.log.raise_alert(
                    now, alert.probe, alert.severity, alert.labels, alert.message
                )
