"""Run-health anomaly detectors over telemetry series.

Three detectors scan a :class:`~repro.scenarios.results.RunResult`
(its interval-rate series, and — when the run carried a
:class:`~repro.telemetry.Telemetry` — the GMP events and the buffer
occupancy trajectories) and return structured :class:`Finding`\\ s
with a time range and node/link/flow labels:

* **dead/starved flows** — a flow delivering (nearly) nothing for a
  sustained window while it demonstrably could deliver (it did
  earlier, or its maxmin reference is positive);
* **GMP condition flapping** — a virtual link toggling between
  saturation conditions with short dwells long after start-up
  transients should have settled;
* **queue-occupancy divergence** — a per-destination queue whose
  time-weighted occupancy jumps between adjacent windows after
  warmup (a crash, a routing change, or a control-plane wedge).

Thresholds are the module constants below; they stay silent on clean
converged GMP runs and flag fault-injected runs — both pinned by tests.

:class:`repro.obs.health.HealthMonitor` runs the detectors each tick
with ``until=now``; ``until=None`` scans the whole run.  The warm-up
cut-off and window grid stay anchored to ``result.duration`` (the
*planned* length, also mid-run); only the scan stops at ``until``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.scenarios.results import RunResult
from repro.telemetry import Telemetry

# Detector thresholds (all times in simulated seconds).

#: Fraction of the run treated as start-up and never scanned.
WARMUP_FRACTION = 0.25
#: Window width for windowed statistics.
WINDOW = 5.0
#: A flow below this rate (pkt/s) counts as dead.
STARVE_RATE = 1.0
#: Dead windows must cover at least this long to be a finding.
STARVE_WINDOW = 5.0
#: Condition transitions after warmup that count as flapping ...
FLAP_COUNT = 6
#: ... when the mean dwell between them is below this.
FLAP_DWELL = 3.0
#: Minimum between-window jump of a queue's time-weighted mean
#: occupancy (packets) ...
QUEUE_JUMP = 3.0
#: ... and minimum relative jump, both required for a finding.
QUEUE_JUMP_REL = 0.5


@dataclass(frozen=True)
class Finding:
    """One detected anomaly."""

    detector: str
    severity: str  # "warning" | "critical"
    start: float
    end: float
    labels: dict[str, str]
    message: str


# --- detectors -------------------------------------------------------------------


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
) -> list[Finding]:
    """Sustained zero-delivery stretches of flows that could deliver,
    scanned up to ``until`` (default: the end of the run).

    Dynamic workloads: each flow is scanned only inside its own
    lifetime window (``result.flow_lifetimes``).  A flow that
    legitimately departed mid-run delivers nothing afterwards — that is
    a departure, not starvation — and a flow arriving late gets its own
    settle grace instead of being measured against the run's warmup.
    """
    findings: list[Finding] = []
    if not result.interval_bounds:
        return findings
    until = result.duration if until is None else until
    warmup_end = result.duration * WARMUP_FRACTION
    reference = result.extras.get("maxmin_reference", {})
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
                findings.append(
                    Finding(
                        detector="starved_flow",
                        severity="critical",
                        start=run_start,
                        end=run_end,
                        labels={"flow": str(flow_id)},
                        message=(
                            f"flow {flow_id} delivered < "
                            f"{STARVE_RATE:g} pkt/s for "
                            f"{run_end - run_start:.1f}s"
                        ),
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
    return findings


def detect_condition_flapping(
    result: RunResult, until: float | None = None
) -> list[Finding]:
    """Virtual links whose saturation condition keeps toggling, scanned
    up to ``until`` (default: the end of the run)."""
    findings: list[Finding] = []
    telemetry = result.extras.get("telemetry")
    if not isinstance(telemetry, Telemetry) or not telemetry.enabled:
        return findings
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
            findings.append(
                Finding(
                    detector="condition_flapping",
                    severity="warning",
                    start=times[0],
                    end=times[-1],
                    labels={"link": link, "dest": dest},
                    message=(
                        f"virtual link {link} (dest {dest}) changed "
                        f"condition {len(times)} times after warmup "
                        f"(mean dwell {dwell:.1f}s)"
                    ),
                )
            )
    return findings


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
) -> list[Finding]:
    """Queues whose occupancy jumps between adjacent post-warmup
    windows, scanned up to ``until`` (default: the end of the run)."""
    findings: list[Finding] = []
    telemetry = result.extras.get("telemetry")
    if not isinstance(telemetry, Telemetry) or not telemetry.enabled:
        return findings
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
                findings.append(
                    Finding(
                        detector="queue_divergence",
                        severity="warning",
                        start=start_a,
                        end=end_b,
                        labels={"node": str(node), "dest": str(dest)},
                        message=(
                            f"queue at node {node} (dest {dest}) moved "
                            f"from mean {mean_a:.1f} to {mean_b:.1f} "
                            f"packets between adjacent {WINDOW:g}s "
                            f"windows"
                        ),
                    )
                )
                break  # one finding per queue is enough
    return findings
