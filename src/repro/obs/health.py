"""In-run health monitoring with deduplicated, cooldown-gated alerts.

The :class:`HealthMonitor` is a kernel
:class:`~repro.sim.kernel.RunMonitor`: the simulator ticks it between
event dispatches on a simulated-clock cadence, and on each tick it
runs two kinds of check:

* one **liveness probe**, ``event_rate_stall``, over the kernel's own
  event counter: the run went quiet relative to its own history;
* the :mod:`repro.fidelity.anomaly` detectors (starved flows,
  condition flapping, queue divergence) scanned up to ``now`` over a
  *partial* :class:`~repro.scenarios.results.RunResult` snapshot
  supplied by the scenario runner — the live schedule of the same
  detectors :func:`~repro.fidelity.anomaly.detect_anomalies` runs at
  the end.

Findings become :class:`Alert` records in an :class:`AlertLog`, which
deduplicates by (probe, labels), tracks first/last-seen times and a
repeat count, and re-delivers a persisting alert only after a cooldown.
Delivery is pluggable: :func:`console_delivery`,
:func:`jsonl_delivery`, and :func:`webhook_delivery` (HTTP POST with
bounded retry and a dead-letter file) ship with the module; anything
callable with one :class:`Alert` works.

Everything here observes only — no events are scheduled, no randomness
drawn — so a monitored run dispatches the identical event sequence and
replay digest as an unmonitored one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigError
from repro.fidelity.anomaly import (
    WARMUP_FRACTION,
    WINDOW,
    detect_condition_flapping,
    detect_queue_divergence,
    detect_starved_flows,
)
from repro.scenarios.results import RunResult

# Monitor constants (simulated seconds).

#: No checks before this time: start-up is legitimately weird.
GRACE = 10.0
#: Minimum gap before a persisting alert is re-delivered.
COOLDOWN = 10.0
#: A window event rate below this fraction of the pre-window mean rate
#: counts as a stall (the window is the detectors' ``WINDOW``).
STALL_FRACTION = 0.25

#: The detectors scanned each tick.  ``rate_oscillation`` runs at the
#: end of the run only: scanned mid-run it sees convergence transients
#: (and churn-induced reallocations) that the end-of-run scan
#: legitimately excludes.
LIVE_DETECTORS = (
    detect_starved_flows,
    detect_condition_flapping,
    detect_queue_divergence,
)


@dataclass
class Alert:
    """One deduplicated health condition."""

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

    def __len__(self) -> int:
        return len(self._alerts)

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

    def to_json(self) -> dict[str, Any]:
        return {"alerts": [alert.to_json() for alert in self.alerts()]}

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


class webhook_delivery:
    """HTTP POST delivery with bounded retry and a dead-letter file.

    Each alert is serialized to JSON and POSTed to ``url``.  A failed
    attempt (non-2xx status, timeout, connection error) is retried up
    to ``retries`` times with exponential backoff (``backoff``,
    ``2*backoff``, ...); an alert that exhausts its attempts is
    appended to the ``dead_letter`` JSONL file (when configured) and
    counted in :attr:`failed` — delivery failures never propagate into
    the run.

    Every attempted payload is recorded in :attr:`sent` regardless of
    outcome, and tests (or callers that want a custom transport) can
    pass ``post(url, payload)`` to replace the HTTP layer entirely —
    with ``post`` given, no network I/O happens and retry/dead-letter
    handling wraps the callable instead.

    The wall-clock sleeps between retries happen on whatever thread
    delivers the alert; keep ``backoff`` small (or ``retries=0``) when
    delivering from the simulation thread of a paced run.
    """

    def __init__(
        self,
        url: str,
        post: Callable[[str, dict[str, Any]], None] | None = None,
        *,
        timeout: float = 2.0,
        retries: int = 2,
        backoff: float = 0.25,
        dead_letter: str | None = None,
    ) -> None:
        if timeout <= 0:
            raise ConfigError(f"webhook timeout must be positive: {timeout}")
        if retries < 0:
            raise ConfigError(f"webhook retries must be >= 0: {retries}")
        if backoff < 0:
            raise ConfigError(f"webhook backoff must be >= 0: {backoff}")
        self.url = url
        self.post = post
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.dead_letter = dead_letter
        self.sent: list[tuple[str, dict[str, Any]]] = []
        self.delivered = 0
        self.failed = 0
        self.attempts = 0

    def _post_http(self, url: str, payload: dict[str, Any]) -> None:
        import urllib.request

        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            status = getattr(response, "status", 200)
            if not 200 <= status < 300:
                raise OSError(f"webhook returned HTTP {status}")

    def _dead_letter_write(self, payload: dict[str, Any], error: str) -> None:
        if self.dead_letter is None:
            return
        record = {"url": self.url, "error": error, "alert": payload}
        try:
            with open(self.dead_letter, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            pass  # a failing dead-letter file must not take down the run

    def __call__(self, alert: Alert) -> None:
        payload = alert.to_json()
        self.sent.append((self.url, payload))
        post = self.post if self.post is not None else self._post_http
        last_error = "unknown error"
        for attempt in range(self.retries + 1):
            if attempt and self.backoff > 0:
                import time

                time.sleep(self.backoff * (2 ** (attempt - 1)))
            self.attempts += 1
            try:
                post(self.url, payload)
            except Exception as error:  # noqa: BLE001 - any transport
                last_error = f"{type(error).__name__}: {error}"
                continue  # failure is retryable
            self.delivered += 1
            return
        self.failed += 1
        self._dead_letter_write(payload, last_error)


# --- the monitor -----------------------------------------------------------------


class HealthMonitor:
    """Periodic in-run health evaluator (a kernel run monitor).

    Args:
        interval: simulated seconds between evaluations.
        deliveries: alert delivery hooks.
        log: an existing :class:`AlertLog` to share (default: fresh).
    """

    def __init__(
        self,
        interval: float = 1.0,
        *,
        deliveries: tuple[Delivery, ...] | list[Delivery] = (),
        log: AlertLog | None = None,
    ) -> None:
        if interval <= 0:
            raise ConfigError(f"health interval must be positive: {interval}")
        self.interval = interval
        self.log = log or AlertLog(deliveries=deliveries)
        self._sim: Any = None
        self._snapshot: Callable[[], RunResult] | None = None
        # (sim time, kernel events processed) history for the stall probe.
        self._event_history: list[tuple[float, int]] = []
        self.ticks = 0

    def bind(self, sim: Any, snapshot: Callable[[], RunResult]) -> None:
        """Attach to a simulator; ``snapshot`` builds the partial
        :class:`RunResult` the anomaly detectors scan mid-flight."""
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
            for finding in detector(result, now):
                self.log.raise_alert(
                    now,
                    finding.detector,
                    finding.severity,
                    finding.labels,
                    finding.message,
                )
