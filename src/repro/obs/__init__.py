"""Live observability plane: streaming, in-run health, serving.

``repro.obs`` sits *above* the simulation stack (scenarios, fidelity)
and watches runs from the outside:

* :mod:`repro.obs.stream` — the :class:`StreamPublisher`, a kernel
  :class:`~repro.sim.kernel.RunMonitor` that writes a run's telemetry
  records to its ``--metrics-out`` JSONL file while the run is in
  flight: new series points and events once per simulated second,
  every snapshot on close, and partial state (plus the replay-journal
  tail) when a watchdog aborts the run — so a killed or wedged run
  still leaves analyzable telemetry behind;
* :mod:`repro.obs.health` — the in-run :class:`HealthMonitor`:
  an event-rate stall probe plus three detectors (starved flows,
  condition flapping, queue divergence) scanned up to the current
  time each simulated second, emitting deduplicated, cooldown-gated
  :class:`Alert` records through pluggable delivery hooks;
* :mod:`repro.obs.serve` / :mod:`repro.obs.httpapi` — service mode:
  a stdlib HTTP daemon around a live (optionally wall-clock-paced)
  run.  HTTP threads only *enqueue* commands; the
  :class:`ServeController` applies them on the simulation thread at
  monitor ticks and journals each one, so ``repro serve --replay``
  reproduces the exact run, digest and all.

Everything here is strictly passive: monitors are ticked by the kernel
*between* event dispatches, never via scheduled events, so enabling
the full observability plane leaves the dispatched event sequence —
and the replay digest — bit-identical.
"""

from __future__ import annotations

from repro.obs.health import (
    Alert,
    AlertLog,
    HealthMonitor,
    console_delivery,
    jsonl_delivery,
)
from repro.obs.httpapi import ServeApi, make_server
from repro.obs.serve import (
    ServeConfig,
    ServeController,
    load_journal,
    replay_session,
    serve_session,
)
from repro.obs.stream import StreamPublisher

__all__ = [
    "Alert",
    "AlertLog",
    "HealthMonitor",
    "ServeApi",
    "ServeConfig",
    "ServeController",
    "StreamPublisher",
    "console_delivery",
    "jsonl_delivery",
    "load_journal",
    "make_server",
    "replay_session",
    "serve_session",
]
