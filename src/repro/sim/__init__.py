"""Discrete-event simulation kernel.

A minimal but complete event-driven kernel: a binary-heap event queue
(:mod:`repro.sim.event`), a :class:`~repro.sim.kernel.Simulator` facade
with timers and stop conditions, deterministic named random streams
(:mod:`repro.sim.rng`), and the replay sanitizer
(:mod:`repro.sim.replay`) that proves two runs dispatched identical
event sequences.  Structured happenings, DCF frames included, go to the
run's telemetry event log (:mod:`repro.telemetry`), not to the kernel.
"""

from repro.sim.event import Event, EventQueue
from repro.sim.kernel import Simulator, Timer
from repro.sim.replay import ReplayReport, ReplaySanitizer, diff_sanitizers
from repro.sim.rng import RngRegistry

__all__ = [
    "Event",
    "EventQueue",
    "ReplayReport",
    "ReplaySanitizer",
    "RngRegistry",
    "Simulator",
    "Timer",
    "diff_sanitizers",
]
