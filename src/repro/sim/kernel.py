"""The simulation kernel: clock, scheduling, timers, run control,
watchdogs, and telemetry collection.

Watchdogs exist so that pathological models — a retry loop that
re-schedules itself at zero delay, a fault scenario that triggers an
event storm — fail loudly with diagnostics instead of hanging the
process.  Three are available on :meth:`Simulator.run`:

* ``max_events`` — hard budget on dispatched events;
* ``stall_limit`` — maximum events dispatched without the simulated
  clock advancing; on trip the error names the offending event tags;
* ``wall_deadline`` — real (wall-clock) seconds the run may take.

Telemetry: when a :class:`~repro.telemetry.Telemetry` instance is
attached, :meth:`Simulator.run` counts dispatched events per tag, and
— with profiling on — measures per-tag handler wall time (totals plus
log-bucketed :class:`~repro.telemetry.SampleHistogram` distributions
for p50/p95/p99) and samples an events/sec throughput series.
Collection is strictly passive: the kernel never schedules events on
behalf of telemetry, so an instrumented run dispatches exactly the
same events as a bare one.

Monitors: :meth:`Simulator.attach_monitor` accepts passive
:class:`RunMonitor` observers (the telemetry stream, the in-run
health monitor) whose ticks are paced by the simulated clock but fire
*between* event dispatches — they appear nowhere in the event queue,
so the replay digest of a monitored run is byte-identical to a bare
one.  Watchdog aborts call each monitor's ``on_abort`` hook first, so
diagnostics are flushed instead of dying with the process.
"""

from __future__ import annotations

# simcheck: allow-file[DET001] watchdogs and opt-in profiling read wall
# clocks deliberately; their readings never feed simulation state (see
# docs/SIMCHECK.md).

import math
import time as _time
from bisect import bisect_left
from collections import Counter
from heapq import heappush
from typing import Callable, Protocol

from repro.errors import SimulationError
from repro.sim.event import DEFAULT_PRIORITY, Event, EventQueue
from repro.sim.replay import ReplaySanitizer
from repro.sim.rng import RngRegistry
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: Events between throughput samples when telemetry is collecting.
_THROUGHPUT_WINDOW = 4096

#: Geometric handler-wall-time buckets for the profiling histograms:
#: 100 ns doubling up to ~3.4 s.  Durations land in one of 26 buckets
#: (plus overflow); p50/p95/p99 are interpolated inside a bucket, so
#: the estimate error is bounded by one doubling.
WALL_TIME_BOUNDS: tuple[float, ...] = tuple(1e-7 * (2**i) for i in range(26))


class RunMonitor(Protocol):
    """Passive observer paced by the simulated clock.

    Attached via :meth:`Simulator.attach_monitor`, a monitor's
    :meth:`on_tick` is invoked *between* event dispatches whenever the
    simulated clock first reaches its next due time — the kernel never
    schedules events on a monitor's behalf, so attaching one cannot
    change the dispatched event sequence (the replay digest is pinned
    byte-identical by tests).  Monitors must honor the same contract as
    telemetry: never schedule, never touch the RNG registry, never
    mutate model state.

    Optional hooks (looked up by name, so plain objects qualify):

    * ``on_abort(now, error)`` — called when a kernel watchdog
      (stall/budget/deadline) is about to abort the run, so the
      telemetry stream can flush diagnostics that would otherwise die with the
      process.
    """

    @property
    def interval(self) -> float:
        """Simulated seconds between :meth:`on_tick` invocations."""
        ...

    def on_tick(self, now: float) -> None:
        """The clock reached the monitor's next due time."""
        ...


class Timer:
    """A restartable one-shot timer bound to a :class:`Simulator`.

    A timer wraps a pending event and supports the cancel/restart
    pattern MAC state machines need (e.g. CTS timeout, defer timers).

    It owns one event slot for its life.  A restart that lands no
    earlier than the queued expiry re-keys that event in place
    (:meth:`EventQueue.rekey`); a timer that fired, or whose tombstone
    has left the heap, re-pushes its slot (:meth:`EventQueue.repush`).
    Both draw the fresh sequence number where ``call_later`` would, so
    the dispatch order is the cancel-and-push one.  Only a restart
    *earlier* than a queued expiry leaves a tombstone and takes a new
    slot.
    """

    def __init__(
        self,
        sim: "Simulator",
        callback: Callable[[], None],
        *,
        tag: str,
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        self._sim = sim
        self._queue = sim._queue
        self._callback = callback
        self._tag = tag
        self._priority = priority
        self._slot: Event | None = None

    @property
    def pending(self) -> bool:
        """True if the timer is armed and has not yet fired."""
        slot = self._slot
        return slot is not None and slot._in_heap and not slot.cancelled

    @property
    def expires_at(self) -> float | None:
        """Absolute expiry time, or None when not armed."""
        if self.pending:
            assert self._slot is not None
            return self._slot.time
        return None

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now, replacing any
        previously armed expiry."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._sim.now + delay
        slot = self._slot
        if slot is not None:
            if not slot._in_heap:
                self._queue.repush(slot, time)
                return
            if time >= slot.time:
                self._queue.rekey(slot, time)
                return
            slot.cancel()
        self._slot = self._queue.push(
            time, self._callback, priority=self._priority, tag=self._tag
        )

    def cancel(self) -> None:
        """Disarm the timer.  Safe to call when not armed."""
        slot = self._slot
        if slot is not None and not slot.cancelled:
            slot.cancel()


class Simulator:
    """Discrete-event simulator facade.

    Owns the clock, the event queue and the seeded RNG registry, and
    carries the run's telemetry.  All model components schedule through
    one Simulator instance, so a scenario is fully described by (model,
    seed) and replays identically.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        telemetry: Telemetry | None = None,
        sanitizer: ReplaySanitizer | None = None,
    ) -> None:
        #: Current simulation time in seconds.  A plain attribute, read
        #: by every handler; only the kernel writes it.
        self.now = 0.0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self.rng = RngRegistry(seed)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Optional replay sanitizer; observes every dispatched event
        #: (passively — it never schedules) so two runs can be diffed.
        self.sanitizer = sanitizer
        self._events_processed = 0
        self._monitors: list[RunMonitor] = []
        self._monitor_due: list[float] = []

    # --- clock ------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Number of events dispatched so far (excludes cancelled)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events currently queued (including tombstones)."""
        return len(self._queue)

    # --- scheduling ---------------------------------------------------------

    def call_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        tag: str,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time``.

        Raises:
            SimulationError: if ``time`` is in the past.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f} before now={self.now:.9f}"
            )
        return self._queue.push(time, callback, priority=priority, tag=tag)

    def call_later(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        tag: str,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``callback`` after a non-negative ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Pushes directly: delay >= 0 already guarantees the call_at
        # not-in-the-past invariant, and this is the hottest scheduling
        # entry point.
        return self._queue.push(
            self.now + delay, callback, priority=priority, tag=tag
        )

    def rearm(self, event: Event, delay: float) -> Event:
        """Schedule the fired ``event`` again ``delay`` seconds from now
        (the slot pattern: no Event is allocated, and the fresh sequence
        number is drawn where ``call_later`` would draw it, so dispatch
        order is unchanged).

        Raises:
            SimulationError: on a negative delay, or if ``event`` is still
                queued — a cancelled one too: schedule a new event then.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if event._in_heap:
            raise SimulationError("repush of an event still in the heap")
        # EventQueue.repush, inlined: every source tick ends here.
        queue = self._queue
        time = event.time = self.now + delay
        seq = event.seq = next(queue._counter)
        event.cancelled = False
        event._queue = queue
        event._in_heap = True
        heappush(queue._heap, (time, event.priority, seq, event))
        return event

    def timer(
        self,
        callback: Callable[[], None],
        *,
        tag: str,
        priority: int = DEFAULT_PRIORITY,
    ) -> Timer:
        """Create an unarmed :class:`Timer` bound to this simulator."""
        return Timer(self, callback, tag=tag, priority=priority)

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        tag: str,
        start_at: float | None = None,
    ) -> Callable[[], None]:
        """Run ``callback`` periodically.

        The first firing is at ``start_at`` (default: now + interval).
        Returns a zero-argument function that stops the recurrence.

        Raises:
            SimulationError: if ``interval`` is not positive.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive: {interval}")
        stopped = False
        slot: Event | None = None

        def fire() -> None:
            if stopped:
                return
            callback()
            if not stopped and slot is not None:
                self.rearm(slot, interval)

        first = self.now + interval if start_at is None else start_at
        slot = self.call_at(first, fire, tag=tag)

        def stop() -> None:
            nonlocal stopped
            stopped = True
            if slot is not None:
                slot.cancel()

        return stop

    # --- monitors -----------------------------------------------------------

    def attach_monitor(self, monitor: RunMonitor) -> None:
        """Attach a passive :class:`RunMonitor`.

        The monitor's first tick is one ``interval`` from now; ticks
        fire from inside the dispatch loop (between callbacks) when the
        simulated clock first reaches the due time, so they appear
        nowhere in the event sequence.

        Raises:
            SimulationError: if the monitor's interval is not positive.
        """
        interval = float(monitor.interval)
        if interval <= 0:
            raise SimulationError(
                f"monitor interval must be positive: {interval}"
            )
        self._monitors.append(monitor)
        self._monitor_due.append(self.now + interval)

    def _tick_monitors(self) -> float:
        """Fire every due monitor once; return the next overall due."""
        now = self.now
        for index, monitor in enumerate(self._monitors):
            due = self._monitor_due[index]
            if due > now:
                continue
            interval = float(monitor.interval)
            # One tick per crossing, however far the clock jumped: a
            # sparse schedule must not trigger a catch-up storm.
            while due <= now:
                due += interval
            self._monitor_due[index] = due
            monitor.on_tick(now)
        return min(self._monitor_due)

    def _watchdog_abort(self, message: str) -> SimulationError:
        """Build the watchdog error and give every monitor a chance to
        flush diagnostics before the run dies with it."""
        error = SimulationError(message)
        for monitor in self._monitors:
            hook = getattr(monitor, "on_abort", None)
            if hook is None:
                continue
            try:
                hook(self.now, error)
            except Exception:  # noqa: BLE001 - a failing flush must
                pass  # never mask the watchdog diagnosis itself
        return error

    # --- run control --------------------------------------------------------

    def stop(self) -> None:
        """Request the current :meth:`run` call to return after the
        in-flight event completes."""
        self._stopped = True

    def run(
        self,
        until: float | None = None,
        *,
        max_events: int | None = None,
        stall_limit: int | None = None,
        wall_deadline: float | None = None,
        pace: float | None = None,
    ) -> float:
        """Dispatch events in time order.

        Args:
            until: stop once the clock would pass this time; the clock
                is then advanced exactly to ``until``.  ``None`` runs
                until the event queue drains.
            max_events: optional safety valve on dispatched events.
            stall_limit: maximum consecutive events dispatched without
                the simulated clock advancing.  A model stuck in a
                zero-delay rescheduling loop trips this; the error
                names the tags of the stalled events.
            wall_deadline: real-time budget in seconds; checked every
                512 events, so overshoot is bounded by that many
                handlers, not one.
            pace: ceiling on simulated seconds advanced per wall-clock
                second (``pace=20`` runs at most 20x real time; ``None``
                is free-running).  Pacing only ever *sleeps* before an
                event — it never feeds wall time into the model — so the
                dispatched event sequence, and hence the replay digest,
                are identical at every pace.

        Returns:
            The simulation time when the run stopped.

        Raises:
            SimulationError: on re-entrant ``run`` calls or when a
                watchdog trips.  The kernel is left in a defined state
                (clock at the failing event's time, ``run`` callable
                again) when a watchdog or a callback raises.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        if stall_limit is not None and stall_limit < 1:
            raise SimulationError(f"stall_limit must be >= 1: {stall_limit}")
        if wall_deadline is not None and not 0 < wall_deadline < math.inf:
            raise SimulationError(
                f"wall_deadline must be positive and finite: {wall_deadline}"
            )
        if pace is not None and not 0 < pace < math.inf:
            raise SimulationError(f"pace must be positive and finite: {pace}")
        self._running = True
        self._stopped = False
        wall_start = _time.monotonic() if wall_deadline is not None else 0.0
        # The stall watchdog: events dispatched at the current instant,
        # the first of them, and a tag tally begun only once a second
        # event lands on the same instant (most instants hold one).
        events_at_now = 0
        first_at_now: Event | None = None
        stalled_tags: dict[str, int] = {}
        telemetry = self.telemetry
        sanitizer = self.sanitizer
        collect = telemetry.enabled
        profile = telemetry.profile
        tag_counts: dict[str, int] = {}
        tag_wall: dict[str, float] = {}
        tag_wall_buckets: dict[str, list[int]] = {}
        wall_bounds = WALL_TIME_BOUNDS
        bucket_width = len(wall_bounds) + 1
        run_events = 0
        run_start = _time.monotonic() if collect else 0.0
        window_start = run_start
        throughput = (
            telemetry.registry.series("kernel.events_per_sec_window")
            if collect
            else None
        )
        queue = self._queue
        pop = queue.pop_next
        monitor_due = (
            min(self._monitor_due) if self._monitors else float("inf")
        )
        pace_origin = self.now
        pace_start = _time.monotonic() if pace is not None else 0.0
        try:
            while not self._stopped:
                if pace is not None:
                    # Throttle before the pop: the head event must not
                    # run before its wall due time.  Sleeps are chunked
                    # so an external stop() is honored promptly and
                    # leaves the head queued.
                    if not queue:
                        break
                    head = queue.peek_time()
                    if until is not None and head > until:
                        break
                    target = (head - pace_origin) / pace
                    while not self._stopped:
                        lag = target - (_time.monotonic() - pace_start)
                        if lag <= 0:
                            break
                        _time.sleep(min(lag, 0.2))
                    if self._stopped:
                        break
                event = pop(until)
                if event is None:
                    break
                at = event.time
                advanced = at > self.now
                self.now = at
                processed = self._events_processed = self._events_processed + 1
                if stall_limit is not None:
                    if advanced or not events_at_now:
                        events_at_now = 1
                        first_at_now = event
                    else:
                        events_at_now += 1
                        if events_at_now == 2:
                            assert first_at_now is not None
                            stalled_tags = {first_at_now.tag: 1}
                        stalled_tags[event.tag] = stalled_tags.get(event.tag, 0) + 1
                        if events_at_now > stall_limit:
                            offenders = ", ".join(
                                f"{tag} x{count}"
                                for tag, count in Counter(stalled_tags).most_common(5)
                            )
                            raise self._watchdog_abort(
                                f"simulated clock stalled at t={self.now:.9f}: "
                                f"{events_at_now} events without advancing; "
                                f"offending tags: {offenders}"
                            )
                if max_events is not None and processed > max_events:
                    raise self._watchdog_abort(
                        f"exceeded max_events={max_events}; runaway model?"
                    )
                if (
                    wall_deadline is not None
                    and processed % 512 == 0
                    and _time.monotonic() - wall_start > wall_deadline
                ):
                    raise self._watchdog_abort(
                        f"wall-clock deadline of {wall_deadline:g}s "
                        f"exceeded at t={self.now:.6f} after "
                        f"{self._events_processed} events"
                    )
                if sanitizer is not None:
                    sanitizer.observe(event)
                if not collect:
                    event.callback()
                else:
                    tag = event.tag
                    tag_counts[tag] = tag_counts.get(tag, 0) + 1
                    run_events += 1
                    if profile:
                        handler_start = _time.perf_counter()
                        event.callback()
                        duration = _time.perf_counter() - handler_start
                        tag_wall[tag] = tag_wall.get(tag, 0.0) + duration
                        buckets = tag_wall_buckets.get(tag)
                        if buckets is None:
                            buckets = [0] * bucket_width
                            tag_wall_buckets[tag] = buckets
                        buckets[bisect_left(wall_bounds, duration)] += 1
                    else:
                        event.callback()
                    if run_events % _THROUGHPUT_WINDOW == 0:
                        wall_now = _time.monotonic()
                        window = wall_now - window_start
                        if window > 0 and throughput is not None:
                            throughput.record(
                                self.now, _THROUGHPUT_WINDOW / window
                            )
                        window_start = wall_now
                if at >= monitor_due:
                    # Paced by the simulated clock but invoked between
                    # callbacks: monitors observe, never schedule, so
                    # the event sequence — and the replay digest — are
                    # untouched.
                    monitor_due = self._tick_monitors()
            if until is not None and not self._stopped and self.now < until:
                self.now = until
            return self.now
        finally:
            self._running = False
            if collect:
                registry = telemetry.registry
                for tag, count in tag_counts.items():
                    registry.counter("kernel.events_by_tag", tag=tag).inc(count)
                for tag, wall in tag_wall.items():
                    registry.counter(
                        "kernel.handler_wall_seconds", tag=tag
                    ).inc(wall)
                    buckets = tag_wall_buckets.get(tag)
                    if buckets is not None:
                        registry.sample_histogram(
                            "kernel.handler_wall_hist",
                            wall_bounds,
                            tag=tag,
                        ).merge_counts(buckets, wall)
                elapsed = _time.monotonic() - run_start
                if run_events and elapsed > 0:
                    registry.gauge("kernel.events_per_sec").set(
                        run_events / elapsed
                    )
