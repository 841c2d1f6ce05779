"""Unit tests for the simulation kernel and timers."""

import ast
from pathlib import Path

import pytest

import repro
from repro.errors import SimulationError
from repro.sim.kernel import Simulator


def test_run_advances_clock_to_until():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_call_later_fires_at_expected_time():
    sim = Simulator()
    seen = []
    sim.call_later(2.5, lambda: seen.append(sim.now), tag="test")
    sim.run(until=5.0)
    assert seen == [2.5]


def test_call_at_in_past_raises():
    sim = Simulator()
    sim.call_later(1.0, lambda: None, tag="test")
    sim.run(until=2.0)
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None, tag="test")


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-0.1, lambda: None, tag="test")


def test_events_scheduled_during_run_are_dispatched():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.call_later(1.0, lambda: seen.append("second"), tag="test")

    sim.call_later(1.0, first, tag="test")
    sim.run(until=3.0)
    assert seen == ["first", "second"]


def test_run_without_until_drains_queue():
    sim = Simulator()
    sim.call_later(7.0, lambda: None, tag="test")
    end = sim.run()
    assert end == 7.0


def test_stop_halts_run_mid_way():
    sim = Simulator()
    seen = []
    sim.call_later(1.0, lambda: (seen.append(1), sim.stop()), tag="test")
    sim.call_later(2.0, lambda: seen.append(2), tag="test")
    sim.run(until=10.0)
    assert seen == [1]
    assert sim.now == 1.0


def test_run_is_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run(until=10.0)

    sim.call_later(1.0, nested, tag="test")
    sim.run(until=2.0)


def test_max_events_guard_trips():
    sim = Simulator()

    def loop():
        sim.call_later(0.0, loop, tag="test")

    sim.call_later(0.0, loop, tag="test")
    with pytest.raises(SimulationError):
        sim.run(until=1.0, max_events=100)


def test_events_processed_counts_dispatches():
    sim = Simulator()
    for _ in range(5):
        sim.call_later(1.0, lambda: None, tag="test")
    sim.run(until=2.0)
    assert sim.events_processed == 5


def test_timer_start_cancel_restart():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now), tag="test")
    timer.start(5.0)
    assert timer.pending
    assert timer.expires_at == 5.0
    timer.cancel()
    assert not timer.pending
    timer.start(2.0)
    sim.run(until=10.0)
    assert fired == [2.0]
    assert not timer.pending


def test_timer_restart_replaces_previous_expiry():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now), tag="test")
    timer.start(5.0)
    timer.start(1.0)
    sim.run(until=10.0)
    assert fired == [1.0]


def test_periodic_every_fires_until_stopped():
    sim = Simulator()
    times = []
    stop = sim.every(1.0, lambda: times.append(sim.now), tag="test")
    sim.call_later(3.5, stop, tag="test")
    sim.run(until=10.0)
    assert times == [1.0, 2.0, 3.0]


def test_periodic_with_explicit_start():
    sim = Simulator()
    times = []
    sim.every(2.0, lambda: times.append(sim.now), start_at=0.5, tag="test")
    sim.run(until=5.0)
    assert times == [0.5, 2.5, 4.5]


def test_periodic_rejects_bad_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every(0.0, lambda: None, tag="test")


# --- watchdogs ---------------------------------------------------------------


def test_stall_detector_catches_zero_delay_loop_and_names_tag():
    sim = Simulator()

    def reschedule():
        sim.call_later(0.0, reschedule, tag="mac.retry")

    sim.call_later(1.0, reschedule, tag="mac.retry")
    with pytest.raises(SimulationError) as excinfo:
        sim.run(until=10.0, stall_limit=500)
    message = str(excinfo.value)
    assert "stalled" in message
    assert "mac.retry" in message
    assert "t=1" in message


def test_stall_detector_tolerates_bursts_below_limit():
    sim = Simulator()
    seen = []
    # 50 events at the same instant, then the clock advances: no trip.
    for _ in range(50):
        sim.call_later(1.0, lambda: seen.append(sim.now), tag="test")
    sim.call_later(2.0, lambda: seen.append(sim.now), tag="test")
    sim.run(until=3.0, stall_limit=100)
    assert len(seen) == 51


def test_stall_counter_resets_when_clock_advances():
    sim = Simulator()
    # 30 events at each of many distinct times; limit of 40 never trips.
    for step in range(1, 6):
        for _ in range(30):
            sim.call_later(float(step), lambda: None, tag="test")
    assert sim.run(until=10.0, stall_limit=40) == 10.0


@pytest.mark.parametrize("instant", [1.0, 0.0], ids=["after-advance", "at-start"])
def test_stall_message_tallies_every_event_at_the_instant(instant):
    # The tally starts with the instant's second event and counts the
    # first one too, whether the clock advanced to the instant or the
    # run began there.
    sim = Simulator()
    sim.call_later(0.5, lambda: None, tag="before")
    for tag in ["a", "b", "a", "x", "c", "b", "a", "d", "e", "f"]:
        sim.call_later(instant, lambda: None, tag=tag)
    with pytest.raises(SimulationError) as excinfo:
        sim.run(until=2.0, stall_limit=8)
    assert str(excinfo.value) == (
        f"simulated clock stalled at t={instant:.9f}: 9 events without "
        "advancing; offending tags: a x3, b x2, x x1, c x1, d x1"
    )
    assert sim.now == instant and sim.events_processed == (10 if instant else 9)


def test_only_the_kernel_writes_the_simulator_clock():
    """``Simulator.now`` is a plain attribute (a property call per read
    cost every handler), so nothing but the kernel may assign it."""
    root = Path(repro.__file__).parent
    writes = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "setattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "now"
            ):
                writes.append(f"{path.relative_to(root)}:{node.lineno}")
                continue
            else:
                continue
            while targets:
                target = targets.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                elif isinstance(target, ast.Starred):
                    targets.append(target.value)
                elif isinstance(target, ast.Attribute) and target.attr == "now":
                    writes.append(f"{path.relative_to(root)}:{node.lineno}")
    outside = [w for w in writes if not w.startswith("sim/kernel.py:")]
    assert outside == [] and writes


def test_wall_deadline_trips_on_event_storm():
    sim = Simulator()

    def reschedule():
        sim.call_later(1e-9, reschedule, tag="test")

    sim.call_later(0.0, reschedule, tag="test")
    with pytest.raises(SimulationError) as excinfo:
        sim.run(until=1e6, wall_deadline=0.05)
    assert "wall-clock deadline" in str(excinfo.value)


def test_watchdog_parameters_validated():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.run(until=1.0, stall_limit=0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0, wall_deadline=0.0)


def test_kernel_usable_after_watchdog_trip():
    sim = Simulator()

    def reschedule():
        sim.call_later(0.0, reschedule, tag="loop")

    sim.call_later(1.0, reschedule, tag="loop")
    with pytest.raises(SimulationError):
        sim.run(until=10.0, stall_limit=50)
    # The kernel is left in a defined state: clock at the failing
    # event's time and run() callable again.
    seen = []
    sim.call_later(5.0, lambda: seen.append(sim.now), tag="test")
    sim.run(until=sim.now + 5.0, stall_limit=None, max_events=sim.events_processed + 60)
    assert seen == [6.0]


# --- Timer edge cases --------------------------------------------------------


def test_timer_cancel_then_start_rearms_cleanly():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now), tag="test")
    timer.start(1.0)
    timer.cancel()
    assert not timer.pending
    timer.start(2.0)
    assert timer.pending
    assert timer.expires_at == 2.0
    sim.run(until=5.0)
    assert fired == [2.0]


def test_timer_start_while_pending_replaces_expiry():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now), tag="test")
    timer.start(1.0)
    timer.start(3.0)  # replaces, never fires at 1.0
    sim.run(until=5.0)
    assert fired == [3.0]


def test_timer_rearming_itself_from_callback():
    sim = Simulator()
    fired = []

    def on_fire():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.start(1.0)

    timer = sim.timer(on_fire, tag="test")
    timer.start(1.0)
    sim.run(until=10.0)
    assert fired == [1.0, 2.0, 3.0]
    assert not timer.pending


def test_timer_callback_exception_leaves_kernel_defined():
    sim = Simulator()

    def explode():
        raise RuntimeError("boom")

    timer = sim.timer(explode, tag="test")
    timer.start(1.0)
    with pytest.raises(RuntimeError):
        sim.run(until=5.0)
    # Clock stopped at the failing event; the timer is disarmed; the
    # kernel accepts new work.
    assert sim.now == 1.0
    assert not timer.pending
    seen = []
    sim.call_later(1.0, lambda: seen.append(sim.now), tag="test")
    sim.run(until=5.0)
    assert seen == [2.0]


# ------------------------------------------------------------ run monitors


class _RecordingMonitor:
    def __init__(self, interval=1.0):
        self.interval = interval
        self.ticks = []
        self.aborts = []

    def on_tick(self, now):
        self.ticks.append(now)

    def on_abort(self, now, error):
        self.aborts.append((now, str(error)))


def test_monitor_ticks_once_per_interval_crossing():
    sim = Simulator()
    monitor = _RecordingMonitor(interval=1.0)
    sim.attach_monitor(monitor)
    stop = sim.every(0.25, lambda: None, tag="test")
    sim.run(until=5.0)
    stop()
    # One tick per whole-second crossing; dense events never double-fire.
    assert monitor.ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_monitor_sparse_schedule_has_no_catchup_storm():
    sim = Simulator()
    monitor = _RecordingMonitor(interval=1.0)
    sim.attach_monitor(monitor)
    fired = []
    sim.call_at(10.0, lambda: fired.append(sim.now), tag="test")
    sim.run(until=20.0)
    # The clock jumped 0 -> 10 in one dispatch: exactly one tick fires
    # at the jump, not ten catch-up ticks.
    assert fired == [10.0]
    assert monitor.ticks == [10.0]


def test_monitor_rejects_nonpositive_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.attach_monitor(_RecordingMonitor(interval=0.0))


def test_watchdog_abort_notifies_monitors_before_raising():
    sim = Simulator()
    monitor = _RecordingMonitor(interval=1.0)
    sim.attach_monitor(monitor)
    stop = sim.every(0.1, lambda: None, tag="test")
    with pytest.raises(SimulationError):
        sim.run(until=100.0, max_events=17)
    stop()
    assert len(monitor.aborts) == 1
    _, message = monitor.aborts[0]
    assert "max_events" in message


def test_failing_abort_hook_never_masks_the_watchdog():
    class ExplodingMonitor(_RecordingMonitor):
        def on_abort(self, now, error):
            raise RuntimeError("flush failed")

    sim = Simulator()
    sim.attach_monitor(ExplodingMonitor(interval=1.0))
    sim.every(0.1, lambda: None, tag="test")
    with pytest.raises(SimulationError):
        sim.run(until=100.0, max_events=5)


def test_monitor_is_absent_from_the_event_sequence():
    from repro.sim.replay import ReplaySanitizer

    def digest(with_monitor):
        sim = Simulator(sanitizer=ReplaySanitizer())
        if with_monitor:
            sim.attach_monitor(_RecordingMonitor(interval=0.5))
        stop = sim.every(0.25, lambda: None, tag="test")
        sim.run(until=5.0)
        stop()
        return sim.sanitizer.hexdigest()

    assert digest(False) == digest(True)
