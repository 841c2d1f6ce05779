"""Order invariants of the kernel's dispatch loop and the tombstone heap.

``Simulator.run`` pops one event per iteration straight off the
``(time, priority, seq)`` heap.  These tests pin what that buys —
callbacks that cancel, preempt, stop or raise leave the remaining
events queued and in order, and a deep heap costs one pop per
dispatched event — plus the tombstone compaction bookkeeping.  Several
test names still say "batch": they predate the removal of batched
dispatch and are kept so the suite's test ids stay stable.
"""

import heapq
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.errors import SimulationError
from repro.sim import event as event_module
from repro.sim import kernel as kernel_module
from repro.sim.event import EventQueue
from repro.sim.kernel import Simulator


def test_cancel_within_same_time_batch_skips_callback():
    # An event cancelled by an earlier callback is skipped and is not
    # counted as dispatched.
    sim = Simulator()
    seen = []
    later = sim.call_at(1.0, lambda: seen.append("b"), priority=1)

    def first():
        seen.append("a")
        later.cancel()

    sim.call_at(1.0, first, priority=0)
    sim.run()
    assert seen == ["a"]
    assert sim.events_processed == 1
    assert sim.pending_events == 0


def test_same_time_lower_priority_event_preempts_batch():
    # A callback that schedules a same-time event with a priority lower
    # than an already pending one must see the new event dispatched
    # first, as (time, priority, seq) order demands.
    sim = Simulator()
    order = []

    def first():
        order.append("a")
        sim.call_at(1.0, lambda: order.append("c"), priority=1)

    sim.call_at(1.0, first, priority=0)
    sim.call_at(1.0, lambda: order.append("b"), priority=5)
    sim.run()
    assert order == ["a", "c", "b"]


def test_stop_mid_batch_preserves_remaining_events():
    sim = Simulator()
    seen = []

    def first():
        seen.append("a")
        sim.stop()

    sim.call_at(1.0, first, priority=0)
    sim.call_at(1.0, lambda: seen.append("b"), priority=1)
    sim.call_at(1.0, lambda: seen.append("c"), priority=2)
    sim.run()
    assert seen == ["a"]
    assert sim.pending_events == 2
    # Nothing beyond the stopping event was popped; a second run drains
    # the rest in the original order.
    sim.run()
    assert seen == ["a", "b", "c"]


def test_exception_mid_batch_preserves_remaining_events():
    sim = Simulator()
    seen = []

    def boom():
        seen.append("a")
        raise RuntimeError("handler failure")

    sim.call_at(1.0, boom, priority=0)
    sim.call_at(1.0, lambda: seen.append("b"), priority=1)
    sim.call_at(1.0, lambda: seen.append("c"), priority=2)
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.pending_events == 2
    sim.run()
    assert seen == ["a", "b", "c"]


def test_paced_stop_before_head_due_leaves_it_queued(monkeypatch):
    # Pacing peeks the head, sleeps, then pops: a stop() that lands
    # during the sleep must find the head still queued.
    sim = Simulator()
    seen = []
    sim.call_at(5.0, lambda: seen.append("head"))
    slept = []

    def sleep(seconds):
        slept.append(seconds)
        sim.stop()

    monkeypatch.setattr(kernel_module._time, "sleep", sleep)
    sim.run(pace=1.0)
    assert slept and seen == []
    assert sim.pending_events == 1
    assert sim.now == 0.0
    monkeypatch.undo()
    sim.run(pace=1e9)
    assert seen == ["head"]
    assert sim.now == 5.0


def test_paced_run_does_not_wait_for_events_beyond_until(monkeypatch):
    sim = Simulator()
    sim.call_at(50.0, lambda: None)
    monkeypatch.setattr(
        kernel_module._time,
        "sleep",
        lambda seconds: pytest.fail("slept for an event beyond until"),
    )
    assert sim.run(until=1.0, pace=1.0) == 1.0
    assert sim.pending_events == 1


def test_deep_heap_costs_one_pop_and_no_repush_per_event(monkeypatch):
    # Regression for batched dispatch: with far-future events parked in
    # the heap, every tick used to pop a 128-event batch and push 127
    # of them straight back.  Count heap operations, not wall time.
    ops: Counter[str] = Counter()

    def counting(name):
        original = getattr(heapq, name)

        def wrapper(*args):
            ops[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(
        event_module,
        "heapq",
        SimpleNamespace(
            heappush=counting("heappush"),
            heappop=counting("heappop"),
            heapify=heapq.heapify,
        ),
    )
    sim = Simulator()
    parked = 256
    ticks = 1_000
    for index in range(parked):
        sim.call_at(1e6 + index, lambda: None)
    fired = [0]

    def tick():
        fired[0] += 1
        if fired[0] < ticks:
            sim.call_later(1e-3, tick)
        else:
            sim.stop()

    sim.call_later(0.0, tick)
    sim.run()  # no horizon: the parked events are eligible throughout
    assert sim.events_processed == ticks
    assert ops["heappop"] == ticks
    # One push per scheduling call and none besides.
    assert ops["heappush"] == parked + ticks
    assert sim.pending_events == parked


def test_cancelled_timers_never_fire_under_churn():
    sim = Simulator()
    fired = []
    events = [
        sim.call_at(float(index + 1), (lambda n: (lambda: fired.append(n)))(index))
        for index in range(500)
    ]
    for index, event in enumerate(events):
        if index % 2:
            event.cancel()
    sim.run()
    assert fired == [index for index in range(500) if index % 2 == 0]


def test_every_survives_cancellation_churn_around_it():
    sim = Simulator()
    ticks = []
    stop = sim.every(1.0, lambda: ticks.append(sim.now))
    # Churn: schedule and immediately cancel many one-shots so the heap
    # compacts tombstones while the recurring slot keeps re-arming.
    for index in range(600):
        sim.call_at(0.5 + index * 0.01, lambda: None).cancel()
    sim.call_at(5.5, stop)
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_tombstones_compact_in_bulk():
    queue = EventQueue()
    events = [queue.push(float(index), lambda: None) for index in range(1200)]
    for event in events[:900]:
        event.cancel()
    # Lazy cancellation leaves tombstones in the heap until the
    # compaction threshold trips, after which the live count and the
    # tombstone count must agree with the survivors.
    assert len(queue) == 300
    assert queue.tombstones < 900
    popped = [queue.pop() for _ in range(300)]
    assert [event.time for event in popped] == [float(i) for i in range(900, 1200)]
    assert not queue


def test_repush_rejects_event_still_in_heap():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    with pytest.raises(SimulationError):
        queue.repush(event, 2.0)


def test_repush_reuses_slot_with_fresh_sequence():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    first_seq = event.seq
    assert queue.pop() is event
    queue.repush(event, 2.0)
    assert event.seq > first_seq
    assert event.time == 2.0
    assert queue.pop() is event


def test_pop_batch_respects_limit_and_horizon():
    queue = EventQueue()
    for index in range(10):
        queue.push(float(index), lambda: None)
    batch = queue.pop_batch(4, 100.0)
    assert [event.time for event in batch] == [0.0, 1.0, 2.0, 3.0]
    batch = queue.pop_batch(100, 5.5)
    assert [event.time for event in batch] == [4.0, 5.0]
    assert len(queue) == 4


def test_pop_next_skips_tombstones_and_honours_until():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    second = queue.push(2.0, lambda: None)
    third = queue.push(3.0, lambda: None)
    first.cancel()
    assert queue.pop_next(1.5) is None
    assert queue.tombstones == 0  # discarded on the way to the head
    assert queue.pop_next(2.0) is second
    assert queue.pop_next() is third
    assert queue.pop_next() is None


def test_batched_run_counts_every_dispatch():
    sim = Simulator()
    for index in range(257):
        sim.call_at(1.0 + index * 1e-6, lambda: None)
    sim.run()
    assert sim.events_processed == 257
