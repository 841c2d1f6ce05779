"""Timers re-key their one event in place, and dispatch exactly as the
cancel-and-push timer they replaced.

A restart that lands no earlier than the queued expiry moves the queued
event (``EventQueue.rekey``): new time, fresh sequence number, heap
entry left stale until it surfaces and is re-sifted.  The old timer
cancelled the event and pushed a new one.  ``tests/helpers.py`` keeps
that timer as the oracle: under any mix of starts (later, earlier,
tied, from inside a timer's own callback), cancels, plain events, run
horizons, compaction, ``clear`` and ``pop_batch`` / ``reinject``, both
dispatch the same ``(time, priority, tag)`` sequence and agree
on every timer's state and the queue's size and head after every step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.event import EventQueue
from repro.sim.kernel import Simulator, Timer

from helpers import CancelAndPushTimer

#: Binary fractions, so restarts and plain events tie exactly.
DELAYS = (0.0, 0.25, 0.5, 1.0, 1.5, 3.0)
PRIORITIES = (0, 1, -1)
TIMERS = len(PRIORITIES)

TIMER = st.integers(0, TIMERS - 1)
DELAY = st.sampled_from(DELAYS)

REACTION = st.one_of(
    st.tuples(st.just("start"), TIMER, DELAY),
    st.tuples(st.just("restart"), TIMER, DELAY),
    st.tuples(st.just("cancel"), TIMER),
    st.just(("none",)),
)

STEP = st.one_of(
    st.tuples(st.just("start"), TIMER, DELAY),
    st.tuples(st.just("restart"), TIMER, DELAY),
    st.tuples(st.just("cancel"), TIMER),
    st.tuples(st.just("call"), DELAY, st.sampled_from(PRIORITIES)),
    st.tuples(st.just("run"), DELAY),
    st.tuples(st.just("burst"), st.sampled_from((260, 600)), TIMER, DELAY),
    st.tuples(st.just("clear"), DELAY),
    st.tuples(st.just("batch"), st.integers(1, 4), DELAY),
)


def _plain() -> None:
    """Handler of every plain event: one function object for both runs."""


class _Recorder:
    """Kernel sanitizer hook that keeps the dispatch log."""

    def __init__(self) -> None:
        self.log: list[tuple] = []

    def observe(self, event) -> None:
        self.log.append((event.time, event.priority, event.tag))


class _Run:
    """One simulator driven by a script, with timers of one kind; each
    firing of timer ``k`` performs the next of its scripted reactions."""

    def __init__(self, make_timer, reactions) -> None:
        self.recorder = _Recorder()
        self.sim = Simulator(sanitizer=self.recorder)
        self.reactions = [list(script) for script in reactions]
        self.batches: list[list[tuple]] = []
        self.timers = [
            make_timer(self.sim, (lambda k=k: self._react(k)), tag=f"t{k}", priority=priority)
            for k, priority in enumerate(PRIORITIES)
        ]

    def _react(self, k: int) -> None:
        if self.reactions[k]:
            self.apply(self.reactions[k].pop(0))

    def apply(self, step: tuple) -> None:
        sim, queue = self.sim, self.sim._queue
        kind = step[0]
        if kind == "start":
            self.timers[step[1]].start(step[2])
        elif kind == "restart":
            # Cancel, then start: the revival of a queued tombstone.
            self.timers[step[1]].cancel()
            self.timers[step[1]].start(step[2])
        elif kind == "cancel":
            self.timers[step[1]].cancel()
        elif kind == "call":
            sim.call_at(sim.now + step[1], _plain, priority=step[2], tag="plain")
        elif kind == "run":
            sim.run(until=sim.now + step[1])
        elif kind == "burst":
            # Enough tombstones at once to trip compaction past 256, with
            # a timer just restarted: compaction meets a stale entry.
            burst = [sim.call_at(sim.now + 0.75, _plain, tag="burst") for _ in range(step[1])]
            self.timers[step[2]].start(step[3])
            for event in burst:
                event.cancel()
        elif kind == "clear":
            queue.clear()
            for timer in self.timers:
                timer.start(step[1])
        elif kind == "batch":
            batch = queue.pop_batch(step[1], sim.now + step[2])
            # Sequence numbers too: a re-key draws one where a push would.
            self.batches.append([(e.time, e.priority, e.seq, e.tag) for e in batch])
            queue.reinject(batch)

    def state(self) -> tuple:
        queue = self.sim._queue
        try:
            head = queue.peek_time()
        except SimulationError:
            head = None
        return (
            [(timer.pending, timer.expires_at) for timer in self.timers],
            len(queue),
            self.sim.pending_events,
            head,
            self.sim.now,
            list(self.recorder.log),
            list(self.batches),
        )


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(STEP, max_size=30),
    reactions=st.lists(st.lists(REACTION, max_size=6), min_size=TIMERS, max_size=TIMERS),
)
def test_rekeying_timer_dispatches_like_cancel_and_push(steps, reactions):
    rekeying = _Run(Timer, reactions)
    oracle = _Run(CancelAndPushTimer, reactions)
    for step in steps:
        rekeying.apply(step)
        oracle.apply(step)
        assert rekeying.state() == oracle.state(), step
    rekeying.sim.run()
    oracle.sim.run()
    assert rekeying.recorder.log == oracle.recorder.log
    assert rekeying.sim.events_processed == oracle.sim.events_processed
    assert rekeying.state() == oracle.state()


def test_later_restart_moves_the_queued_event_and_allocates_nothing():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now), tag="test")
    timer.start(1.0)
    slot = timer._slot
    first_seq = slot.seq
    timer.start(2.0)
    queue = sim._queue
    assert timer._slot is slot and slot.seq > first_seq
    assert len(queue._heap) == 1 and queue.tombstones == 0
    assert timer.expires_at == 2.0
    sim.run()
    assert fired == [2.0]


def test_stale_entry_is_resifted_behind_what_it_passed():
    # Re-keyed past a plain event, and tied with one scheduled before
    # the restart: both run first, as a freshly pushed event would let them.
    sim = Simulator()
    order = []
    timer = sim.timer(lambda: order.append("timer"), tag="test")
    timer.start(1.0)
    sim.call_at(1.5, lambda: order.append("passed"), tag="test")
    sim.call_at(2.0, lambda: order.append("tied"), tag="test")
    timer.start(2.0)
    sim.run()
    assert order == ["passed", "tied", "timer"]


def test_earlier_restart_takes_a_new_slot_and_leaves_a_tombstone():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now), tag="test")
    timer.start(2.0)
    slot = timer._slot
    timer.start(1.0)
    assert timer._slot is not slot and slot.cancelled
    assert sim._queue.tombstones == 1 and sim.pending_events == 1
    sim.run()
    assert fired == [1.0]


def test_cancelled_timer_restarted_later_revives_its_tombstone():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now), tag="test")
    timer.start(1.0)
    slot = timer._slot
    timer.cancel()
    assert not timer.pending and sim._queue.tombstones == 1
    timer.start(1.5)
    assert timer._slot is slot and timer.pending
    assert sim._queue.tombstones == 0 and sim.pending_events == 1
    sim.run()
    assert fired == [1.5]


def test_compaction_rebuilds_a_stale_entry_under_its_current_key():
    queue = EventQueue()
    timed = queue.push(1.0, lambda: None, tag="test")
    queue.rekey(timed, 5.0)
    burst = [queue.push(2.0, lambda: None, tag="test") for _ in range(256)]
    for event in burst:
        event.cancel()
    assert queue.tombstones == 0  # the 256th cancel compacted
    assert queue._heap == [(5.0, timed.priority, timed.seq, timed)]
    assert queue.pop() is timed


def test_rekey_rejects_an_event_off_the_heap_or_an_earlier_time():
    queue = EventQueue()
    event = queue.push(2.0, lambda: None, tag="test")
    with pytest.raises(SimulationError):
        queue.rekey(event, 1.0)
    assert queue.pop() is event
    with pytest.raises(SimulationError):
        queue.rekey(event, 3.0)
