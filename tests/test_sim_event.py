"""Unit tests for the event queue."""

import pytest

from repro.errors import SimulationError
from repro.sim.event import EventQueue


def test_pop_returns_events_in_time_order():
    queue = EventQueue()
    fired = []
    queue.push(3.0, lambda: fired.append("c"), tag="test")
    queue.push(1.0, lambda: fired.append("a"), tag="test")
    queue.push(2.0, lambda: fired.append("b"), tag="test")
    while queue:
        queue.pop().callback()
    assert fired == ["a", "b", "c"]


def test_simultaneous_events_fire_in_insertion_order():
    queue = EventQueue()
    fired = []
    for name in "abcd":
        queue.push(5.0, lambda name=name: fired.append(name), tag="test")
    while queue:
        queue.pop().callback()
    assert fired == list("abcd")


def test_priority_breaks_ties_before_insertion_order():
    queue = EventQueue()
    fired = []
    queue.push(5.0, lambda: fired.append("low"), priority=10, tag="test")
    queue.push(5.0, lambda: fired.append("high"), priority=-10, tag="test")
    while queue:
        queue.pop().callback()
    assert fired == ["high", "low"]


def test_cancelled_events_are_skipped_and_uncounted():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None, tag="test")
    queue.push(2.0, lambda: None, tag="test")
    event.cancel()
    assert len(queue) == 1
    popped = queue.pop()
    assert popped.time == 2.0
    assert not queue


def test_cancel_is_idempotent():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None, tag="test")
    event.cancel()
    event.cancel()
    assert not event.active


def test_peek_time_reports_earliest_active():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None, tag="test")
    queue.push(4.0, lambda: None, tag="test")
    assert queue.peek_time() == 1.0
    first.cancel()
    assert queue.peek_time() == 4.0


def test_pop_empty_raises():
    queue = EventQueue()
    with pytest.raises(SimulationError):
        queue.pop()


def test_peek_empty_raises():
    queue = EventQueue()
    with pytest.raises(SimulationError):
        queue.peek_time()


def test_clear_drops_everything():
    queue = EventQueue()
    queue.push(1.0, lambda: None, tag="test")
    queue.push(2.0, lambda: None, tag="test")
    queue.clear()
    assert not queue
    assert len(queue) == 0
