"""Event objects and the pending-event heap.

Events are ordered by ``(time, priority, sequence)``.  The sequence
number makes ordering total and FIFO among simultaneous equal-priority
events, which keeps runs reproducible regardless of heap internals.

The heap stores ``(time, priority, seq, event)`` tuples so ordering
comparisons run at C speed and never touch the event's callback.
Cancellation is lazy: a cancelled event stays in the heap as a
*tombstone* (making :meth:`Event.cancel` O(1)) and is discarded when it
reaches the top, or in bulk when tombstones outnumber live events
(:meth:`EventQueue._compact`); a tombstone count keeps ``len`` and
truthiness O(1) instead of scanning the heap.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError

#: Default event priority.  Lower runs first among simultaneous events.
DEFAULT_PRIORITY = 0

#: Compaction trigger: rebuild the heap once at least this many
#: tombstones accumulate *and* they outnumber the live events.
_COMPACT_MIN_TOMBSTONES = 256


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Attributes:
        time: absolute simulation time (seconds) at which to fire.
        priority: tie-breaker among simultaneous events (lower first).
        seq: insertion sequence number; makes ordering total.
        callback: zero-argument callable invoked when the event fires.
        cancelled: set via :meth:`cancel`; cancelled events are skipped.
        tag: free-form label used by traces and debugging.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    tag: str = field(default="", compare=False)
    #: Owning queue, so cancellation can maintain the tombstone count.
    _queue: "EventQueue | None" = field(
        default=None, init=False, compare=False, repr=False
    )
    #: True while the event sits in its owner's heap.
    _in_heap: bool = field(default=False, init=False, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._in_heap and self._queue is not None:
                self._queue._note_cancel()

    @property
    def active(self) -> bool:
        """True if the event has not been cancelled."""
        return not self.cancelled


class EventQueue:
    """A heap of pending :class:`Event` objects.

    Cancelled events stay in the heap as tombstones and are lazily
    discarded when popped (or compacted away in bulk), which makes
    :meth:`Event.cancel` O(1) and ``len``/truthiness O(1).
    """

    __slots__ = ("_heap", "_counter", "_tombstones")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._tombstones = 0

    def __len__(self) -> int:
        return len(self._heap) - self._tombstones

    def __bool__(self) -> bool:
        return len(self._heap) > self._tombstones

    @property
    def tombstones(self) -> int:
        """Cancelled events currently occupying heap slots."""
        return self._tombstones

    def push(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = DEFAULT_PRIORITY,
        tag: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return the event."""
        seq = next(self._counter)
        event = Event(time, priority, seq, callback, False, tag)
        event._queue = self
        event._in_heap = True
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def repush(self, event: Event, time: float) -> Event:
        """Re-arm a previously popped event at ``time`` with a fresh
        sequence number (the *slot* pattern for recurring timers: the
        Event object is reused instead of allocated per firing).

        Raises:
            SimulationError: if the event still sits in the heap.
        """
        if event._in_heap:
            raise SimulationError("repush of an event still in the heap")
        event.time = time
        event.seq = next(self._counter)
        event.cancelled = False
        event._queue = self
        event._in_heap = True
        heapq.heappush(self._heap, (time, event.priority, event.seq, event))
        return event

    def reinject(self, events: "list[Event]") -> None:
        """Return already-popped events to the heap *unchanged* (same
        sequence numbers), preserving their original dispatch order.
        The kernel no longer calls this or :meth:`pop_batch`; both stay
        because ``benchmarks/e2e/child.py`` patches them by name."""
        for event in events:
            event._in_heap = True
            if event.cancelled:
                self._tombstones += 1
            heapq.heappush(
                self._heap, (event.time, event.priority, event.seq, event)
            )

    def peek_time(self) -> float:
        """Time of the earliest active event.

        Raises:
            SimulationError: if the queue holds no active events.
        """
        self._discard_cancelled()
        if not self._heap:
            raise SimulationError("peek on an empty event queue")
        return self._heap[0][0]

    def pop(self) -> Event:
        """Remove and return the earliest active event.

        Raises:
            SimulationError: if the queue holds no active events.
        """
        event = self.pop_next()
        if event is None:
            raise SimulationError("pop on an empty event queue")
        return event

    def pop_next(self, until: float | None = None) -> Event | None:
        """Remove and return the earliest active event, or ``None`` when
        there is none (queue drained, or — with ``until`` given — every
        remaining event lies beyond it).  Tombstones met on the way are
        discarded."""
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                heapq.heappop(heap)
                event._in_heap = False
                self._tombstones -= 1
                continue
            if until is not None and entry[0] > until:
                return None
            heapq.heappop(heap)
            event._in_heap = False
            return event
        return None

    def pop_batch(self, limit: int, until: float | None = None) -> "list[Event]":
        """Remove and return up to ``limit`` earliest active events, all
        with ``time <= until`` when ``until`` is given.

        Returns an empty list when no active event is eligible (queue
        drained, or every remaining event lies beyond ``until``).
        """
        heap = self._heap
        pop = heapq.heappop
        batch: list[Event] = []
        append = batch.append
        count = 0
        while heap and count < limit:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                pop(heap)
                event._in_heap = False
                self._tombstones -= 1
                continue
            if until is not None and entry[0] > until:
                break
            pop(heap)
            event._in_heap = False
            append(event)
            count += 1
        return batch

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[3]._in_heap = False
        self._heap.clear()
        self._tombstones = 0

    def _note_cancel(self) -> None:
        """An in-heap event was cancelled: count the tombstone and
        compact once tombstones dominate the heap."""
        self._tombstones += 1
        if (
            self._tombstones >= _COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (amortized O(n))."""
        kept: list[tuple[float, int, int, Event]] = []
        for entry in self._heap:
            if entry[3].cancelled:
                entry[3]._in_heap = False
            else:
                kept.append(entry)
        heapq.heapify(kept)
        self._heap = kept
        self._tombstones = 0

    def _discard_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            event = heapq.heappop(heap)[3]
            event._in_heap = False
            self._tombstones -= 1
