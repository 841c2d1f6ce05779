"""The behaviour fence: an event digest (L0) and an observable digest (L1).

The static pass (:mod:`repro.simcheck`) catches nondeterminism it can
see syntactically; this module is the dynamic backstop.  A
:class:`ReplaySanitizer` attached to the kernel folds every dispatched
event's ``(time, priority, tag)`` into a SHA-256 rolling digest — L0,
the event sequence; the tag is the event's identity, so renaming or
moving a handler leaves L0 unchanged — and journals those fields as
they are.  At the end of a run the runner hands it the digest of what
the run measured — L1, see ``Session._observables`` — which holds
across a change that dispatches fewer events for the same behaviour.
Running the same scenario twice and comparing sanitizers
(:func:`diff_sanitizers`) then either proves the runs agree on both
digests or names the first divergent event with its index, timestamp
and tag.

The sanitizer is strictly passive: it never schedules events, touches
the RNG registry, or reads wall clocks, so a sanitized run dispatches
exactly the same events as a bare one.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import NamedTuple

from repro.sim.event import Event

#: Journal cap: at ~100 bytes/event this bounds memory near 50 MB while
#: still locating divergence in any realistic scenario run.
DEFAULT_JOURNAL_LIMIT = 500_000

#: One event's L0 bytes: little-endian float64 time and int64 priority,
#: then the UTF-8 tag and a NUL.
_PACK = struct.Struct("<dq").pack


class JournalEntry(NamedTuple):
    """A journal entry's ``(time, priority, tag)``, named."""

    time: float
    priority: int
    tag: str

    @property
    def digest(self) -> str:
        """Short hash of the event's L0 bytes."""
        blob = _PACK(self.time, self.priority) + self.tag.encode() + b"\0"
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class Divergence:
    """The first event at which two sanitized runs disagree."""

    index: int
    first: JournalEntry | None  # None when run A ended early
    second: JournalEntry | None  # None when run B ended early

    def render(self) -> str:
        def side(entry: JournalEntry | None) -> str:
            if entry is None:
                return "<run ended>"
            return f"t={entry.time:.9f} tag={entry.tag}"

        return (
            f"event #{self.index}: run A {side(self.first)} vs "
            f"run B {side(self.second)}"
        )


class ReplaySanitizer:
    """Rolling L0 digest + journal of every dispatched event, and the
    run's L1 digest once the runner sets :attr:`observable`."""

    def __init__(
        self, *, journal_limit: int | None = DEFAULT_JOURNAL_LIMIT
    ) -> None:
        self._rolling = hashlib.sha256()
        self._update = self._rolling.update
        self.events = 0
        #: ``(time, priority, tag)`` per event, up to the limit.
        self.journal: list[tuple[float, int, str]] = []
        self.journal_limit = journal_limit
        self.journal_dropped = 0
        #: L1 digest of what the run measured (None until it ends).
        self.observable: str | None = None

    def observe(self, event: Event) -> None:
        """Fold one dispatched event into the digest (kernel hook)."""
        time, priority, tag = event.time, event.priority, event.tag
        self._update(_PACK(time, priority) + tag.encode() + b"\0")
        limit = self.journal_limit
        if limit is None or self.events < limit:
            self.journal.append((time, priority, tag))
        else:
            self.journal_dropped += 1
        self.events += 1

    def hexdigest(self) -> str:
        """L0 digest of everything observed so far."""
        return self._rolling.hexdigest()


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of comparing two sanitized runs of one scenario."""

    matched: bool
    digest_first: str
    digest_second: str
    observable_first: str | None
    observable_second: str | None
    events_first: int
    events_second: int
    divergence: Divergence | None
    journal_truncated: bool

    def render(self) -> str:
        observables = self.observable_first is not None
        if self.matched:
            text = (
                f"replay check passed: {self.events_first} events, "
                f"L0 digest {self.digest_first[:16]}…"
            )
            if observables:
                text += f", L1 digest {self.observable_first[:16]}…"
            return text
        lines = [
            "replay check FAILED: runs diverged",
            f"  L0 digests: {self.digest_first[:16]}… vs "
            f"{self.digest_second[:16]}…",
        ]
        if observables:
            lines.append(
                f"  L1 digests: {self.observable_first[:16]}… vs "
                f"{(self.observable_second or '')[:16]}…"
            )
        lines.append(f"  events:  {self.events_first} vs {self.events_second}")
        if self.divergence is not None:
            lines.append(f"  first divergence: {self.divergence.render()}")
        elif self.journal_truncated:
            lines.append(
                "  first divergence beyond the journal limit "
                "(raise journal_limit to locate it)"
            )
        return "\n".join(lines)


def diff_sanitizers(
    first: ReplaySanitizer, second: ReplaySanitizer
) -> ReplayReport:
    """Compare two sanitized runs on both digests; locate the first
    divergent event."""
    same_events = (
        first.hexdigest() == second.hexdigest()
        and first.events == second.events
    )
    divergence: Divergence | None = None
    truncated = bool(first.journal_dropped or second.journal_dropped)
    if not same_events:
        journal_a, journal_b = first.journal, second.journal
        for index in range(max(len(journal_a), len(journal_b))):
            entry_a = journal_a[index] if index < len(journal_a) else None
            entry_b = journal_b[index] if index < len(journal_b) else None
            if entry_a != entry_b:
                divergence = Divergence(
                    index=index,
                    first=None if entry_a is None else JournalEntry(*entry_a),
                    second=None if entry_b is None else JournalEntry(*entry_b),
                )
                break
    return ReplayReport(
        matched=same_events and first.observable == second.observable,
        digest_first=first.hexdigest(),
        digest_second=second.hexdigest(),
        observable_first=first.observable,
        observable_second=second.observable,
        events_first=first.events,
        events_second=second.events,
        divergence=divergence,
        journal_truncated=truncated,
    )


__all__ = [
    "DEFAULT_JOURNAL_LIMIT",
    "Divergence",
    "JournalEntry",
    "ReplayReport",
    "ReplaySanitizer",
    "diff_sanitizers",
]
