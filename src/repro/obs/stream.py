"""Streaming telemetry publisher: the one writer of a run's JSONL file.

The :class:`StreamPublisher` writes a run's in-memory
:class:`~repro.telemetry.Telemetry` to a JSONL file *while the run is
in flight* (``--metrics-out PATH``).  It is a
:class:`~repro.scenarios.runner.RunMonitor`: the kernel ticks it
between event dispatches each time the simulated clock crosses
:data:`STREAM_INTERVAL`, and on each tick it writes every series point
and telemetry event recorded since the previous tick, then flushes the
file.  Records are built by the constructors in
:mod:`repro.telemetry.exporters` and encoded once each.

Lifecycle:

* ``bind(session)`` — the file is truncated and gets a ``stream_open``
  record.  The Session binds its monitors only once the run is
  validated and assembled, so a refused run writes no file;
* ``close(session)`` (clean end of run) — write the incremental tail,
  the final ``run`` header and one snapshot record per instrument in
  the canonical order, then ``stream_close``.  Reordered by series, a
  closed stream is the canonical record layout byte for byte (pinned
  by ``tests/test_obs_stream.py``).
* ``on_abort(now, error)`` (the run raised: a kernel watchdog, say) —
  the same tail plus a ``stream_abort`` record, partial snapshots and
  the tail of the replay sanitizer's event journal, so a wedged run
  leaves behind both its telemetry and the last events it dispatched
  before dying.

The publisher only ever *reads* simulator state; it schedules nothing
and draws no randomness, so streaming leaves the dispatched event
sequence and the replay digest bit-identical.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ConfigError
from repro.sim.replay import JournalEntry
from repro.telemetry import Telemetry
from repro.telemetry.exporters import (
    event_record,
    instrument_record,
    run_record,
    sample_record,
)
from repro.telemetry.registry import Series, stable_instrument_key

#: Simulated seconds between flushes.
STREAM_INTERVAL = 1.0
#: Replay-journal entries included in an abort dump.
ABORT_JOURNAL_TAIL = 50

#: ``json.dumps(record, default=str)`` without building an encoder per call.
_encode = json.JSONEncoder(default=str).encode


class StreamPublisher:
    """Stream one run's telemetry to a JSONL file.

    Args:
        telemetry: the run's telemetry instance.
        path: the JSONL file; truncated when the run binds the stream.
    """

    interval = STREAM_INTERVAL

    def __init__(self, telemetry: Telemetry, path: str) -> None:
        if telemetry is None:
            raise ConfigError("streaming needs a Telemetry instance")
        self.telemetry = telemetry
        self.path = path
        self._handle: Any = None
        self._series_cursors: dict[Any, int] = {}
        self._event_cursor = 0
        self._sanitizer: Any = None
        self.flushes = 0
        self.records_streamed = 0
        self.closed = False
        self.aborted = False

    def _emit(self, record: dict[str, Any]) -> None:
        self._handle.write(_encode(record) + "\n")
        self.records_streamed += 1

    def _flush_increments(self) -> None:
        """Write every series point and event recorded since the last
        flush."""
        for instrument in self.telemetry.registry.instruments():
            if not isinstance(instrument, Series):
                continue
            key = stable_instrument_key(instrument)
            times, values = instrument.times, instrument.values
            for index in range(self._series_cursors.get(key, 0), len(times)):
                self._emit(sample_record(instrument, times[index], values[index]))
            self._series_cursors[key] = len(times)
        events = self.telemetry.events
        for index in range(self._event_cursor, len(events)):
            self._emit(event_record(events[index]))
        self._event_cursor = len(events)

    def _snapshots(self, info: dict[str, Any]) -> None:
        """The ``run`` header and one snapshot per instrument."""
        self._emit(run_record(info))
        for instrument in self.telemetry.registry.instruments():
            self._emit(instrument_record(instrument))
        if self.telemetry.events_dropped:
            self._emit(
                {"record": "events_dropped", "count": self.telemetry.events_dropped}
            )

    # --- RunMonitor hooks --------------------------------------------------

    def bind(self, session: Any) -> None:
        """Open the file and write ``stream_open``.

        Raises:
            ConfigError: if the file cannot be written.
        """
        try:
            self._handle = open(self.path, "w", encoding="utf-8")
        except OSError as error:
            raise ConfigError(f"cannot write telemetry to {self.path}: {error}") from None
        self._sanitizer = session.sanitizer
        self._emit({"record": "stream_open", "interval": self.interval})

    def on_tick(self, now: float) -> None:
        """Write the increments, make them durable."""
        if self.closed:
            return
        self._flush_increments()
        self.flushes += 1
        self._handle.flush()

    def on_abort(self, now: float, error: BaseException) -> None:
        """The run raised — dump everything we have.

        Writes the incremental tail, a ``stream_abort`` marker, the
        final partial snapshots, and the tail of the replay journal
        (when a sanitizer is attached), then closes the file.  The
        stream cannot be reconstructed into a clean run's layout — the
        run never finished — but every record up to the abort is on
        disk when the run's error propagates.
        """
        if self.closed:
            return
        self._flush_increments()
        self._emit({"record": "stream_abort", "t": now, "error": str(error)})
        # Close open dwell intervals so histogram snapshots are honest
        # about the time actually covered.
        self.telemetry.finalize(now)
        self._snapshots({**self.telemetry.run_info, "aborted": True})
        journal = getattr(self._sanitizer, "journal", None)
        if journal:
            first = max(len(journal) - ABORT_JOURNAL_TAIL, 0)
            for index, fields in enumerate(journal[first:], first):
                entry = JournalEntry(*fields)
                self._emit(
                    {
                        "record": "journal",
                        "index": index,
                        "t": entry.time,
                        "tag": entry.tag,
                        "digest": entry.digest,
                    }
                )
        self.aborted = True
        self._finish()

    def close(self, session: Any) -> None:
        """End of a clean run: write the tail, the final header and
        snapshot block, and ``stream_close`` at ``session.now``; close
        the file.

        Called *after* ``telemetry.finalize`` and after ``run_info`` has
        its final fields, so the header and snapshots are final.
        """
        if self.closed:
            return
        self._flush_increments()
        self._snapshots(dict(self.telemetry.run_info))
        self._emit(
            {
                "record": "stream_close",
                "t": session.now,
                "flushes": self.flushes,
                "records": self.records_streamed + 1,
            }
        )
        self._finish()

    def _finish(self) -> None:
        self.closed = True
        self._handle.close()
