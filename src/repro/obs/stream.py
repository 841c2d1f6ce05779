"""Streaming telemetry publisher.

The :class:`StreamPublisher` bridges a run's in-memory
:class:`~repro.telemetry.Telemetry` to durable
:class:`~repro.obs.sinks.TelemetrySink` backends *while the run is in
flight*.  It implements the kernel's
:class:`~repro.sim.kernel.RunMonitor` protocol: the simulator ticks it
between event dispatches each time the simulated clock crosses its
``interval``, and on each tick it emits every series point and
telemetry event recorded since the previous tick, then flushes the
sinks.  Records are built by the exact same constructors the JSONL
exporter uses (:mod:`repro.telemetry.exporters`), so a streamed line
is byte-identical to the line the end-of-run export would have
written.

Lifecycle:

* ``close(now)`` (clean end of run) — flush the incremental tail, then
  write the final ``run`` header and one snapshot record per
  instrument in the canonical export order, so the stream carries
  everything :func:`~repro.telemetry.exporters.write_metrics_jsonl`
  would; reordered by series, a closed stream is byte-identical to
  the exporter's layout (pinned by ``tests/test_obs_stream.py``).
* ``on_abort(now, error)`` (kernel watchdog tripped) — same flush plus
  a ``stream_abort`` record and the tail of the replay sanitizer's
  event journal, so a wedged run leaves behind both its telemetry and
  the last events it dispatched before dying.

The publisher only ever *reads* simulator state; it schedules nothing
and draws no randomness, so streaming leaves the dispatched event
sequence and the replay digest bit-identical.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.errors import ConfigError
from repro.obs.sinks import TelemetrySink
from repro.sim.replay import JournalEntry
from repro.telemetry import Telemetry
from repro.telemetry.exporters import (
    event_record,
    instrument_record,
    run_record,
    sample_record,
)
from repro.telemetry.registry import Series, stable_instrument_key

#: Replay-journal entries included in an abort dump.
ABORT_JOURNAL_TAIL = 50


class StreamPublisher:
    """Incrementally publish one run's telemetry to sinks.

    Args:
        telemetry: the run's (enabled) telemetry instance.
        sinks: one or more sinks; every record goes to all of them.
        interval: simulated seconds between flushes.
    """

    def __init__(
        self,
        telemetry: Telemetry,
        sinks: list[TelemetrySink] | TelemetrySink,
        *,
        interval: float = 1.0,
    ) -> None:
        if not telemetry.enabled:
            raise ConfigError("streaming needs an enabled Telemetry instance")
        if not 0 < interval < math.inf:
            raise ConfigError(
                f"stream interval must be positive and finite: {interval}"
            )
        self.telemetry = telemetry
        self.sinks = [sinks] if isinstance(sinks, TelemetrySink) else list(sinks)
        if not self.sinks:
            raise ConfigError("streaming needs at least one sink")
        self.interval = float(interval)
        self._series_cursors: dict[Any, int] = {}
        self._event_cursor = 0
        self._sanitizer: Any = None
        self.flushes = 0
        self.records_streamed = 0
        self.closed = False
        self.aborted = False
        self._emit({"record": "stream_open", "interval": self.interval})

    # --- plumbing ---------------------------------------------------------

    def _emit(self, record: dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.write(record)
        self.records_streamed += 1

    def bind(self, sim: Any) -> None:
        """Attach to a simulator as a passive run monitor."""
        sim.attach_monitor(self)
        self._sanitizer = getattr(sim, "sanitizer", None)

    # --- incremental flushing ---------------------------------------------

    def _flush_increments(self) -> int:
        """Emit every series point and event recorded since the last
        flush; returns the number of records emitted."""
        emitted = 0
        for instrument in self.telemetry.registry.instruments():
            if not isinstance(instrument, Series):
                continue
            key = stable_instrument_key(instrument)
            cursor = self._series_cursors.get(key, 0)
            for index in range(cursor, len(instrument.times)):
                self._emit(
                    sample_record(
                        instrument,
                        instrument.times[index],
                        instrument.values[index],
                    )
                )
                emitted += 1
            self._series_cursors[key] = len(instrument.times)
        events = self.telemetry.events
        for index in range(self._event_cursor, len(events)):
            self._emit(event_record(events[index]))
            emitted += 1
        self._event_cursor = len(events)
        return emitted

    # --- RunMonitor hooks --------------------------------------------------

    def on_tick(self, now: float) -> None:
        """Kernel hook: stream the increments, make them durable."""
        if self.closed:
            return
        self._flush_increments()
        self.flushes += 1
        for sink in self.sinks:
            sink.flush()

    def on_abort(self, now: float, error: BaseException) -> None:
        """Kernel hook: a watchdog tripped — dump everything we have.

        Emits the incremental tail, an ``stream_abort`` marker, the
        final partial snapshots, and the tail of the replay journal
        (when a sanitizer is attached), then closes the sinks.  The
        stream cannot be reconstructed into a clean export — the run
        never finished — but every byte recorded up to the abort is on
        disk when the watchdog error propagates.
        """
        if self.closed:
            return
        self._flush_increments()
        self._emit(
            {
                "record": "stream_abort",
                "t": now,
                "error": str(error),
            }
        )
        # Close open dwell intervals so histogram snapshots are honest
        # about the time actually covered.
        self.telemetry.finalize(now)
        info = dict(self.telemetry.run_info)
        info["aborted"] = True
        self._emit(run_record(info))
        for instrument in self.telemetry.registry.instruments():
            self._emit(instrument_record(instrument))
        if self.telemetry.events_dropped:
            self._emit(
                {"record": "events_dropped", "count": self.telemetry.events_dropped}
            )
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

    # --- clean shutdown ----------------------------------------------------

    def close(self, now: float) -> None:
        """End of a clean run: flush the tail, write the final header
        and snapshot block, close the sinks.

        Call *after* ``telemetry.finalize`` and after ``run_info`` has
        its final fields, so the streamed header and snapshots carry
        exactly what the end-of-run export would.
        """
        if self.closed:
            return
        self._flush_increments()
        self._emit(run_record(dict(self.telemetry.run_info)))
        for instrument in self.telemetry.registry.instruments():
            self._emit(instrument_record(instrument))
        if self.telemetry.events_dropped:
            self._emit(
                {"record": "events_dropped", "count": self.telemetry.events_dropped}
            )
        self._emit(
            {
                "record": "stream_close",
                "t": now,
                "flushes": self.flushes,
                "records": self.records_streamed + 1,
            }
        )
        self._finish()

    def _finish(self) -> None:
        self.closed = True
        for sink in self.sinks:
            sink.close()
