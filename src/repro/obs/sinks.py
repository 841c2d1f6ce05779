"""Streaming telemetry sinks.

A :class:`TelemetrySink` consumes JSON-plain *records* — the same
dict-shaped lines :func:`repro.telemetry.exporters.write_metrics_jsonl`
emits — incrementally while a run is still in flight, so a killed or
wedged run leaves its telemetry on disk instead of losing it with the
in-memory registry.  Two backends:

* :class:`JsonlSink` — append-mode JSONL file; every flush pushes the
  buffered lines through the OS so a SIGKILL loses at most one flush
  interval of data;
* :class:`SqliteSink` — one SQLite table, append-safe across runs: the
  same database file accumulates multiple runs, each stamped with a
  monotonically increasing run sequence number.

Sinks are fed by :class:`repro.obs.stream.StreamPublisher`, which is
paced by the kernel's monitor hook — sinks themselves never see the
simulator and cannot perturb it.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Any

from repro.errors import ConfigError


class TelemetrySink:
    """Interface: accept records, make them durable on flush."""

    def write(self, record: dict[str, Any]) -> None:
        """Accept one JSON-plain record."""
        raise NotImplementedError

    def flush(self) -> None:
        """Make every accepted record durable (no-op where moot)."""

    def close(self) -> None:
        """Flush and release resources; further writes are an error."""
        self.flush()


def encode_record(record: dict[str, Any]) -> str:
    """The one canonical serialization every sink shares — identical
    to the end-of-run JSONL exporter's, so a streamed line is
    byte-identical to its exported twin."""
    return json.dumps(record, default=str)


class JsonlSink(TelemetrySink):
    """Append records to a JSONL file as they arrive.

    The file is opened in append mode, so pointing two consecutive
    runs at the same path concatenates their streams (each run carries
    its own ``run`` header record).
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._handle = open(self.path, "a", encoding="utf-8")
        self.records_written = 0

    def write(self, record: dict[str, Any]) -> None:
        self._handle.write(encode_record(record) + "\n")
        self.records_written += 1

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()


class SqliteSink(TelemetrySink):
    """Stream records into one SQLite table.

    Schema: ``records(seq, run, t, kind, payload)`` where ``payload``
    is the canonical JSON line, ``kind`` its ``record`` discriminator,
    and ``run`` a per-database run counter assigned at sink creation —
    reopening the same path for a second run appends under the next
    run number instead of clobbering the first.

    Writes buffer in memory; :meth:`flush` commits one transaction, so
    the periodic kernel-paced flush bounds both transaction rate and
    the window of loss on a kill.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS records ("
            " seq INTEGER PRIMARY KEY AUTOINCREMENT,"
            " run INTEGER NOT NULL,"
            " t REAL,"
            " kind TEXT NOT NULL,"
            " payload TEXT NOT NULL)"
        )
        row = self._conn.execute("SELECT MAX(run) FROM records").fetchone()
        self.run = (row[0] or 0) + 1
        self._pending: list[tuple[int, float | None, str, str]] = []
        self.records_written = 0
        self._closed = False

    def write(self, record: dict[str, Any]) -> None:
        if self._closed:
            raise ConfigError(f"sqlite sink {self.path} is closed")
        time = record.get("t")
        self._pending.append(
            (
                self.run,
                float(time) if isinstance(time, (int, float)) else None,
                str(record.get("record", "?")),
                encode_record(record),
            )
        )
        self.records_written += 1

    def flush(self) -> None:
        if self._closed or not self._pending:
            return
        self._conn.executemany(
            "INSERT INTO records (run, t, kind, payload) VALUES (?, ?, ?, ?)",
            self._pending,
        )
        self._conn.commit()
        self._pending.clear()

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._conn.close()
        self._closed = True
