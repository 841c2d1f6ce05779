"""Streaming sink backends: JSONL append, bounded ring, SQLite runs."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs import JsonlSink, SqliteSink
from repro.obs.sinks import encode_record

from helpers import RingSink, sqlite_records


def _record(i, kind="sample"):
    return {"record": kind, "t": float(i), "name": "x", "v": i * 1.5}


# ---------------------------------------------------------------- jsonl


def test_jsonl_sink_writes_canonical_lines(tmp_path):
    path = tmp_path / "stream.jsonl"
    sink = JsonlSink(str(path))
    records = [_record(i) for i in range(3)]
    for record in records:
        sink.write(record)
    sink.close()

    lines = path.read_text().splitlines()
    assert lines == [encode_record(r) for r in records]
    assert sink.records_written == 3


def test_jsonl_sink_append_mode_concatenates_runs(tmp_path):
    path = tmp_path / "stream.jsonl"
    first = JsonlSink(str(path))
    first.write(_record(0, kind="run"))
    first.close()
    second = JsonlSink(str(path))
    second.write(_record(1, kind="run"))
    second.close()

    kinds = [json.loads(line)["record"] for line in path.read_text().splitlines()]
    assert kinds == ["run", "run"]


def test_jsonl_sink_close_is_idempotent(tmp_path):
    sink = JsonlSink(str(tmp_path / "s.jsonl"))
    sink.write(_record(0))
    sink.close()
    sink.close()  # second close must not raise


# ---------------------------------------------------------------- ring


def test_ring_sink_keeps_newest_and_counts_drops():
    sink = RingSink(capacity=3)
    for i in range(5):
        sink.write(_record(i))
    kept = [r["t"] for r in sink.records()]
    assert kept == [2.0, 3.0, 4.0]
    assert sink.dropped == 2
    assert sink.records_written == 5


def test_ring_sink_rejects_nonpositive_capacity():
    with pytest.raises(ConfigError):
        RingSink(capacity=0)


# ---------------------------------------------------------------- sqlite


def test_sqlite_sink_round_trips_records(tmp_path):
    path = tmp_path / "stream.db"
    sink = SqliteSink(str(path))
    records = [_record(i) for i in range(4)]
    for record in records:
        sink.write(record)
    sink.flush()
    assert sqlite_records(str(path), run=1) == records
    sink.close()


def test_sqlite_sink_reopen_appends_next_run(tmp_path):
    path = str(tmp_path / "stream.db")
    first = SqliteSink(path)
    assert first.run == 1
    first.write(_record(0))
    first.close()

    second = SqliteSink(path)
    assert second.run == 2
    second.write(_record(1))
    second.write(_record(2))
    second.close()

    assert [r["t"] for r in sqlite_records(path, run=1)] == [0.0]
    assert [r["t"] for r in sqlite_records(path, run=2)] == [1.0, 2.0]
    assert len(sqlite_records(path)) == 3


def test_sqlite_sink_write_after_close_raises(tmp_path):
    sink = SqliteSink(str(tmp_path / "stream.db"))
    sink.close()
    with pytest.raises(ConfigError):
        sink.write(_record(0))


def test_sqlite_sink_flush_bounds_durability(tmp_path):
    path = str(tmp_path / "stream.db")
    sink = SqliteSink(path)
    sink.write(_record(0))
    # Unflushed writes are pending only: a second connection sees nothing.
    assert sqlite_records(path) == []
    sink.flush()
    assert [r["t"] for r in sqlite_records(path)] == [0.0]
    sink.close()


def test_sqlite_sink_cross_thread_reader_sees_committed_rows(tmp_path):
    """A reader on another thread, on its own connection, observes only
    committed records: whole flushed batches, in insert order."""
    import threading

    path = str(tmp_path / "stream.db")
    sink = SqliteSink(path)
    stop = threading.Event()
    seen = []
    errors = []

    def reader():
        while not stop.is_set():
            try:
                rows = sqlite_records(path)
            except Exception as error:  # pragma: no cover - the failure
                errors.append(error)
                return
            assert [r["t"] for r in rows] == sorted(r["t"] for r in rows)
            seen.append(len(rows))

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    for i in range(50):
        sink.write(_record(i))
        if i % 5 == 4:
            sink.flush()
    sink.flush()
    stop.set()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert not errors, errors[0]
    # Counts only grow, in whole batches, and the final flush is visible
    # to a fresh read.
    assert seen == sorted(seen)
    assert all(count % 5 == 0 for count in seen)
    assert len(sqlite_records(path)) == 50
    sink.close()


def test_sqlite_sink_records_after_close_reads_from_disk(tmp_path):
    path = str(tmp_path / "stream.db")
    sink = SqliteSink(path)
    for i in range(3):
        sink.write(_record(i))
    sink.close()
    # Closing commits the pending writes.
    assert [r["t"] for r in sqlite_records(path)] == [0.0, 1.0, 2.0]
