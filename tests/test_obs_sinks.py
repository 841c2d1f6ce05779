"""The stream's JSONL file: one canonical line per record, and a close
that can be called twice."""

import json

from repro.obs import StreamPublisher
from repro.telemetry import Telemetry
from repro.telemetry.exporters import (
    event_record,
    instrument_record,
    run_record,
    sample_record,
)


def _telemetry():
    telemetry = Telemetry()
    telemetry.run_info = {"scenario": "hand-built", "seed": 1}
    series = telemetry.registry.series("flow.rate", flow=1)
    series.record(1.0, 50.0)
    series.record(2.0, 60.0)
    telemetry.event(1.5, "gmp.adjust", flow=1)
    return telemetry, series


def test_jsonl_sink_writes_canonical_lines(tmp_path):
    path = tmp_path / "stream.jsonl"
    telemetry, series = _telemetry()
    publisher = StreamPublisher(telemetry, str(path))
    publisher.on_tick(2.0)
    publisher.close(3.0)

    event = telemetry.events[0]
    records = [
        {"record": "stream_open", "interval": publisher.interval},
        sample_record(series, 1.0, 50.0),
        sample_record(series, 2.0, 60.0),
        event_record(event),
        run_record(telemetry.run_info),
        instrument_record(series),
        {"record": "stream_close", "t": 3.0, "flushes": 1, "records": 7},
    ]
    lines = path.read_text().splitlines()
    assert lines == [json.dumps(record, default=str) for record in records]
    assert publisher.records_streamed == 7


def test_jsonl_sink_close_is_idempotent(tmp_path):
    path = tmp_path / "s.jsonl"
    publisher = StreamPublisher(_telemetry()[0], str(path))
    publisher.close(1.0)
    written = path.read_text()
    publisher.close(2.0)  # second close must not raise
    assert path.read_text() == written
    assert publisher.closed
