"""Streaming must be passive and lossless: an instrumented run keeps
the golden dispatched-event count and replay digest, and a closed
stream reconstructs byte-for-byte into the end-of-run JSONL export."""

import json

import pytest

from repro.errors import ConfigError, SimulationError
from repro.obs import JsonlSink, SqliteSink, StreamPublisher
from repro.scenarios.spec import RunSpec
from repro.sim.replay import ReplaySanitizer
from repro.telemetry import Telemetry
from repro.telemetry.exporters import write_metrics_jsonl

from helpers import RingSink, reconstruct_jsonl, sqlite_records

#: Same golden count as tests/test_telemetry_overhead.py: figure3,
#: gmp, fluid, 30 s, seed 1, captured before telemetry existed.
GOLDEN_EVENTS = 42546


def _run(duration=30.0, rate_interval=None, **observers):
    return RunSpec(
        scenario="figure3",
        protocol="gmp",
        substrate="fluid",
        duration=duration,
        seed=1,
        rate_interval=rate_interval,
    ).run(**observers)


# ---------------------------------------------------------------- config


def test_stream_requires_enabled_telemetry():
    with pytest.raises(ConfigError):
        StreamPublisher(Telemetry(enabled=False), RingSink())


def test_stream_requires_a_sink_and_positive_interval():
    with pytest.raises(ConfigError):
        StreamPublisher(Telemetry(), [])
    with pytest.raises(ConfigError):
        StreamPublisher(Telemetry(), RingSink(), interval=0.0)


# ---------------------------------------------------------------- passivity


def test_streaming_and_health_preserve_golden_run():
    from repro.obs import HealthMonitor

    plain = _run(sanitizer=ReplaySanitizer())
    telemetry = Telemetry()
    instrumented = _run(
        telemetry=telemetry,
        stream=StreamPublisher(telemetry, RingSink()),
        health=HealthMonitor(deliveries=[]),
        sanitizer=ReplaySanitizer(),
    )
    assert plain.extras["events_processed"] == GOLDEN_EVENTS
    assert instrumented.extras["events_processed"] == GOLDEN_EVENTS
    assert instrumented.extras["replay_digest"] == plain.extras["replay_digest"]
    assert instrumented.flow_rates == plain.flow_rates


# ---------------------------------------------------------------- byte parity


def test_stream_reconstructs_byte_identical_export(tmp_path):
    telemetry = Telemetry()
    ring = RingSink()
    sqlite = SqliteSink(str(tmp_path / "stream.db"))
    jsonl = JsonlSink(str(tmp_path / "stream.jsonl"))
    publisher = StreamPublisher(telemetry, [ring, sqlite, jsonl])
    _run(telemetry=telemetry, stream=publisher, duration=10.0, rate_interval=1.0)
    assert publisher.closed and not publisher.aborted
    assert publisher.flushes >= 9  # one per simulated second

    export_path = tmp_path / "export.jsonl"
    write_metrics_jsonl(str(export_path), telemetry)
    exported = export_path.read_text()

    assert reconstruct_jsonl(ring.records()) == exported
    assert reconstruct_jsonl(sqlite_records(sqlite.path, run=1)) == exported
    streamed_lines = [
        json.loads(line)
        for line in (tmp_path / "stream.jsonl").read_text().splitlines()
    ]
    assert reconstruct_jsonl(streamed_lines) == exported


# ---------------------------------------------------------------- abort path


def test_watchdog_abort_flushes_partial_stream_and_journal(tmp_path):
    telemetry = Telemetry()
    ring = RingSink()
    publisher = StreamPublisher(telemetry, ring)
    with pytest.raises(SimulationError):
        _run(
            telemetry=telemetry,
            stream=publisher,
            sanitizer=ReplaySanitizer(),
            rate_interval=1.0,
            max_events=5000,
        )
    assert publisher.aborted and publisher.closed

    records = ring.records()
    kinds = [r.get("record") for r in records]
    assert "stream_abort" in kinds
    abort = next(r for r in records if r.get("record") == "stream_abort")
    assert "max_events" in abort["error"]

    header = next(r for r in records if r.get("record") == "run")
    assert header["aborted"] is True
    # Partial snapshots and the replay-journal tail made it out.
    assert any(r.get("record") == "series" for r in records)
    journal = [r for r in records if r.get("record") == "journal"]
    assert 0 < len(journal) <= 50
    assert journal[-1]["index"] > journal[0]["index"]

    with pytest.raises(ConfigError):
        reconstruct_jsonl(records)


def test_reconstruct_rejects_headerless_stream():
    with pytest.raises(ConfigError):
        reconstruct_jsonl([{"record": "stream_open", "interval": 1.0}])
