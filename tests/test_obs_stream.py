"""Streaming must be passive and lossless: an instrumented run keeps
the golden dispatched-event count and replay digest, and a closed
stream reconstructs byte-for-byte into the canonical record layout."""

import json

import pytest

from repro.errors import ConfigError, SimulationError
from repro.obs import StreamPublisher
from repro.scenarios.spec import RunSpec
from repro.sim.replay import ReplaySanitizer
from repro.telemetry import Telemetry

from helpers import iter_metric_records, jsonl_text, reconstruct_jsonl

#: Same golden count as tests/test_telemetry_overhead.py: figure3,
#: gmp, fluid, 30 s, seed 1, captured before telemetry existed.
GOLDEN_EVENTS = 42546


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


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


def test_stream_requires_enabled_telemetry(tmp_path):
    with pytest.raises(ConfigError):
        StreamPublisher(Telemetry(enabled=False), str(tmp_path / "m.jsonl"))


def test_stream_requires_a_writable_path(tmp_path):
    with pytest.raises(ConfigError, match="cannot write telemetry"):
        StreamPublisher(Telemetry(), str(tmp_path / "missing" / "m.jsonl"))


def test_stream_truncates_at_open_and_closes_once(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text("an earlier run\n")
    telemetry = Telemetry()
    telemetry.run_info = {"scenario": "empty"}
    publisher = StreamPublisher(telemetry, str(path))
    publisher.close(1.0)
    publisher.close(2.0)  # a second close writes nothing and does not raise
    kinds = [record["record"] for record in _records(path)]
    assert kinds == ["stream_open", "run", "stream_close"]


# ---------------------------------------------------------------- passivity


def test_streaming_and_health_preserve_golden_run(tmp_path):
    from repro.obs import HealthMonitor

    plain = _run(sanitizer=ReplaySanitizer())
    telemetry = Telemetry()
    instrumented = _run(
        telemetry=telemetry,
        stream=StreamPublisher(telemetry, str(tmp_path / "m.jsonl")),
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
    path = tmp_path / "m.jsonl"
    publisher = StreamPublisher(telemetry, str(path))
    _run(telemetry=telemetry, stream=publisher, duration=10.0, rate_interval=1.0)
    assert publisher.closed and not publisher.aborted
    assert publisher.flushes >= 9  # one per simulated second

    streamed = _records(path)
    assert [streamed[0]["record"], streamed[-1]["record"]] == ["stream_open", "stream_close"]
    assert streamed[-1]["records"] == len(streamed) == publisher.records_streamed
    # Every line is its record's one canonical encoding.
    assert jsonl_text(streamed) == path.read_text()
    assert reconstruct_jsonl(streamed) == jsonl_text(iter_metric_records(telemetry))


# ---------------------------------------------------------------- abort path


def test_watchdog_abort_flushes_partial_stream_and_journal(tmp_path):
    telemetry = Telemetry()
    path = tmp_path / "m.jsonl"
    publisher = StreamPublisher(telemetry, str(path))
    with pytest.raises(SimulationError):
        _run(
            telemetry=telemetry,
            stream=publisher,
            sanitizer=ReplaySanitizer(),
            rate_interval=1.0,
            max_events=5000,
        )
    assert publisher.aborted and publisher.closed

    records = _records(path)
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
