"""Unit tests for RNG streams and the telemetry event log's trace
categories and bound."""

from repro.sim.rng import RngRegistry
from repro.telemetry import Telemetry

from helpers import stream_file


def test_same_name_same_stream_object():
    registry = RngRegistry(seed=42)
    assert registry.stream("mac.node1") is registry.stream("mac.node1")


def test_streams_are_reproducible_across_registries():
    first = RngRegistry(seed=7).stream("x").random(10)
    second = RngRegistry(seed=7).stream("x").random(10)
    assert list(first) == list(second)


def test_different_seeds_differ():
    first = RngRegistry(seed=1).stream("x").random(10)
    second = RngRegistry(seed=2).stream("x").random(10)
    assert list(first) != list(second)


def test_different_names_differ():
    registry = RngRegistry(seed=1)
    first = registry.stream("a").random(10)
    second = registry.stream("b").random(10)
    assert list(first) != list(second)


def test_new_consumer_does_not_perturb_existing_stream():
    plain = RngRegistry(seed=3)
    baseline = plain.stream("mac").random(5).tolist()

    mixed = RngRegistry(seed=3)
    mixed.stream("other").random(100)  # extra consumer created first
    assert mixed.stream("mac").random(5).tolist() == baseline


def test_names_lists_created_streams():
    registry = RngRegistry()
    registry.stream("b")
    registry.stream("a")
    assert registry.names() == ["b", "a"]


def test_trace_disabled_drops_records():
    telemetry = Telemetry(enabled=False, trace_categories=["*"])
    assert not telemetry.wants("mac.tx")
    telemetry.event(1.0, "mac.tx", link=(0, 1))
    assert telemetry.events == []


def test_trace_collects_and_filters_by_category():
    telemetry = Telemetry()
    telemetry.event(1.0, "mac.tx", n=1)
    telemetry.event(2.0, "gmp.adjust", n=2)
    assert len(telemetry.events) == 2
    assert [event.fields["n"] for event in telemetry.events_in("mac.tx")] == [1]


def test_trace_category_whitelist_and_prefix():
    telemetry = Telemetry(trace_categories=["gmp.adjust", "mac.*"])
    wanted = [
        category
        for category in ("mac.tx", "mac.backoff", "gmp.adjust", "buffer.full", "channel.tx")
        if telemetry.wants(category)
    ]
    assert wanted == ["mac.tx", "mac.backoff", "gmp.adjust"]
    # No categories named: no opt-in category is wanted; "*" wants all.
    assert not Telemetry().wants("channel.tx")
    assert Telemetry(trace_categories=["*"]).wants("channel.tx")


def test_trace_limit_counts_drops_and_marks_truncation(tmp_path):
    telemetry = Telemetry(event_limit=3)
    for index in range(10):
        telemetry.event(float(index), "x", i=index)
    assert [event.fields["i"] for event in telemetry.events] == [0, 1, 2]
    assert telemetry.events_dropped == 7
    records = stream_file(tmp_path / "m.jsonl", telemetry)
    assert records[-2] == {"record": "events_dropped", "count": 7}
