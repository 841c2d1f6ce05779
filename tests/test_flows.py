"""Unit and property tests for flows, packets, and rate limiting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlowError
from repro.flows.flow import Flow, FlowSet
from repro.flows.packet import Packet
from repro.flows.rate_limiter import TokenBucket
from repro.flows.traffic import CbrSource
from repro.sim.kernel import Simulator


def make_flow(**overrides):
    defaults = dict(flow_id=1, source=0, destination=5)
    defaults.update(overrides)
    return Flow(**defaults)


def test_flow_defaults_match_paper_setup():
    flow = make_flow()
    assert flow.desired_rate == 800.0
    assert flow.packet_bytes == 1024
    assert flow.weight == 1.0


def test_flow_normalized_rate():
    flow = make_flow(weight=4.0)
    assert flow.normalized(200.0) == pytest.approx(50.0)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(source=5, destination=5),
        dict(weight=0.0),
        dict(weight=-1.0),
        dict(desired_rate=0.0),
        dict(packet_bytes=0),
    ],
)
def test_flow_validation(overrides):
    with pytest.raises(FlowError):
        make_flow(**overrides)


def test_flowset_basic_operations():
    flows = FlowSet([make_flow(flow_id=2), make_flow(flow_id=1, source=3)])
    assert len(flows) == 2
    assert [flow.flow_id for flow in flows] == [1, 2]
    assert 1 in flows
    assert flows.get(2).source == 0
    with pytest.raises(FlowError):
        flows.get(99)


def test_flowset_rejects_duplicates():
    flows = FlowSet([make_flow()])
    with pytest.raises(FlowError):
        flows.add(make_flow())


def test_flowset_queries():
    flows = FlowSet(
        [
            Flow(flow_id=1, source=0, destination=9),
            Flow(flow_id=2, source=0, destination=8),
            Flow(flow_id=3, source=4, destination=9),
        ]
    )
    assert [f.flow_id for f in flows.sourced_at(0)] == [1, 2]
    assert [f.flow_id for f in flows.destined_to(9)] == [1, 3]
    assert flows.destinations() == [8, 9]


def test_packet_sequence_numbers_are_unique():
    # The source numbers its flow's packets; an offer its room probe
    # refuses builds no packet and takes no number.
    sim = Simulator()
    packets = []
    offers = [0]

    def room(flow_id, dest):
        offers[0] += 1
        return offers[0] % 3 != 0

    CbrSource(
        sim,
        make_flow(flow_id=1, desired_rate=100.0),
        lambda packet: packets.append(packet) or True,
        room=room,
    ).start()
    sim.run(until=0.1)
    assert [packet.seq for packet in packets] == list(range(len(packets)))
    assert len(packets) == offers[0] - offers[0] // 3 > 5


def test_packet_delay():
    packet = Packet(flow_id=1, source=0, destination=1, size_bytes=10, created_at=2.0)
    assert packet.delay is None
    packet.delivered_at = 5.5
    assert packet.delay == pytest.approx(3.5)


def test_token_bucket_starts_full_and_drains():
    bucket = TokenBucket(rate=10.0, burst=1.0)
    assert bucket.try_consume(0.0)
    assert not bucket.try_consume(0.0)
    # After 0.1 s a new token is available.
    assert bucket.try_consume(0.1)


def test_token_bucket_caps_at_burst():
    bucket = TokenBucket(rate=100.0, burst=2.0)
    assert bucket.tokens(10.0) == pytest.approx(2.0)


def test_token_bucket_next_available():
    bucket = TokenBucket(rate=5.0, burst=1.0)
    bucket.try_consume(0.0)
    assert bucket.next_available(0.0) == pytest.approx(0.2)
    assert bucket.next_available(1.0) == 1.0


def test_token_bucket_set_rate_preserves_balance():
    bucket = TokenBucket(rate=1.0, burst=10.0)
    bucket.try_consume(0.0, amount=10.0)
    bucket.set_rate(100.0, now=1.0)  # 1 token accrued at the old rate
    assert bucket.tokens(1.0) == pytest.approx(1.0)
    assert bucket.tokens(1.05) == pytest.approx(6.0)


def test_token_bucket_rejects_time_travel():
    bucket = TokenBucket(rate=1.0)
    bucket.tokens(5.0)
    with pytest.raises(FlowError):
        bucket.tokens(4.0)


def test_token_bucket_validation():
    with pytest.raises(FlowError):
        TokenBucket(rate=0.0)
    with pytest.raises(FlowError):
        TokenBucket(rate=1.0, burst=0.0)


@settings(max_examples=50, deadline=None)
@given(
    rate=st.floats(min_value=0.5, max_value=1000.0),
    burst=st.floats(min_value=1.0, max_value=50.0),
    intervals=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60),
)
def test_token_bucket_never_exceeds_rate_plus_burst(rate, burst, intervals):
    """Conformance: consumed tokens over [0, T] never exceed burst + rate*T."""
    bucket = TokenBucket(rate=rate, burst=burst)
    now = 0.0
    consumed = 0
    for interval in intervals:
        now += interval
        while bucket.try_consume(now):
            consumed += 1
    assert consumed <= burst + rate * now + 1e-6


@settings(max_examples=50, deadline=None)
@given(rate=st.floats(min_value=1.0, max_value=500.0))
def test_token_bucket_sustains_its_rate(rate):
    """A greedy consumer achieves the configured long-run rate.

    burst=2 gives the consumer headroom so that no accrual is lost to
    the cap between polls; the long-run rate is then exact.
    """
    bucket = TokenBucket(rate=rate, burst=2.0)
    consumed = 0
    step = 1.0 / (4.0 * rate)
    now = 0.0
    while now < 10.0:
        if bucket.try_consume(now):
            consumed += 1
        now += step
    assert consumed >= rate * 10.0 * 0.95
