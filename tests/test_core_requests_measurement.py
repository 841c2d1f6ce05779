"""Unit tests for requests, aggregation, MuTracker, and dissemination scope."""

import pytest

from repro.core.dissemination import DisseminationScope
from repro.core.measurement import MuTracker, combine_occupancy
from repro.core.requests import RateRequest, RequestKind, aggregate_requests
from repro.errors import ProtocolError
from repro.flows.packet import Packet
from repro.topology.builders import chain_topology
from repro.topology.contention import ContentionGraph
from repro.topology.network import Topology


def dec(flow=1, mult=0.9, origin=0):
    return RateRequest(flow, RequestKind.DECREASE, mult, origin, "test")


def inc(flow=1, mult=1.1, origin=0):
    return RateRequest(flow, RequestKind.INCREASE, mult, origin, "test")


class TestRequests:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            dec(mult=1.5)
        with pytest.raises(ProtocolError):
            inc(mult=0.9)

    def test_aggregate_empty(self):
        assert aggregate_requests([]) is None

    def test_decrease_beats_increase(self):
        chosen = aggregate_requests([inc(), dec()])
        assert chosen.kind is RequestKind.DECREASE

    def test_largest_reduction_kept(self):
        chosen = aggregate_requests([dec(mult=0.9), dec(mult=0.5), dec(mult=0.8)])
        assert chosen.multiplier == pytest.approx(0.5)

    def test_smallest_increase_kept(self):
        chosen = aggregate_requests([inc(mult=2.0), inc(mult=1.1)])
        assert chosen.multiplier == pytest.approx(1.1)

    def test_mixed_flows_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate_requests([dec(flow=1), dec(flow=2)])


def stamped(flow_id, mu, dest=9):
    packet = Packet(
        flow_id=flow_id, source=0, destination=dest, size_bytes=1024, created_at=0.0
    )
    packet.carried_mu = mu
    return packet


class TestMuTracker:
    def test_empty_summary(self):
        tracker = MuTracker()
        assert tracker.summarize((0, 1), 9, beta=0.1) == (None, frozenset())

    def test_unstamped_packets_ignored(self):
        tracker = MuTracker()
        packet = Packet(
            flow_id=1, source=0, destination=9, size_bytes=10, created_at=0.0
        )
        tracker.observe((0, 1), 9, packet)
        assert tracker.summarize((0, 1), 9, beta=0.1) == (None, frozenset())

    def test_max_mu_and_primaries(self):
        tracker = MuTracker()
        tracker.observe((0, 1), 9, stamped(1, 100.0))
        tracker.observe((0, 1), 9, stamped(2, 98.0))
        tracker.observe((0, 1), 9, stamped(3, 50.0))
        mu, primaries = tracker.summarize((0, 1), 9, beta=0.1)
        assert mu == pytest.approx(100.0)
        assert primaries == {1, 2}  # 98 is β-equal to 100

    def test_max_per_flow_kept(self):
        tracker = MuTracker()
        tracker.observe((0, 1), 9, stamped(1, 80.0))
        tracker.observe((0, 1), 9, stamped(1, 120.0))
        mu, primaries = tracker.summarize((0, 1), 9, beta=0.1)
        assert mu == pytest.approx(120.0)
        assert primaries == {1}

    def test_vlinks_are_separate(self):
        tracker = MuTracker()
        tracker.observe((0, 1), 9, stamped(1, 100.0))
        tracker.observe((0, 1), 8, stamped(2, 40.0, dest=8))
        assert tracker.summarize((0, 1), 8, beta=0.1)[0] == pytest.approx(40.0)
        assert tracker.tracked_vlinks() == [((0, 1), 8), ((0, 1), 9)]

    def test_reset(self):
        tracker = MuTracker()
        tracker.observe((0, 1), 9, stamped(1, 100.0))
        tracker.reset()
        assert tracker.tracked_vlinks() == []


def test_combine_occupancy():
    assert combine_occupancy(1.5, period=4.0) == pytest.approx(0.375)
    assert combine_occupancy(20.0, period=4.0) == 1.0  # clamped
    assert combine_occupancy(2.0, period=0.0) == 0.0


class TestDisseminationScope:
    def test_link_audience_covers_two_hops(self):
        chain = chain_topology(6)
        scope = DisseminationScope(chain)
        audience = scope.audience_of_link((2, 3))
        # Two hops from 2 or 3: nodes 0..5 on a 6-chain.
        assert audience == frozenset(range(6))

    def test_link_audience_excludes_far_nodes(self):
        chain = chain_topology(8)
        scope = DisseminationScope(chain)
        audience = scope.audience_of_link((0, 1))
        assert 7 not in audience
        assert audience == frozenset({0, 1, 2, 3})

    def test_contention_extends_audience_across_gaps(self):
        # Two disconnected pairs within carrier-sense range: the
        # contention graph must extend the audience.
        topology = Topology(tx_range=250.0, cs_range=550.0)
        topology.add_nodes(
            [(0.0, 0.0), (200.0, 0.0), (600.0, 0.0), (800.0, 0.0)]
        )
        graph = ContentionGraph(topology)
        scope = DisseminationScope(topology, graph)
        audience = scope.audience_of_link((0, 1))
        assert {2, 3} <= audience

    def test_without_contention_graph_gap_not_covered(self):
        topology = Topology(tx_range=250.0, cs_range=550.0)
        topology.add_nodes(
            [(0.0, 0.0), (200.0, 0.0), (600.0, 0.0), (800.0, 0.0)]
        )
        scope = DisseminationScope(topology)
        assert not ({2, 3} & scope.audience_of_link((0, 1)))

    def test_node_audience(self):
        # A link's audience is the two-hop audience of each endpoint,
        # itself included: {0, 1, 2} for node 0, {0, 1, 2, 3} for node 1.
        chain = chain_topology(6)
        scope = DisseminationScope(chain)
        assert scope.audience_of_link((0, 1)) == frozenset({0, 1, 2, 3})

    def test_link_visibility(self):
        chain = chain_topology(8)
        scope = DisseminationScope(chain)
        assert 2 in scope.audience_of_link((0, 1))
        assert 7 not in scope.audience_of_link((0, 1))

    def test_overhead_accounting(self):
        chain = chain_topology(6)
        scope = DisseminationScope(chain)
        scope.record_link_state_change((2, 3))
        scope.record_notice(2)
        assert scope.link_state_broadcasts > 0
        assert scope.notice_broadcasts > 0
