"""Unit tests for the four local conditions' decision logic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classification import LinkType
from repro.core.conditions import (
    AdjacentVirtualLinkView,
    UpstreamView,
    VirtualNodeView,
    beta_equal,
    beta_less,
    evaluate_source_and_buffer_conditions,
    find_bandwidth_violation,
    respond_to_bandwidth_violation,
)
from repro.core.requests import RequestKind


class TestBetaSemantics:
    def test_equal_within_margin(self):
        assert beta_equal(100.0, 109.0, beta=0.10)
        assert beta_equal(109.0, 100.0, beta=0.10)

    def test_not_equal_beyond_margin(self):
        assert not beta_equal(100.0, 115.0, beta=0.10)

    def test_zero_values_equal(self):
        assert beta_equal(0.0, 0.0, beta=0.10)

    def test_zero_beta_is_exact_equality(self):
        # The paper's conditions with beta = 0 compare exactly: a rate
        # equals itself, and is not smaller than itself.
        for a in (1.0, 113.1, 1e6):
            assert beta_equal(a, a, 0.0)
            assert not beta_less(a, a, 0.0)
            assert not beta_equal(a, a + a * 1e-9, 0.0)
            assert beta_less(a, a + a * 1e-9, 0.0)

    def test_less_requires_margin(self):
        assert beta_less(80.0, 100.0, beta=0.10)
        assert not beta_less(95.0, 100.0, beta=0.10)
        assert not beta_less(100.0, 80.0, beta=0.10)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(min_value=0.0, max_value=1e6),
        b=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_trichotomy(self, a, b):
        """Exactly one of beta_less(a,b), beta_less(b,a), beta_equal."""
        relations = [
            beta_less(a, b, 0.1),
            beta_less(b, a, 0.1),
            beta_equal(a, b, 0.1),
        ]
        assert sum(relations) == 1


def upstream(link=(1, 2), mu=100.0, link_type=LinkType.BUFFER_SATURATED, primaries=(7,)):
    return UpstreamView(
        link=link, mu=mu, link_type=link_type, primaries=frozenset(primaries)
    )


class TestSourceBufferConditions:
    def test_satisfied_when_equal(self):
        view = VirtualNodeView(
            node=2,
            dest=9,
            local_flow_mus={1: 100.0},
            upstream=(upstream(mu=105.0),),
        )
        assert evaluate_source_and_buffer_conditions(view, beta=0.1) == []

    def test_decrease_issued_for_l1_upstream_link(self):
        view = VirtualNodeView(
            node=2,
            dest=9,
            local_flow_mus={1: 100.0},
            upstream=(upstream(mu=200.0, primaries=(7,)),),
        )
        requests = evaluate_source_and_buffer_conditions(view, beta=0.1)
        decreases = [r for r in requests if r.kind is RequestKind.DECREASE]
        assert [r.flow_id for r in decreases] == [7]
        assert decreases[0].multiplier == pytest.approx(0.9)

    def test_big_gap_halves(self):
        view = VirtualNodeView(
            node=2,
            dest=9,
            local_flow_mus={1: 50.0},
            limited_flows=frozenset({1}),
            upstream=(upstream(mu=400.0, primaries=(7,)),),
        )
        requests = evaluate_source_and_buffer_conditions(view, beta=0.1)
        decrease = next(r for r in requests if r.kind is RequestKind.DECREASE)
        assert decrease.multiplier == pytest.approx(0.5)
        increase = next(r for r in requests if r.kind is RequestKind.INCREASE)
        assert increase.multiplier == pytest.approx(2.0)
        assert increase.flow_id == 1

    def test_local_flow_increase_requires_limit(self):
        view = VirtualNodeView(
            node=2,
            dest=9,
            local_flow_mus={1: 100.0},
            limited_flows=frozenset(),
            upstream=(upstream(mu=200.0),),
        )
        requests = evaluate_source_and_buffer_conditions(view, beta=0.1)
        assert not any(
            r.kind is RequestKind.INCREASE and r.flow_id == 1 for r in requests
        )

    def test_local_flow_at_l1_decreased(self):
        view = VirtualNodeView(
            node=2,
            dest=9,
            local_flow_mus={1: 300.0},
            upstream=(upstream(mu=100.0, link_type=LinkType.BUFFER_SATURATED),),
        )
        requests = evaluate_source_and_buffer_conditions(view, beta=0.1)
        assert any(
            r.kind is RequestKind.DECREASE and r.flow_id == 1 for r in requests
        )

    def test_buffer_saturated_upstream_at_s1_increased(self):
        view = VirtualNodeView(
            node=2,
            dest=9,
            local_flow_mus={1: 300.0},
            upstream=(
                upstream(mu=100.0, link_type=LinkType.BUFFER_SATURATED, primaries=(7,)),
            ),
        )
        requests = evaluate_source_and_buffer_conditions(view, beta=0.1)
        assert any(
            r.kind is RequestKind.INCREASE and r.flow_id == 7 for r in requests
        )

    def test_unsaturated_upstream_not_in_s1(self):
        # An unsaturated upstream link's low rate does not trigger
        # anything: it is not held back by this bottleneck.
        view = VirtualNodeView(
            node=2,
            dest=9,
            local_flow_mus={1: 100.0},
            upstream=(
                upstream(mu=20.0, link_type=LinkType.UNSATURATED, primaries=(7,)),
            ),
        )
        requests = evaluate_source_and_buffer_conditions(view, beta=0.1)
        assert not any(r.flow_id == 7 for r in requests)

    def test_unknown_mus_are_skipped(self):
        view = VirtualNodeView(
            node=2,
            dest=9,
            local_flow_mus={},
            upstream=(upstream(mu=None),),
        )
        assert evaluate_source_and_buffer_conditions(view, beta=0.1) == []

    def test_empty_view_no_requests(self):
        view = VirtualNodeView(node=2, dest=9)
        assert evaluate_source_and_buffer_conditions(view, beta=0.1) == []


class TestBandwidthViolation:
    CLIQUE_A = (0, 0)
    CLIQUE_B = (1, 0)

    def test_satisfied_when_largest_in_one_saturated_clique(self):
        violation = find_bandwidth_violation(
            link=(1, 2),
            bw_saturated_vlink_mus={9: 100.0},
            clique_occupancies={self.CLIQUE_A: 0.9, self.CLIQUE_B: 0.88},
            clique_link_mus={
                self.CLIQUE_A: {(1, 2): 100.0, (3, 4): 300.0},
                self.CLIQUE_B: {(1, 2): 100.0, (5, 6): 104.0},
            },
            beta=0.1,
        )
        assert violation is None

    def test_violation_reports_per_clique_maxes(self):
        violation = find_bandwidth_violation(
            link=(1, 2),
            bw_saturated_vlink_mus={9: 100.0},
            clique_occupancies={self.CLIQUE_A: 0.9, self.CLIQUE_B: 0.89},
            clique_link_mus={
                self.CLIQUE_A: {(1, 2): 100.0, (3, 4): 300.0},
                self.CLIQUE_B: {(1, 2): 100.0, (5, 6): 250.0},
            },
            beta=0.1,
        )
        assert violation is not None
        assert violation.mu_min == pytest.approx(100.0)
        assert violation.max_for(self.CLIQUE_A) == pytest.approx(300.0)
        assert violation.max_for(self.CLIQUE_B) == pytest.approx(250.0)
        assert violation.clique_ids == {self.CLIQUE_A, self.CLIQUE_B}

    def test_only_max_occupancy_cliques_considered(self):
        # Clique B's occupancy is β-below A's, so only A is saturated,
        # and the link is largest there: satisfied.
        violation = find_bandwidth_violation(
            link=(1, 2),
            bw_saturated_vlink_mus={9: 100.0},
            clique_occupancies={self.CLIQUE_A: 0.9, self.CLIQUE_B: 0.5},
            clique_link_mus={
                self.CLIQUE_A: {(1, 2): 100.0},
                self.CLIQUE_B: {(1, 2): 100.0, (5, 6): 400.0},
            },
            beta=0.1,
        )
        assert violation is None

    def test_no_data_no_violation(self):
        assert (
            find_bandwidth_violation(
                link=(1, 2),
                bw_saturated_vlink_mus={},
                clique_occupancies={self.CLIQUE_A: 0.9},
                clique_link_mus={},
                beta=0.1,
            )
            is None
        )

    def make_violation(self):
        return find_bandwidth_violation(
            link=(1, 2),
            bw_saturated_vlink_mus={9: 100.0},
            clique_occupancies={self.CLIQUE_A: 0.9},
            clique_link_mus={self.CLIQUE_A: {(1, 2): 100.0, (3, 4): 300.0}},
            beta=0.1,
        )

    def test_responder_decreases_clique_max_flows(self):
        violation = self.make_violation()
        adjacent = [
            AdjacentVirtualLinkView(
                link=(3, 4),
                dest=8,
                mu=300.0,
                link_type=LinkType.UNSATURATED,
                primaries=frozenset({5}),
                clique_ids=frozenset({self.CLIQUE_A}),
            )
        ]
        requests = respond_to_bandwidth_violation(3, violation, adjacent, beta=0.1)
        assert [(r.flow_id, r.kind) for r in requests] == [
            (5, RequestKind.DECREASE)
        ]
        assert requests[0].multiplier == pytest.approx(0.9)

    def test_responder_ignores_links_outside_cliques(self):
        violation = self.make_violation()
        adjacent = [
            AdjacentVirtualLinkView(
                link=(7, 8),
                dest=8,
                mu=300.0,
                link_type=LinkType.UNSATURATED,
                primaries=frozenset({5}),
                clique_ids=frozenset({self.CLIQUE_B}),
            )
        ]
        assert respond_to_bandwidth_violation(7, violation, adjacent, beta=0.1) == []

    def test_responder_increases_bw_saturated_victims(self):
        violation = self.make_violation()
        adjacent = [
            AdjacentVirtualLinkView(
                link=(1, 2),
                dest=9,
                mu=100.0,
                link_type=LinkType.BANDWIDTH_SATURATED,
                primaries=frozenset({9}),
                clique_ids=frozenset({self.CLIQUE_A}),
            )
        ]
        requests = respond_to_bandwidth_violation(1, violation, adjacent, beta=0.1)
        assert [(r.flow_id, r.kind) for r in requests] == [
            (9, RequestKind.INCREASE)
        ]

    def test_responder_skips_mid_range_links(self):
        # Neither at the clique max nor at the victim's rate: untouched.
        violation = self.make_violation()
        adjacent = [
            AdjacentVirtualLinkView(
                link=(3, 4),
                dest=8,
                mu=180.0,
                link_type=LinkType.BANDWIDTH_SATURATED,
                primaries=frozenset({5}),
                clique_ids=frozenset({self.CLIQUE_A}),
            )
        ]
        assert respond_to_bandwidth_violation(3, violation, adjacent, beta=0.1) == []
