"""Tests for the plain-802.11 and 2PP baselines."""

import numpy as np
import pytest

from repro.baselines.lp import maximize_total_extra
from repro.baselines.two_phase import two_phase_rates
from repro.buffers.queues import SharedFifoBuffer
from repro.errors import AnalysisError
from repro.flows.flow import FlowSet
from repro.routing.link_state import link_state_routes
from repro.scenarios.figures import figure3, figure4
from repro.topology.cliques import maximal_cliques
from repro.topology.contention import ContentionGraph


def test_plain_buffer_configuration():
    # The plain-802.11 baseline's buffer is a shared FIFO of the
    # paper's 300 packets (§7): the default the runner builds.
    buffer = SharedFifoBuffer(3, lambda dest: 4)
    assert buffer.capacity == 300
    assert buffer.node_id == 3


class TestLp:
    def test_simple_allocation(self):
        consumption = np.array([[1.0, 2.0]])
        extra = maximize_total_extra(
            consumption, slack=np.array([10.0]), upper_bounds=np.array([100.0, 100.0])
        )
        # Maximizing e1 + e2 under e1 + 2 e2 <= 10 puts everything on e1.
        assert extra[0] == pytest.approx(10.0)
        assert extra[1] == pytest.approx(0.0)

    def test_bounds_respected(self):
        consumption = np.array([[1.0]])
        extra = maximize_total_extra(
            consumption, slack=np.array([100.0]), upper_bounds=np.array([5.0])
        )
        assert extra[0] == pytest.approx(5.0)

    def test_negative_slack_clamped(self):
        consumption = np.array([[1.0]])
        extra = maximize_total_extra(
            consumption, slack=np.array([-3.0]), upper_bounds=np.array([10.0])
        )
        assert extra[0] == pytest.approx(0.0)

    def test_empty(self):
        extra = maximize_total_extra(np.zeros((0, 0)), np.zeros(0), np.zeros(0))
        assert extra.size == 0


def setup(scenario):
    routes = link_state_routes(scenario.topology)
    cliques = maximal_cliques(ContentionGraph(scenario.topology))
    return scenario.flows, routes, cliques


class TestTwoPhase:
    def test_fig3_basic_share_is_conservative_and_equal(self):
        flows, routes, cliques = setup(figure3())
        allocation = two_phase_rates(flows, routes, cliques, capacity=600.0)
        # One clique of 3 links; each link's share is 200; the last hop
        # carries all 3 flows: basic share = 200/3 for everyone.
        for flow in flows:
            assert allocation.basic[flow.flow_id] == pytest.approx(200.0 / 3)

    def test_fig3_surplus_goes_to_short_flow(self):
        flows, routes, cliques = setup(figure3())
        allocation = two_phase_rates(flows, routes, cliques, capacity=600.0)
        # The LP gives all remaining capacity to the 1-hop flow 3.
        assert allocation.extra[3] > 0
        assert allocation.extra[1] == pytest.approx(0.0, abs=1e-6)
        assert allocation.extra[2] == pytest.approx(0.0, abs=1e-6)
        assert allocation.rates[3] > 2.5 * allocation.rates[1]

    def test_fig4_side_one_hop_flows_favored(self):
        flows, routes, cliques = setup(figure4())
        allocation = two_phase_rates(flows, routes, cliques, capacity=600.0)
        # Side gadgets' 1-hop flows (f2, f8) receive the surplus;
        # 2-hop flows stay near the basic share (Table 4's 2PP shape).
        assert allocation.rates[2] > 2 * allocation.rates[1]
        assert allocation.rates[8] > 2 * allocation.rates[7]
        assert allocation.rates[2] == pytest.approx(allocation.rates[8], rel=0.01)

    def test_rates_respect_clique_capacity(self):
        flows, routes, cliques = setup(figure4())
        capacity = 600.0
        allocation = two_phase_rates(flows, routes, cliques, capacity=capacity)
        for clique in cliques:
            usage = 0.0
            for flow in flows:
                links = {
                    tuple(sorted(link))
                    for link in routes.path_links(flow.source, flow.destination)
                }
                inside = sum(1 for link in links if link in clique.links)
                usage += allocation.rates[flow.flow_id] * inside
            assert usage <= capacity * (1 + 1e-6)

    def test_rates_capped_at_desired(self):
        flows, routes, cliques = setup(figure3())
        allocation = two_phase_rates(flows, routes, cliques, capacity=1e6)
        for flow in flows:
            assert allocation.rates[flow.flow_id] <= flow.desired_rate + 1e-9

    def test_empty_flows_rejected(self):
        _, routes, cliques = setup(figure3())
        with pytest.raises(AnalysisError):
            two_phase_rates(FlowSet(), routes, cliques, capacity=100.0)

    def test_basic_share_below_maxmin_for_multihop(self):
        """2PP's phase-1 share is conservative: for the chain flows it
        sits well below the maxmin rate (the paper's critique)."""
        flows, routes, cliques = setup(figure3())
        allocation = two_phase_rates(flows, routes, cliques, capacity=600.0)
        maxmin_rate = 100.0  # 600 / 6 traversals, computed in test_analysis
        assert allocation.basic[1] < maxmin_rate
