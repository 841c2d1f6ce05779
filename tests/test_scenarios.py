"""Tests for the scenario layer: figures, runner, results."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.fidelity.paper import PAPER_TABLES
from repro.routing.link_state import link_state_routes
from repro.scenarios.figures import figure1, figure2, figure3, figure4
from repro.scenarios.spec import RunSpec
from repro.topology.cliques import maximal_cliques
from repro.topology.contention import ContentionGraph


class TestFigureTopologies:
    def test_figure2_clique_structure(self):
        scenario = figure2()
        cliques = maximal_cliques(ContentionGraph(scenario.topology))
        # The paper's stated cliques emerge from the geometry, exactly.
        assert {clique.links for clique in cliques} == {
            frozenset({(0, 1), (1, 2)}),
            frozenset({(1, 2), (3, 4), (4, 5)}),
        }
        assert len(cliques) == 2

    def test_figure2_flows_single_hop(self):
        scenario = figure2()
        routes = link_state_routes(scenario.topology)
        for flow in scenario.flows:
            assert routes.hop_count(flow.source, flow.destination) == 1

    def test_figure2_weights(self):
        scenario = figure2(weights=(1, 2, 1, 3))
        weights = [flow.weight for flow in scenario.flows]
        assert weights == [1, 2, 1, 3]
        with pytest.raises(ConfigError):
            figure2(weights=(1, 2, 3))
        with pytest.raises(ConfigError):
            figure2(weights=(0, 1, 1, 1))

    def test_figure3_hops_match_paper(self):
        scenario = figure3()
        routes = link_state_routes(scenario.topology)
        hops = {
            flow.flow_id: routes.hop_count(flow.source, flow.destination)
            for flow in scenario.flows
        }
        assert hops == {1: 3, 2: 2, 3: 1}

    def test_figure3_single_clique(self):
        scenario = figure3()
        cliques = maximal_cliques(ContentionGraph(scenario.topology))
        assert len(cliques) == 1
        assert cliques[0].links == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_figure3_hidden_decode_asymmetry(self):
        topology = figure3().topology
        assert not topology.decodes(0, 2)
        assert topology.senses(0, 2)
        assert topology.decodes(1, 2)

    def test_figure4_hop_counts_solve_table4(self):
        """Odd flows 2-hop, even flows 1-hop — the unique solution of
        the paper's reported U values (see DESIGN.md)."""
        scenario = figure4()
        routes = link_state_routes(scenario.topology)
        hops = {
            flow.flow_id: routes.hop_count(flow.source, flow.destination)
            for flow in scenario.flows
        }
        assert hops == {fid: 2 if fid % 2 == 1 else 1 for fid in range(1, 9)}
        # Each column's U is its hop-weighted rate sum over these hops.
        for column in PAPER_TABLES[4].paper.values():
            u = sum(rate * hops[fid] for fid, rate in column.rates.items())
            assert u == pytest.approx(column.u, abs=0.1)

    def test_figure4_pairs_share_source(self):
        scenario = figure4()
        flows = list(scenario.flows)
        for k in range(4):
            assert flows[2 * k].source == flows[2 * k + 1].source

    def test_figure4_adjacent_gadgets_contend_non_adjacent_do_not(self):
        scenario = figure4()
        graph = ContentionGraph(scenario.topology)
        # Gadget 0 links: (0,1),(1,2); gadget 1: (3,4),(4,5); gadget 2: (6,7),(7,8)
        assert graph.are_adjacent((0, 1), (3, 4))
        assert graph.are_adjacent((1, 2), (4, 5))
        assert not graph.are_adjacent((0, 1), (6, 7))
        # So the cliques pair adjacent gadgets, four links each.
        cliques = maximal_cliques(graph)
        assert sorted(len(clique.links) for clique in cliques) == [4, 4, 4]

    def test_figure4_two_destinations_per_gadget(self):
        scenario = figure4()
        assert len(scenario.flows.destinations()) == 8

    def test_figure1_paths(self):
        scenario = figure1()
        routes = link_state_routes(scenario.topology)
        assert routes.path(0, 5) == [0, 2, 3, 4, 5]
        assert routes.path(1, 6) == [1, 2, 3, 6]
        assert (4, 5) in scenario.rate_caps

    def test_figure1_validation(self):
        with pytest.raises(ConfigError):
            figure1(bottleneck_rate=500.0, desired_rate=100.0)


#: Plain 802.11 on the Figure-3 chain, fluid, 10 s, seed 3.
RUN = RunSpec(scenario="figure3", protocol="802.11", substrate="fluid", duration=10.0, seed=3)


class TestRunner:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec(scenario="figure3", protocol="tcp", substrate="dcf", duration=60.0, seed=0)

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec(scenario="figure3", protocol="gmp", substrate="ns3", duration=60.0, seed=0)

    def test_bad_durations_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec(scenario="figure3", protocol="gmp", substrate="dcf", duration=0.0, seed=0)
        with pytest.raises(ConfigError):
            RunSpec(
                scenario="figure3", protocol="gmp", substrate="dcf", duration=float("inf"),
                seed=0,
            )  # fmt: skip

    def test_results_reproducible_given_seed(self):
        first = RUN.run()
        second = RUN.run()
        assert first.flow_rates == second.flow_rates

    def test_result_metrics_consistent(self):
        result = RUN.run()
        assert result.scenario == "figure3"
        assert set(result.flow_rates) == {1, 2, 3}
        assert result.hop_counts == {1: 3, 2: 2, 3: 1}
        expected_u = sum(
            result.flow_rates[fid] * result.hop_counts[fid] for fid in (1, 2, 3)
        )
        assert result.effective_throughput == pytest.approx(expected_u)
        assert 0 <= result.i_mm <= 1
        assert 0 < result.i_eq <= 1

    def test_2pp_sets_static_limits(self):
        result = replace(RUN, protocol="2pp").run()
        allocation = result.extras["two_phase"]
        assert allocation.rates[3] > allocation.rates[1]

    def test_summary_table_renders(self):
        result = replace(RUN, duration=5.0).run()
        text = result.summary_table()
        assert "I_mm" in text and "802.11" in text

    def test_gmp_dcf_short_run_smoke(self):
        result = RunSpec(
            scenario="figure3", protocol="gmp", substrate="dcf", duration=12.0, seed=1, period=1.0
        ).run()
        assert sum(result.flow_rates.values()) > 0
        assert "rate_limits" in result.extras

    def test_normalized_rates_in_result(self):
        scenario = figure2(weights=(1, 2, 1, 3))
        result = RunSpec(
            scenario="figure2",
            weights=(1, 2, 1, 3),
            protocol="802.11",
            substrate="fluid",
            duration=5.0,
            seed=1,
        ).run()
        normalized = result.normalized_rates(scenario.flows)
        assert normalized[2] == pytest.approx(result.flow_rates[2] / 2.0)


class TestFigure1Isolation:
    """The §5.1 argument: per-destination queues isolate f2 from f1's
    bottleneck; a single shared queue does not."""

    def run(self, protocol):
        return RunSpec(
            scenario="figure1",
            protocol=protocol,
            substrate="fluid",
            duration=30.0,
            seed=1,
            capacity_pps=600.0,
        ).run()

    def test_shared_queue_drags_f2_down(self):
        result = self.run("backpressure-shared")
        assert result.flow_rates[2] < 0.5 * 70.0

    def test_per_destination_isolates_f2(self):
        shared = self.run("backpressure-shared")
        isolated = self.run("backpressure-perdest")
        assert isolated.flow_rates[2] > 1.5 * shared.flow_rates[2]
        assert isolated.flow_rates[2] == pytest.approx(70.0, rel=0.15)

    def test_f1_limited_by_bottleneck_either_way(self):
        for protocol in ("backpressure-shared", "backpressure-perdest"):
            result = self.run(protocol)
            assert result.flow_rates[1] <= 23.0

    def test_dcf_refuses_the_rate_cap(self):
        # The DCF has no per-link cap: run uncapped, f1 = f2 = 70 pkt/s
        # and the bottleneck would not exist.
        spec = RunSpec(scenario="figure1", substrate="dcf", duration=1.0, seed=1)
        with pytest.raises(ConfigError, match="only the fluid substrate"):
            spec.run()
