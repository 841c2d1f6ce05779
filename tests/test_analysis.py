"""Unit and property tests for the analysis toolkit."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.convergence import convergence_time, oscillation_amplitude
from repro.analysis.fairness import (
    equality_fairness_index,
    jain_index,
    maxmin_fairness_index,
    normalized_rates,
)
from repro.analysis.maxmin_reference import weighted_maxmin_rates
from repro.analysis.report import format_table
from repro.analysis.throughput import effective_network_throughput
from repro.errors import AnalysisError
from repro.flows.flow import Flow, FlowSet
from repro.mac.fluid import waterfill_links
from repro.routing.link_state import link_state_routes
from repro.topology.builders import chain_topology, random_topology
from repro.topology.cliques import maximal_cliques
from repro.topology.contention import ContentionGraph


class TestFairnessIndices:
    def test_equal_rates_give_one(self):
        assert maxmin_fairness_index([5.0, 5.0, 5.0]) == 1.0
        assert equality_fairness_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_paper_table3_values(self):
        rates = [80.63, 220.07, 174.09]  # 802.11 column
        assert maxmin_fairness_index(rates) == pytest.approx(0.366, abs=0.001)
        assert equality_fairness_index(rates) == pytest.approx(0.882, abs=0.001)

    def test_jain_is_equality(self):
        assert jain_index is equality_fairness_index

    def test_zero_rates_defined(self):
        assert maxmin_fairness_index([0.0, 0.0]) == 1.0
        assert equality_fairness_index([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            maxmin_fairness_index([])
        with pytest.raises(AnalysisError):
            equality_fairness_index([])

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            maxmin_fairness_index([-1.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(
        rates=st.lists(
            st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=20
        )
    )
    def test_indices_bounded(self, rates):
        assert 0.0 <= maxmin_fairness_index(rates) <= 1.0
        assert 0.0 < equality_fairness_index(rates) <= 1.0 + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        rate=st.floats(min_value=0.1, max_value=100.0),
        count=st.integers(min_value=1, max_value=10),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_indices_scale_invariant(self, rate, count, scale):
        rates = [rate * (1 + index) for index in range(count)]
        scaled = [value * scale for value in rates]
        assert maxmin_fairness_index(rates) == pytest.approx(
            maxmin_fairness_index(scaled)
        )
        assert equality_fairness_index(rates) == pytest.approx(
            equality_fairness_index(scaled)
        )

    def test_normalized_rates(self):
        flows = FlowSet(
            [
                Flow(flow_id=1, source=0, destination=1, weight=2.0),
                Flow(flow_id=2, source=1, destination=2, weight=0.5),
            ]
        )
        result = normalized_rates({1: 100.0, 2: 100.0}, flows)
        assert result == {1: 50.0, 2: 200.0}


def units_per_clique(path, cliques):
    """Clique index -> how many of ``path``'s links lie in that clique
    (scanned, no index shared with the solvers)."""
    units = {
        index: sum(a_link in clique for a_link in path)
        for index, clique in enumerate(cliques)
    }
    return {index: count for index, count in units.items() if count}


def assert_maxmin_certificate(
    rates, demands, weights, consumption, capacities, bottlenecks=None
):
    """The weighted-maxmin certificate, read off an allocation with no
    filling code: the load ``sum(rate * units)`` of every clique is
    within its capacity, no item exceeds its demand, and every item
    below its demand sits in a saturated clique where its normalized
    rate ``rate / weight`` is at least that of every other item there
    (the bandwidth-saturated condition, paper §3.3) — the clique index
    ``bottlenecks`` names for it, when given.  Returns the load per
    clique."""
    usage = [0.0] * len(capacities)
    for key, units in consumption.items():
        for index, count in units.items():
            usage[index] += rates[key] * count
    for used, capacity in zip(usage, capacities):
        assert used <= capacity * (1 + 1e-6)
    normalized = {key: rate / weights[key] for key, rate in rates.items()}
    for key, rate in rates.items():
        assert 0.0 <= rate <= demands[key] * (1 + 1e-6)
        if rate >= demands[key] * (1 - 1e-6):
            continue
        witnesses = consumption[key] if bottlenecks is None else [bottlenecks[key]]
        assert any(
            index in consumption[key]
            and usage[index] >= capacities[index] * (1 - 1e-6)
            and all(
                normalized[key] >= normalized[other] * (1 - 1e-6)
                for other, units in consumption.items()
                if index in units
            )
            for index in witnesses
        ), f"{key} is below its demand with no saturated clique it tops"
    return usage


def chain_setup(num_nodes=4):
    topology = chain_topology(num_nodes, spacing=200.0)
    routes = link_state_routes(topology)
    cliques = maximal_cliques(ContentionGraph(topology))
    return topology, routes, cliques


class TestMaxminReference:
    def test_fig3_structure(self):
        """Single clique chain: rates weighted by hop count."""
        _, routes, cliques = chain_setup(4)
        flows = FlowSet(
            [
                Flow(flow_id=1, source=0, destination=3),
                Flow(flow_id=2, source=1, destination=3),
                Flow(flow_id=3, source=2, destination=3),
            ]
        )
        solution = weighted_maxmin_rates(flows, routes, cliques, capacity=600.0)
        # 3r + 2r + r = 600 -> r = 100 each.
        for flow_id in (1, 2, 3):
            assert solution.rates[flow_id] == pytest.approx(100.0)
            assert solution.bottlenecks[flow_id] is not None
        assert solution.clique_usage[cliques[0].clique_id] == pytest.approx(600.0)

    def test_desired_rate_caps(self):
        _, routes, cliques = chain_setup(2)
        flows = FlowSet(
            [Flow(flow_id=1, source=0, destination=1, desired_rate=50.0)]
        )
        solution = weighted_maxmin_rates(flows, routes, cliques, capacity=600.0)
        assert solution.rates[1] == pytest.approx(50.0)
        assert solution.bottlenecks[1] is None  # demand-limited

    def test_weights_shift_allocation(self):
        _, routes, cliques = chain_setup(3)
        flows = FlowSet(
            [
                Flow(flow_id=1, source=0, destination=1, weight=1.0),
                Flow(flow_id=2, source=1, destination=2, weight=3.0),
            ]
        )
        solution = weighted_maxmin_rates(flows, routes, cliques, capacity=400.0)
        assert solution.rates[2] == pytest.approx(3 * solution.rates[1])
        assert solution.normalized[1] == pytest.approx(solution.normalized[2])

    def test_clique_capacity_overrides(self):
        _, routes, cliques = chain_setup(2)
        flows = FlowSet([Flow(flow_id=1, source=0, destination=1)])
        clique_id = cliques[0].clique_id
        solution = weighted_maxmin_rates(
            flows, routes, cliques, capacity=600.0, clique_capacities={clique_id: 100.0}
        )
        assert solution.rates[1] == pytest.approx(100.0)

    def test_empty_flows_rejected(self):
        _, routes, cliques = chain_setup(2)
        with pytest.raises(AnalysisError):
            weighted_maxmin_rates(FlowSet(), routes, cliques, capacity=10.0)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_maxmin_feasibility_and_optimality(self, data):
        """Random multi-hop flows (a path may cross a clique several
        times) with non-integer weights, per-clique capacities and
        desired rates on both sides of capacity: the reference's rates
        and the fluid solver's link rates both carry the weighted-maxmin
        certificate, checked from the allocation alone."""
        num_nodes = data.draw(st.integers(min_value=5, max_value=18), label="nodes")
        side = 260.0 * num_nodes**0.5
        topology = random_topology(
            num_nodes,
            width=side,
            height=side,
            seed=data.draw(st.integers(min_value=0, max_value=5000), label="seed"),
        )
        routes = link_state_routes(topology)
        cliques = maximal_cliques(ContentionGraph(topology))
        capacity = data.draw(st.floats(min_value=50.0, max_value=2000.0))
        rates_around = st.floats(min_value=0.05 * capacity, max_value=3.0 * capacity)
        clique_capacities = {
            clique.clique_id: data.draw(rates_around)
            for clique in data.draw(st.lists(st.sampled_from(cliques), unique=True))
        }
        capacities = [
            clique_capacities.get(clique.clique_id, capacity) for clique in cliques
        ]
        nodes = topology.node_ids
        flows = []
        for flow_id in range(1, data.draw(st.integers(1, 6), label="flows") + 1):
            source = data.draw(st.sampled_from(nodes))
            flows.append(
                Flow(
                    flow_id=flow_id,
                    source=source,
                    destination=data.draw(
                        st.sampled_from([node for node in nodes if node != source])
                    ),
                    weight=data.draw(st.floats(min_value=0.2, max_value=6.0)),
                    desired_rate=data.draw(rates_around),
                )
            )
        flows = FlowSet(flows)

        solution = weighted_maxmin_rates(
            flows, routes, cliques, capacity, clique_capacities=clique_capacities
        )
        paths = {
            flow.flow_id: routes.path_links(flow.source, flow.destination)
            for flow in flows
        }
        position = {clique.clique_id: index for index, clique in enumerate(cliques)}
        usage = assert_maxmin_certificate(
            solution.rates,
            {flow.flow_id: flow.desired_rate for flow in flows},
            {flow.flow_id: flow.weight for flow in flows},
            {flow_id: units_per_clique(path, cliques) for flow_id, path in paths.items()},
            capacities,
            bottlenecks={
                flow_id: position.get(clique_id)
                for flow_id, clique_id in solution.bottlenecks.items()
            },
        )
        for clique, used in zip(cliques, usage):
            assert solution.clique_usage[clique.clique_id] == pytest.approx(
                used, rel=1e-9, abs=1e-9
            )

        # The fluid solver on the links those flows use: unit weights,
        # one scalar capacity.
        demands = {
            a_link: data.draw(rates_around)
            for a_link in sorted({a_link for path in paths.values() for a_link in path})
        }
        assert_maxmin_certificate(
            waterfill_links(demands, cliques, capacity),
            demands,
            dict.fromkeys(demands, 1.0),
            {a_link: units_per_clique([a_link], cliques) for a_link in demands},
            [capacity] * len(cliques),
        )


class TestThroughputAndConvergence:
    def test_effective_throughput(self):
        topology = chain_topology(4)
        routes = link_state_routes(topology)
        flows = FlowSet(
            [
                Flow(flow_id=1, source=0, destination=3),
                Flow(flow_id=2, source=2, destination=3),
            ]
        )
        value = effective_network_throughput({1: 100.0, 2: 50.0}, flows, routes)
        assert value == pytest.approx(100.0 * 3 + 50.0 * 1)

    def test_effective_throughput_empty_rejected(self):
        topology = chain_topology(2)
        routes = link_state_routes(topology)
        with pytest.raises(AnalysisError):
            effective_network_throughput({}, FlowSet(), routes)

    def test_convergence_time_found(self):
        trajectory = [10, 50, 89, 98, 101, 99, 100]
        assert convergence_time(trajectory, target=100.0, tolerance=0.1, hold=3) == 3

    def test_convergence_time_none_when_unsettled(self):
        trajectory = [10, 200, 10, 200]
        assert convergence_time(trajectory, target=100.0) is None

    def test_convergence_validation(self):
        with pytest.raises(AnalysisError):
            convergence_time([], 100.0)
        with pytest.raises(AnalysisError):
            convergence_time([1.0], 0.0)

    def test_oscillation_amplitude(self):
        trajectory = [0.0] * 10 + [90.0, 110.0, 90.0, 110.0]
        assert oscillation_amplitude(trajectory, tail_fraction=0.25) == pytest.approx(
            20.0 / 100.0, rel=0.2
        )

    def test_oscillation_constant_is_zero(self):
        assert oscillation_amplitude([5.0, 5.0, 5.0]) == 0.0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            ["flow", "rate"], [["f1", 563.96], ["f2", 196.96]], title="Table 1"
        )
        lines = text.splitlines()
        assert lines[0] == "Table 1"
        assert "563.96" in text
        assert all(len(line) == len(lines[1]) for line in lines[2:])

    def test_format_table_width_mismatch(self):
        with pytest.raises(AnalysisError):
            format_table(["a"], [["x", "y"]])
