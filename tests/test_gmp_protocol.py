"""Integration tests for the GMP protocol engine (fluid substrate).

These exercise the full measurement/adjustment machinery quickly and
deterministically; the packet-level DCF behavior is covered by the
scenario tests and benchmarks.
"""

import pytest

from repro.analysis.maxmin_reference import weighted_maxmin_rates
from repro.core.config import GmpConfig
from repro.core.protocol import GmpProtocol
from repro.errors import ConfigError, ProtocolError
from repro.flows.flow import Flow, FlowSet
from repro.routing.link_state import link_state_routes
from repro.scenarios.figures import figure1, figure3
from repro.scenarios.spec import LITERAL, RunSpec
from repro.topology.builders import chain_topology
from repro.topology.cliques import maximal_cliques
from repro.topology.contention import ContentionGraph

from helpers import FAST, count_enumerations, uncapped


def run_fluid(duration, **scenario):
    return RunSpec(
        **scenario,
        protocol="gmp",
        substrate="fluid",
        duration=duration,
        seed=1,
        **FAST,
        capacity_pps=600.0,
    ).run()


def test_config_validation():
    with pytest.raises(ConfigError):
        GmpConfig(period=0.0)
    with pytest.raises(ConfigError):
        GmpConfig(beta=1.5)
    with pytest.raises(ConfigError):
        GmpConfig(omega_threshold=0.0)
    with pytest.raises(ConfigError):
        GmpConfig(queue_capacity=0)
    with pytest.raises(ConfigError):
        GmpConfig(big_gap_factor=1.0)
    with pytest.raises(ConfigError):
        GmpConfig(additive_increase=0.0)
    with pytest.raises(ConfigError):
        GmpConfig(violation_persistence=0)
    with pytest.raises(ConfigError):
        GmpConfig(removal_persistence=0)


def test_fig3_fluid_converges_to_near_maxmin():
    scenario = figure3()
    result = run_fluid(scenario="figure3", duration=40.0)
    routes = link_state_routes(scenario.topology)
    cliques = maximal_cliques(ContentionGraph(scenario.topology))
    reference = weighted_maxmin_rates(scenario.flows, routes, cliques, 600.0)
    for flow_id, rate in result.flow_rates.items():
        assert rate == pytest.approx(reference.rates[flow_id], rel=0.35)
    assert result.i_mm > 0.6


def test_fig2_fluid_shape():
    result = run_fluid(scenario="figure2", duration=40.0)
    rates = result.flow_rates
    # Clique-1 flows roughly equal; f1 substantially above them.
    mid = (rates[2] + rates[3] + rates[4]) / 3
    assert rates[1] > 1.4 * mid
    for flow_id in (2, 3, 4):
        assert rates[flow_id] == pytest.approx(mid, rel=0.35)


def test_weighted_fig2_orders_by_weight():
    result = run_fluid(scenario="figure2", weights=(1, 2, 1, 3), duration=40.0)
    rates = result.flow_rates
    assert rates[4] > rates[2] > rates[3]


def test_gmp_emits_rate_limits_and_history():
    result = run_fluid(scenario="figure3", duration=20.0)
    history = result.extras["limit_history"]
    assert set(history) == {1, 2, 3}
    periods = len(history[1])
    assert periods >= 30
    assert result.extras["requests_issued"] >= 0


def test_backpressure_no_drops_under_gmp():
    result = run_fluid(scenario="figure3", duration=20.0)
    assert result.buffer_drops == 0


def test_protocol_requires_registered_sources():
    topology = chain_topology(3)
    routes = link_state_routes(topology)
    flows = FlowSet([Flow(flow_id=1, source=0, destination=2)])
    from repro.mac.fluid import FluidMac
    from repro.sim.kernel import Simulator

    sim = Simulator()
    mac = FluidMac(sim, topology, capacity_pps=100.0)
    protocol = GmpProtocol(sim, topology, routes, flows, mac, stacks={})
    with pytest.raises(ProtocolError):
        protocol.start()


def test_register_source_twice_rejected():
    topology = chain_topology(3)
    routes = link_state_routes(topology)
    flows = FlowSet([Flow(flow_id=1, source=0, destination=2)])
    from repro.mac.fluid import FluidMac
    from repro.sim.kernel import Simulator
    from repro.flows.traffic import CbrSource

    sim = Simulator()
    mac = FluidMac(sim, topology, capacity_pps=100.0)
    protocol = GmpProtocol(sim, topology, routes, flows, mac, stacks={})
    source = CbrSource(sim, flows.get(1), lambda packet: True)
    protocol.register_source(1, source)
    with pytest.raises(ProtocolError):
        protocol.register_source(1, source)


def test_stamping_carries_mu_after_first_midpoint():
    result = RunSpec(
        scenario="figure3",
        protocol="gmp",
        substrate="fluid",
        duration=5.0,
        seed=1,
        period=1.0,
        capacity_pps=600.0,
    ).run()
    # Rate limits may or may not exist yet, but the protocol ran.
    assert result.extras["requests_issued"] >= 0


def test_single_destination_case_equalizes():
    """Paper §4: all flows to one destination (mesh gateway pattern)."""
    result = run_fluid(
        scenario=LITERAL,
        topology={
            "nodes": [[0.0, 0.0], [200.0, 0.0], [400.0, 0.0], [600.0, 0.0]],
            "flows": [[0, 3, 1.0, 800.0], [1, 3, 1.0, 800.0], [2, 3, 1.0, 800.0]],
        },
        duration=40.0,
    )
    rates = sorted(result.flow_rates.values())
    assert rates[0] > 0.5 * rates[-1]


def test_gmp_respects_weights_on_shared_bottleneck():
    result = run_fluid(
        scenario=LITERAL,
        topology={
            "nodes": [[0.0, 0.0], [200.0, 0.0], [400.0, 0.0]],
            "flows": [[0, 1, 1.0, 800.0], [1, 2, 3.0, 800.0]],
        },
        duration=40.0,
    )
    ratio = result.flow_rates[2] / max(result.flow_rates[1], 1e-9)
    assert 1.8 < ratio < 4.5, f"weighted ratio {ratio} should approach 3"


@pytest.mark.parametrize("substrate", ["fluid", "dcf"])
def test_run_scenario_builds_contention_and_cliques_once(monkeypatch, substrate):
    """One clique system per run, enumerated once, over the routed
    links: the MAC, GMP and the maxmin reference all read it instead of
    building a clique list each.  (Until ISSUE 24 this pinned one
    *global* graph + clique list shared through the runner's cache.)"""
    from repro.telemetry import Telemetry
    from repro.topology.cliques import CliqueSystem

    sizes = count_enumerations(monkeypatch)
    systems = []
    init = CliqueSystem.__init__

    def counting_init(self, *args, **kwargs):
        systems.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CliqueSystem, "__init__", counting_init)
    scenario = figure1()
    # The DCF refuses figure1's rate cap: there it runs uncapped.
    where = uncapped("figure1") if substrate == "dcf" else {"scenario": "figure1"}
    result = RunSpec(
        **where, protocol="gmp", substrate=substrate, duration=1.0, seed=0, **FAST
    ).run(telemetry=Telemetry(enabled=True))  # the reference is solved too
    (system,) = systems
    assert system.generation == 1
    # figure1 routes its two flows over 6 of its 8 links.
    assert sizes == [6] and len(scenario.topology.undirected_links()) == 8
    assert result.extras["cliques"] is system.cliques


def test_non_gmp_fluid_run_never_enumerates_the_global_cliques(monkeypatch):
    """Nothing but 2PP — whose phase 1 divides by each clique's full
    membership — ever hands Bron–Kerbosch more than the routed links:
    not the fluid MAC, not GMP, not the reference."""
    for protocol in ("802.11", "gmp", "2pp"):
        sizes = count_enumerations(monkeypatch)
        result = RunSpec(
            scenario="figure1", protocol=protocol, substrate="fluid", duration=1.0, seed=0
        ).run()
        assert sizes == ([6, 8] if protocol == "2pp" else [6]), protocol
        assert result.effective_throughput > 0
