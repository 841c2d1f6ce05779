"""Dynamic-workload tests: churn spec parsing, deterministic trace
building, the adversary's phase lock, GMP's dynamic flow lifecycle
(graft / teardown / post-departure audit), and the end-to-end churn
acceptance scenarios (conservation + replay on figure3, resilience
under back-to-back crashes combined with churn)."""

import pytest

from repro.analysis.resilience import min_rate_dip, per_arrival_convergence
from repro.churn import (
    ChurnSpec,
    build_trace,
    parse_churn_spec,
    routable_pairs,
)
from repro.churn.adversary import (
    ARRIVAL_PHASE,
    DEPARTURE_PHASE,
    rank_contending_pairs,
)
from repro.churn.spec import FlowArrival, FlowDeparture
from repro.core.protocol import GmpProtocol
from repro.core.virtual import GrandVirtualNetwork
from repro.errors import ChurnError, ConfigError, ProtocolError
from repro.flows.flow import Flow, FlowSet
from repro.routing.link_state import link_state_routes
from repro.scenarios.figures import figure3
from repro.scenarios.spec import LITERAL, RunSpec, replay_check
from repro.sim.rng import RngRegistry
from repro.topology.builders import chain_topology

from helpers import FAST


def chain_routes(nodes=4, flows=None):
    topology = chain_topology(nodes)
    routes = link_state_routes(topology)
    flows = FlowSet(
        flows
        if flows is not None
        else [Flow(flow_id=1, source=0, destination=nodes - 1)]
    )
    return routes, flows


# --- spec parsing ----------------------------------------------------------------


def test_parse_round_trips_through_to_text():
    spec = parse_churn_spec(
        "poisson:rate=0.3,mean_hold=6,hold=exp,max_flows=4,traffic=cbr"
    )
    assert spec.model == "poisson"
    assert spec.rate == pytest.approx(0.3)
    assert spec.mean_hold == pytest.approx(6.0)
    assert spec.hold == "exp"
    assert spec.max_flows == 4
    assert spec.traffic == "cbr"
    assert parse_churn_spec(spec.to_text()) == spec


def test_parse_adversary_round_trips():
    spec = parse_churn_spec("adversary:burst=3,on=2,off=1")
    assert spec.model == "adversary"
    assert (spec.burst, spec.on_periods, spec.off_periods) == (3, 2, 1)
    assert parse_churn_spec(spec.to_text()) == spec


def test_to_text_omits_defaults():
    assert ChurnSpec().to_text() == "poisson"


def test_parse_rejects_malformed_specs():
    for text in (
        "tsunami:rate=1",  # unknown model
        "poisson:rate",  # missing value
        "poisson:flux=1",  # unknown key
        "poisson:rate=fast",  # bad number
        "poisson:rate=0",  # non-positive rate
        "poisson:hold=pareto,alpha=1.0",  # infinite-mean Pareto
        "poisson:start=5,stop=5",  # empty window
        "adversary:burst=0",  # degenerate wave
    ):
        with pytest.raises(ChurnError):
            parse_churn_spec(text)


def test_spec_validates_traffic_model():
    with pytest.raises(ChurnError, match="traffic"):
        ChurnSpec(traffic="telepathy")


# --- trace building --------------------------------------------------------------


def test_routable_pairs_excludes_static_pairs():
    routes, flows = chain_routes(3)
    pairs = routable_pairs(routes, FlowSet([Flow(flow_id=1, source=0, destination=2)]))
    assert (0, 2) not in pairs
    assert (2, 0) in pairs and (0, 1) in pairs


def trace_key(trace):
    return [
        (
            e.at,
            e.flow.flow_id if isinstance(e, FlowArrival) else e.flow_id,
            isinstance(e, FlowDeparture),
        )
        for e in trace.events
    ]


def test_trace_is_a_pure_function_of_the_seed():
    routes, flows = chain_routes()
    spec = ChurnSpec(rate=0.5, mean_hold=5.0, hold="pareto", alpha=1.5)
    first = build_trace(
        spec, routes=routes, flows=flows, duration=60.0, rng=RngRegistry(7)
    )
    second = build_trace(
        spec, routes=routes, flows=flows, duration=60.0, rng=RngRegistry(7)
    )
    third = build_trace(
        spec, routes=routes, flows=flows, duration=60.0, rng=RngRegistry(8)
    )
    assert trace_key(first) == trace_key(second)
    assert trace_key(first) != trace_key(third)


def test_trace_respects_cap_window_and_ordering():
    routes, flows = chain_routes()
    spec = ChurnSpec(rate=3.0, mean_hold=20.0, hold="exp", max_flows=2)
    trace = build_trace(
        spec, routes=routes, flows=flows, duration=30.0, rng=RngRegistry(1)
    )
    assert trace.skipped_at_cap > 0
    assert all(event.at < 30.0 for event in trace.events)
    departures = {d.flow_id: d.at for d in trace.departures()}
    for arrival in trace.arrivals():
        departed = departures.get(arrival.flow.flow_id)
        assert departed is None or departed > arrival.at
    # Churned flow ids start above the static ids.
    assert min(a.flow.flow_id for a in trace.arrivals()) == 2


def test_trace_include_static_retires_scenario_flows():
    routes, flows = chain_routes()
    spec = ChurnSpec(rate=0.2, mean_hold=4.0, hold="exp", include_static=True)
    trace = build_trace(
        spec, routes=routes, flows=flows, duration=100.0, rng=RngRegistry(3)
    )
    assert any(d.flow_id == 1 for d in trace.departures())


def test_trace_needs_a_routable_pair():
    topology = chain_topology(2)
    routes = link_state_routes(topology)
    flows = FlowSet(
        [
            Flow(flow_id=1, source=0, destination=1),
            Flow(flow_id=2, source=1, destination=0),
        ]
    )
    with pytest.raises(ChurnError, match="no routable"):
        build_trace(
            ChurnSpec(), routes=routes, flows=flows, duration=10.0, rng=RngRegistry(1)
        )


# --- the adversary ---------------------------------------------------------------


def test_adversary_waves_are_phase_locked_to_the_period():
    routes, flows = chain_routes(5)
    spec = ChurnSpec(model="adversary", burst=2, on_periods=2, off_periods=2)
    period = 2.0
    trace = build_trace(
        spec, routes=routes, flows=flows, duration=20.0, rng=RngRegistry(1), period=period
    )
    arrival_times = sorted({a.at for a in trace.arrivals()})
    wave_gap = (spec.on_periods + spec.off_periods) * period
    assert arrival_times[0] == pytest.approx(ARRIVAL_PHASE * period)
    assert arrival_times[1] == pytest.approx(arrival_times[0] + wave_gap)
    lifetime = spec.on_periods * period - DEPARTURE_PHASE * period
    for departure in trace.departures():
        arrival = next(
            a for a in trace.arrivals() if a.flow.flow_id == departure.flow_id
        )
        assert departure.at - arrival.at == pytest.approx(lifetime)
    # No randomness: two builds agree even under different seeds.
    again = build_trace(
        spec, routes=routes, flows=flows, duration=20.0, rng=RngRegistry(99), period=period
    )
    assert trace_key(trace) == trace_key(again)


def test_adversary_targets_the_contended_pairs_first():
    routes, flows = chain_routes(5)  # static flow 0 -> 4 covers the whole chain
    ranked = rank_contending_pairs(routes, flows)

    def overlap(pair):
        links = {
            tuple(sorted(link)) for link in routes.path_links(pair[0], pair[1])
        }
        static = {
            tuple(sorted(link)) for link in routes.path_links(0, 4)
        }
        return len(links & static)

    assert overlap(ranked[0]) >= overlap(ranked[-1])
    assert overlap(ranked[0]) > 0


# --- GMP dynamic flow lifecycle --------------------------------------------------


def test_gvn_add_and_remove_flow_is_clean():
    chain = chain_topology(5)
    routes = link_state_routes(chain)
    flows = FlowSet([Flow(flow_id=1, source=0, destination=4)])
    gvn = GrandVirtualNetwork(routes, flows)
    late = Flow(flow_id=2, source=2, destination=4)
    gvn.add_flow(late)
    assert gvn.flow_links(2) == [(2, 3), (3, 4)]
    assert 2 in gvn.local_flows(2, 4)
    gvn.remove_flow(late)
    with pytest.raises(ProtocolError):
        gvn.flow_links(2)
    assert gvn.flow_residue(2) == []
    # Flow 1's structure survives the removal untouched.
    assert gvn.virtual_links(4) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_gvn_refcounts_shared_virtual_links():
    chain = chain_topology(4)
    routes = link_state_routes(chain)
    flows = FlowSet(
        [
            Flow(flow_id=1, source=0, destination=3),
            Flow(flow_id=2, source=1, destination=3),
        ]
    )
    gvn = GrandVirtualNetwork(routes, flows)
    gvn.remove_flow(flows.get(2))
    # Links (1,2) and (2,3) are still carried by flow 1.
    assert gvn.virtual_links(3) == [(0, 1), (1, 2), (2, 3)]
    assert gvn.flow_residue(2) == []


def gmp_fixture():
    from repro.mac.fluid import FluidMac
    from repro.sim.kernel import Simulator

    topology = chain_topology(4)
    routes = link_state_routes(topology)
    flows = FlowSet([Flow(flow_id=1, source=0, destination=3)])
    sim = Simulator()
    mac = FluidMac(sim, topology, capacity_pps=100.0)
    protocol = GmpProtocol(sim, topology, routes, flows, mac, stacks={})
    return sim, flows, protocol


def test_gmp_add_then_remove_flow_audits_clean():
    from repro.flows.traffic import CbrSource

    sim, flows, protocol = gmp_fixture()
    protocol.register_source(1, CbrSource(sim, flows.get(1), lambda p: True))
    late = Flow(flow_id=2, source=1, destination=3)
    protocol.add_flow(late, CbrSource(sim, late, lambda p: True))
    assert 2 in flows
    protocol.remove_flow(2)
    assert 2 not in flows
    assert protocol.departure_audit(2) == []
    # The history keeps answering for the archived flow.
    assert protocol.limit_history(2)[-1] is None


def test_gmp_remove_unknown_flow_raises():
    _sim, _flows, protocol = gmp_fixture()
    with pytest.raises(ProtocolError, match="unknown flow"):
        protocol.remove_flow(99)


# --- runner integration ----------------------------------------------------------


def churn_run(**overrides):
    kwargs = dict(
        scenario="figure3",
        protocol="gmp",
        substrate="fluid",
        duration=40.0,
        seed=3,
        **FAST,
        churn="poisson:rate=0.25,mean_hold=6,hold=exp,max_flows=3,traffic=cbr",
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs).run()


def test_churn_run_reports_and_conserves(monkeypatch):
    from repro.scenarios import spec as spec_module

    scenarios = []
    build = RunSpec.build_scenario

    def keep(spec):
        scenarios.append(build(spec))
        return scenarios[-1]

    monkeypatch.setattr(spec_module.RunSpec, "build_scenario", keep)
    result = churn_run()
    report = result.extras["churn"]
    assert report.arrivals > 0
    assert report.clean  # honest departures leave zero GMP state behind
    assert result.extras["invariants"].violations() == []
    # The run's scenario object is not consumed by the churn run.
    (scenario,) = scenarios
    assert len(scenario.flows) == len(figure3().flows)
    # Every flow that ever existed is measured and sampled.
    for flow_id, (arrival, departure) in result.flow_lifetimes.items():
        assert flow_id in result.flow_rates
        assert 0.0 <= arrival < departure <= result.duration
    lengths = {len(series) for series in result.interval_rates.values()}
    assert lengths == {len(result.interval_bounds)}
    # Per-arrival convergence is computed for churned arrivals only.
    convergence = result.extras["per_arrival_convergence"]
    assert set(convergence) == {
        fid for fid, (start, _) in result.flow_lifetimes.items() if start > 0.0
    }


def test_churn_run_replays_bit_for_bit():
    report, _first, _second = replay_check(
        RunSpec(
            scenario="figure3",
            duration=20.0,
            seed=5,
            period=0.5,
            churn="poisson:rate=0.3,mean_hold=5,hold=exp,traffic=cbr",
        )
    )
    assert report.matched, report.render()


def test_planted_leak_is_caught_by_the_departure_audit():
    result = churn_run(churn="poisson:rate=0.4,mean_hold=4,hold=exp,traffic=cbr,leak=1")
    report = result.extras["churn"]
    assert report.departures > 0
    assert not report.clean
    messages = [line for lines in report.residues.values() for line in lines]
    assert any("still" in line for line in messages)


def test_churn_rejects_the_2pp_baseline():
    with pytest.raises(ConfigError, match="churn"):
        churn_run(protocol="2pp")


def test_adversary_churn_runs_clean_end_to_end():
    result = churn_run(churn="adversary:burst=2,on=2,off=2,traffic=cbr", duration=30.0)
    report = result.extras["churn"]
    assert report.arrivals > 0
    assert report.clean
    assert result.extras["invariants"].violations() == []


# --- a live flow set that is (or becomes) empty -----------------------------------

#: The Figure-3 chain with no static flow, and churn that fills it.
EMPTY_START = dict(
    scenario=LITERAL,
    topology={"nodes": [[0.0, 0.0], [200.0, 0.0], [400.0, 0.0], [600.0, 0.0]], "flows": []},
    churn="poisson:rate=0.2,mean_hold=1,max_flows=2",
)


def test_dynamic_run_may_start_with_no_flows():
    """With no flow to size the default clique capacity from, the
    runner falls back to Flow's default packet size."""
    result = RunSpec(
        **EMPTY_START, protocol="gmp", substrate="fluid", duration=5.0, seed=0
    ).run()
    assert result.extras["churn"].arrivals > 0
    assert any(rate > 0 for rate in result.flow_rates.values())


def test_reference_of_an_emptied_live_flow_set_is_empty():
    """Every churned flow has departed when the run ends: the reference
    the health tick, /flows/<id> and the end-of-run extras share is
    empty instead of an AnalysisError that loses the finished run."""
    from repro.telemetry import Telemetry

    result = RunSpec(
        **EMPTY_START, protocol="gmp", substrate="fluid", duration=28.0, seed=0,
        capacity_pps=600.0,
    ).run(telemetry=Telemetry(enabled=True))  # fmt: skip
    assert result.extras["churn"].arrivals == result.extras["churn"].departures > 0
    assert result.extras["maxmin_reference"] == {}
    assert result.extras["maxmin_solution"].bottlenecks == {}


# --- resilience under churn + back-to-back faults --------------------------------


def test_back_to_back_crashes_with_churn_stay_conservative():
    """Two crash/recover cycles of relay node 2 while flows churn: the
    run must stay packet-conservative, tear every departure down
    cleanly, and still produce per-arrival convergence data."""
    faults = "crash:2@10;recover:2@16;crash:2@24;recover:2@30"
    result = churn_run(duration=48.0, faults=faults, seed=7)
    report = result.extras["churn"]
    assert result.extras["invariants"].violations() == []
    assert report.clean
    fault_log = [text for _when, text in result.extras["faults"]]
    assert sum("crash" in text for text in fault_log) == 2
    assert sum("recover" in text for text in fault_log) == 2
    # Resilience metrics stay computable on the static flows' series.
    static_series = {
        fid: series
        for fid, series in result.interval_rates.items()
        if result.flow_lifetimes.get(fid, (0.0, 0.0))[0] == 0.0
    }
    dip = min_rate_dip(
        static_series,
        result.rate_interval,
        start=11.0,
        end=16.0,
        bounds=result.interval_bounds,
    )
    assert dip < 5.0  # a flow through the dead relay went silent
    convergence = result.extras["per_arrival_convergence"]
    assert isinstance(convergence, dict)


# --- per-arrival convergence (unit) ----------------------------------------------


def test_per_arrival_convergence_measures_from_arrival():
    rates = {5: [0.0, 0.0, 0.0, 60.0, 90.0, 100.0, 98.0, 101.0, 99.0, 100.0]}
    settled = per_arrival_convergence(
        rates, 1.0, lifetimes={5: (3.0, 10.0)}
    )
    # Level = mean of the last ceil(0.25 * 7) = 2 in-life samples
    # (99.5); the first three consecutive in-band samples are windows
    # 4..6, so the flow settled at t=5 — two seconds after arriving.
    assert settled == {5: pytest.approx(2.0)}


def test_per_arrival_convergence_none_for_short_or_dead_flows():
    rates = {
        1: [0.0] * 10,
        2: [0.0] * 8 + [50.0, 50.0],
    }
    settled = per_arrival_convergence(
        rates, 1.0, lifetimes={1: (0.0, 10.0), 2: (8.0, 10.0)}
    )
    assert settled == {1: None, 2: None}  # never got going / too short


def test_per_arrival_convergence_validates_inputs():
    from repro.errors import AnalysisError

    with pytest.raises(AnalysisError):
        per_arrival_convergence({}, 1.0, lifetimes={1: (0.0, 5.0)}, hold=0)
    with pytest.raises(AnalysisError, match="no rate series"):
        per_arrival_convergence(
            {2: [1.0, 2.0]}, 1.0, lifetimes={1: (0.0, 2.0)}
        )
