"""The run's clique system against the global clique list as oracle.

A run reads one :class:`~repro.topology.cliques.CliqueSystem`: the
maximal cliques of the contention graph induced on the routed links
``U``.  Against the cliques of the *whole* topology that drops exactly
the dominated projections — a global clique whose members inside ``U``
are a strict subset of another's.  For capacity constraints those are
redundant (``==`` on floats, below); for GMP's bandwidth-saturated
condition they are not a pure refactor, so the differential here runs
whole GMP sessions both ways and the one verdict that can differ is
constructed and pinned by name.

The oracle is the same class seeded with every link of the topology:
the contention graph induced on all links is the contention graph.
"""

from itertools import chain

import pytest
from hypothesis import settings

from repro.analysis.maxmin_reference import weighted_maxmin_rates
from repro.core.conditions import find_bandwidth_violation
from repro.obs.serve import ServeController
from repro.routing.link_state import link_state_routes
from repro.scenarios import runner as runner_module
from repro.scenarios.spec import RunSpec
from repro.scenarios.sweep import SCENARIO_FACTORIES
from repro.topology.builders import chain_topology
from repro.topology.cliques import CliqueSystem, maximal_cliques
from repro.topology.contention import ContentionGraph

from helpers import FAST, count_enumerations, random_scenario, uncapped

#: CI's on-demand ``fuzz deep`` job runs under the ``explore`` Hypothesis
#: profile (tests/conftest.py); there the sweeps below are complete
#: instead of the fixed tier-1 subset.
DEEP = not settings().derandomize

RANDOM_SEEDS = range(150) if DEEP else range(0, 150, 7)
RUN_SEEDS = [1, 2] if DEEP else [1]
#: (scenario, simulated seconds) of the named GMP/fluid differential.
#: Only where flows leave links unrouted can the two lists differ:
#: figure1 (2 global cliques project onto U as 1 maximal + 1 dominated),
#: scale100 (338 global, 101 distinct projections, 16 maximal), scale300
#: (2,219 / 353 / 37).  figure2/2w/3/4 route over every link, so there
#: the system *is* the global list and the pair checks only that.
if DEEP:
    NAMED_FLUID = [
        ("figure1", 60.0), ("figure2", 100.0), ("figure2w", 100.0),
        ("figure3", 100.0), ("figure4", 100.0),
        ("scale100", 40.0), ("scale300", 60.0), ("scale300c", 40.0),
    ]  # fmt: skip
else:
    NAMED_FLUID = [
        ("figure1", 60.0), ("figure2", 30.0), ("figure2w", 30.0), ("figure4", 30.0),
        ("scale100", 40.0), ("scale300", 20.0),
    ]  # fmt: skip
REFERENCE_SCENARIOS = [
    "figure1", "figure2", "figure2w", "figure3", "figure4",
    "scale100", "scale300", "scale300c",
] + (["scale1000"] if DEEP else [])  # fmt: skip


def global_system(topology, links=()):
    """The oracle: every link is in the universe from the start."""
    return CliqueSystem(topology, topology.undirected_links())


def observables(result):
    extras = result.extras
    return {
        "flow_rates": result.flow_rates,
        "events": extras["events_processed"],
        "drops": (result.buffer_drops, result.mac_drops),
        "rate_limits": extras["rate_limits"],
        "violations_found": extras["violations_found"],
        "requests_issued": extras["requests_issued"],
    }


def assert_gmp_runs_agree(monkeypatch, **fields):
    spec = RunSpec(protocol="gmp", **fields)
    with monkeypatch.context() as patch:
        patch.setattr(runner_module, "CliqueSystem", global_system)
        oracle = spec.run()
    induced = spec.run()
    assert observables(induced) == observables(oracle)
    return induced


# --- (i) whole GMP runs: global list vs the system ------------------------------


@pytest.mark.parametrize("name,duration", NAMED_FLUID)
@pytest.mark.parametrize("seed", RUN_SEEDS)
def test_gmp_fluid_run_is_the_global_list_run(monkeypatch, name, duration, seed):
    assert_gmp_runs_agree(
        monkeypatch,
        scenario=name,
        substrate="fluid",
        duration=duration,
        seed=seed,
    )


@pytest.mark.parametrize("name", ["figure1", "figure2", "figure2w", "figure4"])
def test_gmp_dcf_run_is_the_global_list_run(monkeypatch, name):
    # DCF needs no clique constraints to share the channel: only GMP's
    # bandwidth-saturated condition reads the system here.  figure1 runs
    # without its rate cap, which the DCF refuses.
    assert_gmp_runs_agree(
        monkeypatch,
        **uncapped(name),
        substrate="dcf",
        duration=12.0 if DEEP else 4.0,
        seed=1,
        **FAST,
    )


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_gmp_run_on_random_scenario_is_the_global_list_run(monkeypatch, seed):
    """8 nodes in 700 m x 700 m, four flows, up to 39 violations in
    15 s.  Dense: most of these graphs are a single clique, so the sweep
    mainly shows that growth, labels and the shared object change
    nothing; the dominated projections live in the named scenarios."""
    assert_gmp_runs_agree(
        monkeypatch,
        **random_scenario(seed),
        substrate="fluid",
        duration=15.0,
        seed=seed,
        **FAST,
        capacity_pps=500.0,
    )


# --- (ii) the maxmin reference: dominated cliques are redundant constraints -----


@pytest.mark.parametrize("name", REFERENCE_SCENARIOS)
def test_reference_rates_over_the_system_equal_the_global_solve(name):
    scenario = SCENARIO_FACTORIES[name]()
    topology, flows = scenario.topology, scenario.flows
    routes = link_state_routes(topology)
    paths = (routes.path_links(flow.source, flow.destination) for flow in flows)
    system = CliqueSystem(topology, chain.from_iterable(paths))
    everything = maximal_cliques(ContentionGraph(topology))
    assert len(system.cliques) <= len(everything)
    induced = weighted_maxmin_rates(flows, routes, system.cliques, 600.0)
    oracle = weighted_maxmin_rates(flows, routes, everything, 600.0)
    # == on floats, every flow: a dominated clique never sets the step.
    assert induced.rates == oracle.rates
    assert induced.normalized == oracle.normalized


# --- (iii) the verdict the induced system changes -------------------------------


def bandwidth_verdict(system, victim, occupancy, link_mus, beta=0.1):
    """``find_bandwidth_violation`` fed the way
    ``GmpProtocol._evaluate_bandwidth_conditions`` feeds it."""
    cliques = system.cliques_of(victim)
    return find_bandwidth_violation(
        link=victim,
        bw_saturated_vlink_mus={9: link_mus[victim]},
        clique_occupancies={
            clique.clique_id: sum(occupancy.get(member, 0.0) for member in clique.links)
            for clique in cliques
        },
        clique_link_mus={
            clique.clique_id: {
                member: link_mus[member] for member in clique.links if member in link_mus
            }
            for clique in cliques
        },
        beta=beta,
    )


def test_dominated_saturated_projection_no_longer_excuses_the_victim():
    """Paper §6.3: a bandwidth-saturated link satisfies the condition
    when it holds the (β-)largest normalized rate in *at least one*
    saturated clique it belongs to.

    chain(6) has the proper cliques A = {01, 12, 23, 34} and
    B = {12, 23, 34, 45}; traffic is routed over (1,2) and (4,5) only.
    Measured occupancy is zero off ``U``, so A's is that of (1,2) alone
    and B's adds (4,5)'s 4 %: within β = 10 % of each other, both count
    as saturated.  (4,5) carries the larger normalized rate.

    * Global list: A is a saturated clique in which the victim (1,2) is
      largest — it has no routed rival there — so the condition holds
      and nobody is asked to yield.
    * The system: on ``U`` A projects to {(1,2)}, a strict subset of
      B's {(1,2), (4,5)}, so only B exists; there (4,5) is larger and
      the victim reports a violation.

    This is the one verdict the induced system changes (a link of
    ``M \\ D`` with the larger normalized rate yet under β of the
    clique's airtime); 0 of 166 whole-run pairs hit it (docs/PROTOCOL.md).
    """
    chain = chain_topology(6)
    victim, rival = (1, 2), (4, 5)
    occupancy = {victim: 0.90, rival: 0.04}
    link_mus = {victim: 100.0, rival: 200.0}

    oracle = global_system(chain)
    assert sorted(map(len, (c.links for c in oracle.cliques_of(victim)))) == [4, 4]
    assert bandwidth_verdict(oracle, victim, occupancy, link_mus) is None

    system = CliqueSystem(chain, [victim, rival])
    (only,) = system.cliques_of(victim)
    assert only.links == {victim, rival}
    violation = bandwidth_verdict(system, victim, occupancy, link_mus)
    assert violation is not None
    assert violation.clique_maxes == ((only.clique_id, 200.0),)

    # Outside the β band the dominated clique is not saturated and both
    # readings agree.
    busy_rival = {victim: 0.60, rival: 0.35}
    assert bandwidth_verdict(oracle, victim, busy_rival, link_mus) is not None
    assert bandwidth_verdict(system, victim, busy_rival, link_mus) is not None


# --- (iv) growth ----------------------------------------------------------------


def test_system_grows_by_membership_test_or_one_enumeration():
    chain = chain_topology(6)
    system = CliqueSystem(chain, [(1, 2), (5, 4)])
    assert system.generation == 1
    assert system.links == [(1, 2), (4, 5)]
    assert not system.add_links([(2, 1), (4, 5)]) and system.generation == 1
    assert system.add_links([(0, 1), (1, 2)]) and system.generation == 2
    assert [clique.sorted_links() for clique in system.cliques] == [
        [(0, 1), (1, 2)],
        [(1, 2), (4, 5)],
    ]
    # Either direction answers; a link outside U is in no clique.
    assert system.cliques_of((1, 0)) == system.cliques_of((0, 1)) == system.cliques[:1]
    assert system.cliques_of((2, 3)) == []
    # An empty system is legal: a dynamic run may start with no flows.
    assert CliqueSystem(chain).cliques == [] and CliqueSystem(chain).generation == 0


def test_graft_over_unseen_links_grows_the_run_system_once(monkeypatch):
    """figure1 routes its two flows over 6 of its 8 links.  ``POST
    /flows`` 0->1 is routed over the unseen (0,1): registration grows
    the system, and GMP and the MAC — readers of the one object — see
    the new clique at their next evaluation.  A second graft, 2->3,
    rides a known link and costs a membership test."""
    sizes = count_enumerations(monkeypatch)
    controller = ServeController(interval=0.5)
    controller.submit("add_flow", {"source": 0, "destination": 1})
    controller.submit("add_flow", {"source": 2, "destination": 3})
    result = RunSpec(
        scenario="figure1", protocol="gmp", substrate="fluid", duration=6.0, seed=1, period=0.5
    ).run(control=controller)
    session = controller.handle
    system = session.system
    assert session.gmp.system is system and session.mac.system is system
    assert sizes == [6, 7] and system.generation == 2
    assert (0, 1) in system.links and (4, 6) not in system.links
    assert system.cliques_of((0, 1)) and system.memberships[(0, 1)]
    # Both grafts carried traffic under the grown system.
    assert result.flow_rates[3] > 0 and result.flow_rates[4] > 0
