"""E-conv: convergence of GMP toward the centralized maxmin reference.

No figure in the paper reports this directly, but §6's design
(AIMD-style rate limits around the four conditions) predicts
convergence to a limit cycle of amplitude ~β around the maxmin point.
We measure time-to-band and residual oscillation on the Figure-3
chain over the fluid substrate (deterministic, so the trajectory is
attributable to the protocol, not to MAC randomness).
"""

from repro.analysis.convergence import convergence_time, oscillation_amplitude
from repro.analysis.maxmin_reference import weighted_maxmin_rates
from repro.analysis.report import format_table
from repro.routing.link_state import link_state_routes
from repro.scenarios.spec import RunSpec
from repro.topology.cliques import maximal_cliques
from repro.topology.contention import ContentionGraph

from helpers import FAST

CAPACITY = 600.0


def run():
    spec = RunSpec(
        scenario="figure3",
        protocol="gmp",
        substrate="fluid",
        duration=60.0,
        seed=1,
        **FAST,
        capacity_pps=CAPACITY,
    )
    scenario = spec.build_scenario()
    result = spec.run()
    routes = link_state_routes(scenario.topology)
    cliques = maximal_cliques(ContentionGraph(scenario.topology))
    reference = weighted_maxmin_rates(scenario.flows, routes, cliques, CAPACITY)
    return scenario, result, reference


def test_convergence(once):
    scenario, result, reference = once(run)

    history = result.extras["limit_history"]
    rows = []
    for flow_id in sorted(result.flow_rates):
        target = reference.rates[flow_id]
        trajectory = [
            limit if limit is not None else float("nan") for limit in history[flow_id]
        ]
        # Use the achieved-rate target with a generous band; None
        # limits (uncapped) count as converged when the flow is
        # backpressure-bound near the target.
        numeric = [value for value in trajectory if value == value]
        settle = (
            convergence_time(numeric, target, tolerance=0.35, hold=5)
            if numeric
            else None
        )
        amplitude = oscillation_amplitude(numeric) if numeric else float("nan")
        rows.append(
            [
                f"f{flow_id}",
                result.flow_rates[flow_id],
                target,
                "-" if settle is None else settle * FAST["period"],
                amplitude,
            ]
        )
    print()
    print(
        format_table(
            ["flow", "rate", "maxmin ref", "settle time (s)", "tail osc"],
            rows,
            title="GMP convergence on Figure 3 (fluid substrate)",
        )
    )

    # Final rates within 35% of the reference for every flow.
    for flow_id, rate in result.flow_rates.items():
        assert abs(rate - reference.rates[flow_id]) < 0.35 * reference.rates[flow_id]
    # Fairness at the end of the run.
    assert result.i_mm > 0.6
