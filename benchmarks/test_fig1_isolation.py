"""E-fig1: the per-destination queueing argument of Figure 1 / §5.1.

Two flows share nodes i and j; f1 crosses the slow bottleneck (z,t),
f2 does not.  With one shared backpressured queue per node, the
backpressure from (z,t) saturates the shared queues and drags f2 down
toward f1's bottleneck rate (paper: f2 = 1 instead of its desirable
5).  With one queue per destination, f2 is isolated and reaches its
desirable rate.
"""

from repro.analysis.report import format_table
from repro.scenarios.figures import figure1
from repro.scenarios.spec import RunSpec


def run_pair():
    scenario = figure1()
    results = {}
    for protocol in ("backpressure-shared", "backpressure-perdest"):
        results[protocol] = RunSpec(
            scenario="figure1",
            protocol=protocol,
            substrate="fluid",
            duration=60.0,
            seed=1,
            capacity_pps=600.0,
        ).run()
    return scenario, results


def test_fig1_isolation(once):
    scenario, results = once(run_pair)

    shared = results["backpressure-shared"]
    isolated = results["backpressure-perdest"]
    desirable = scenario.flows.get(2).desired_rate
    bottleneck = scenario.rate_caps[(4, 5)]

    rows = [
        ["f1 (via bottleneck)", shared.flow_rates[1], isolated.flow_rates[1]],
        ["f2 (clear path)", shared.flow_rates[2], isolated.flow_rates[2]],
    ]
    print()
    print(
        format_table(
            ["flow", "one queue per node", "one queue per destination"],
            rows,
            title=(
                f"Figure 1: isolation (desirable={desirable:g}, "
                f"bottleneck={bottleneck:g} pkt/s)"
            ),
        )
    )

    # f1 is pinned at the bottleneck either way.
    assert shared.flow_rates[1] <= bottleneck * 1.15
    assert isolated.flow_rates[1] <= bottleneck * 1.15
    # Shared queueing drags f2 down toward f1's rate...
    assert shared.flow_rates[2] < 0.5 * desirable
    # ...while per-destination queueing lets it reach its desire.
    assert isolated.flow_rates[2] > 0.85 * desirable
