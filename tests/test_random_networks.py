"""Whole-system invariants on randomized networks (fluid substrate).

These are the repo's failure-surface tests: arbitrary connected
topologies with random flow sets must keep the protocol's core
invariants — no forwarding drops under backpressure, fairness no worse
than plain 802.11, deterministic replay.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GmpConfig
from repro.scenarios.runner import run_scenario

from helpers import random_scenario

FAST = GmpConfig(period=0.5, additive_increase=4.0)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_gmp_no_forwarding_drops_on_random_networks(seed):
    scenario = random_scenario(seed)
    result = run_scenario(
        scenario,
        protocol="gmp",
        substrate="fluid",
        duration=15.0,
        seed=seed,
        gmp_config=FAST,
        capacity_pps=500.0,
    )
    assert result.buffer_drops == 0, "backpressure must prevent drops"
    assert all(rate >= 0 for rate in result.flow_rates.values())


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_gmp_at_least_as_fair_as_plain(seed):
    scenario = random_scenario(seed)
    kwargs = dict(substrate="fluid", duration=25.0, seed=seed, capacity_pps=500.0)
    gmp = run_scenario(scenario, protocol="gmp", gmp_config=FAST, **kwargs)
    plain = run_scenario(scenario, protocol="802.11", **kwargs)
    # All flows alive under GMP.
    assert min(gmp.flow_rates.values()) > 0
    # Equality index no worse than plain 802.11 (generous slack for
    # short runs).
    assert gmp.i_eq >= plain.i_eq - 0.1


@pytest.mark.xfail(
    strict=True,
    reason="known GMP starvation deadlock (ROADMAP item 1): flow 4 (0->7) "
    "delivers 0.0 pkt/s forever while plain 802.11 gives it 43.6; the fix "
    "must remove this mark",
)
def test_gmp_keeps_every_flow_alive_on_random_scenario_375():
    """8 nodes, flows 7->0, 2->5, 5->2 and 0->7: opposing flows over
    shared relays.  Pinned so the bug is visible on every run instead of
    red on the draws that happen to pick seed 375."""
    gmp = run_scenario(
        random_scenario(375),
        protocol="gmp",
        substrate="fluid",
        duration=25.0,
        seed=375,
        gmp_config=FAST,
        capacity_pps=500.0,
    )
    assert gmp.flow_rates[4] > 0


def test_random_network_run_is_deterministic():
    scenario = random_scenario(7)
    kwargs = dict(
        protocol="gmp",
        substrate="fluid",
        duration=10.0,
        seed=11,
        gmp_config=FAST,
        capacity_pps=500.0,
    )
    first = run_scenario(scenario, **kwargs)
    second = run_scenario(random_scenario(7), **kwargs)
    assert first.flow_rates == second.flow_rates
    assert first.extras["requests_issued"] == second.extras["requests_issued"]


def test_gmp_dcf_random_network_smoke():
    scenario = random_scenario(3, num_nodes=6, num_flows=3)
    result = run_scenario(
        scenario,
        protocol="gmp",
        substrate="dcf",
        duration=20.0,
        seed=3,
        gmp_config=GmpConfig(period=1.0),
    )
    assert sum(result.flow_rates.values()) > 0
    # MAC-level drops are possible (retry exhaustion) but must be rare
    # relative to delivered traffic.
    delivered = sum(result.flow_rates.values()) * (result.duration - result.warmup)
    assert result.mac_drops < max(50, 0.1 * delivered)


@pytest.mark.parametrize("num_flows", [1, 2, 6])
def test_varied_flow_counts(num_flows):
    scenario = random_scenario(5, num_flows=num_flows)
    result = run_scenario(
        scenario,
        protocol="gmp",
        substrate="fluid",
        duration=10.0,
        seed=5,
        gmp_config=FAST,
        capacity_pps=500.0,
    )
    assert len(result.flow_rates) == num_flows
