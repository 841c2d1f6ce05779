"""Whole-system invariants on randomized networks (fluid substrate).

These are the repo's failure-surface tests: arbitrary connected
topologies with random flow sets must keep the protocol's core
invariants — no forwarding drops under backpressure, fairness no worse
than plain 802.11, deterministic replay.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.spec import RunSpec

from helpers import FAST, random_scenario


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_gmp_no_forwarding_drops_on_random_networks(seed):
    result = RunSpec(
        **random_scenario(seed),
        protocol="gmp",
        substrate="fluid",
        duration=15.0,
        seed=seed,
        **FAST,
        capacity_pps=500.0,
    ).run()
    assert result.buffer_drops == 0, "backpressure must prevent drops"
    assert all(rate >= 0 for rate in result.flow_rates.values())


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_gmp_at_least_as_fair_as_plain(seed):
    kwargs = dict(
        random_scenario(seed), substrate="fluid", duration=25.0, seed=seed, capacity_pps=500.0
    )
    gmp = RunSpec(protocol="gmp", **FAST, **kwargs).run()
    plain = RunSpec(protocol="802.11", **kwargs).run()
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
    gmp = RunSpec(
        **random_scenario(375),
        protocol="gmp",
        substrate="fluid",
        duration=25.0,
        seed=375,
        **FAST,
        capacity_pps=500.0,
    ).run()
    assert gmp.flow_rates[4] > 0


def test_random_network_run_is_deterministic():
    kwargs = dict(
        protocol="gmp",
        substrate="fluid",
        duration=10.0,
        seed=11,
        **FAST,
        capacity_pps=500.0,
    )
    first = RunSpec(**random_scenario(7), **kwargs).run()
    second = RunSpec(**random_scenario(7), **kwargs).run()
    assert first.flow_rates == second.flow_rates
    assert first.extras["requests_issued"] == second.extras["requests_issued"]


def test_gmp_dcf_random_network_smoke():
    result = RunSpec(
        **random_scenario(3, num_nodes=6, num_flows=3),
        protocol="gmp",
        substrate="dcf",
        duration=20.0,
        seed=3,
        period=1.0,
    ).run()
    assert sum(result.flow_rates.values()) > 0
    # MAC-level drops are possible (retry exhaustion) but must be rare
    # relative to delivered traffic.
    delivered = sum(result.flow_rates.values()) * (result.duration - result.warmup)
    assert result.mac_drops < max(50, 0.1 * delivered)


@pytest.mark.parametrize("num_flows", [1, 2, 6])
def test_varied_flow_counts(num_flows):
    result = RunSpec(
        **random_scenario(5, num_flows=num_flows),
        protocol="gmp",
        substrate="fluid",
        duration=10.0,
        seed=5,
        **FAST,
        capacity_pps=500.0,
    ).run()
    assert len(result.flow_rates) == num_flows
