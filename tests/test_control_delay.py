"""Control-plane latency modeling (paper's separate adjustment period)."""

import pytest

from repro.core.config import GmpConfig
from repro.errors import ConfigError
from repro.scenarios.spec import RunSpec


def run(delay, duration=30.0):
    return RunSpec(
        scenario="figure3",
        protocol="gmp",
        substrate="fluid",
        duration=duration,
        seed=1,
        period=0.5,
        gmp={"additive_increase": 4.0, "control_delay_periods": delay},
        capacity_pps=600.0,
    ).run()


def test_negative_delay_rejected():
    with pytest.raises(ConfigError):
        GmpConfig(control_delay_periods=-1)


def test_delayed_control_still_converges():
    """With the paper's alternating-period timing (delay 1) GMP still
    reaches a fair allocation, just a bit later."""
    delayed = run(1)
    assert delayed.i_mm > 0.55
    assert min(delayed.flow_rates.values()) > 0


def test_delay_changes_trajectory_not_fixed_point():
    instant = run(0)
    delayed = run(1)
    # Same scenario, same seed: trajectories differ...
    assert instant.extras["limit_history"] != delayed.extras["limit_history"]
    # ...but the operating points end up comparable.
    for flow_id in instant.flow_rates:
        assert delayed.flow_rates[flow_id] == pytest.approx(
            instant.flow_rates[flow_id], rel=0.5
        )
