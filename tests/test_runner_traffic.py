"""Runner traffic-model selection tests."""

import pytest

from repro.errors import ConfigError
from repro.scenarios.spec import RunSpec


def test_unknown_traffic_rejected():
    with pytest.raises(ConfigError):
        RunSpec(
            scenario="figure3", protocol="gmp", substrate="dcf", duration=60.0, seed=0,
            traffic="vbr",
        )  # fmt: skip


@pytest.mark.parametrize("traffic", ["cbr", "poisson", "onoff"])
def test_traffic_models_run_on_fluid(traffic):
    result = RunSpec(
        scenario="figure3",
        protocol="802.11",
        substrate="fluid",
        duration=8.0,
        seed=2,
        traffic=traffic,
    ).run()
    assert sum(result.flow_rates.values()) > 0


def test_poisson_and_cbr_differ():
    kwargs = dict(
        scenario="figure3", protocol="802.11", substrate="fluid", duration=8.0, seed=2
    )
    cbr = RunSpec(traffic="cbr", **kwargs).run()
    poisson = RunSpec(traffic="poisson", **kwargs).run()
    assert cbr.flow_rates != poisson.flow_rates
