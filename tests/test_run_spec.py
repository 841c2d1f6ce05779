"""RunSpec: one run description.  A spec is its own identity (JSON
round trip, a digest independent of the hash seed, every field in the
digest), it validates at construction, and it runs through
``run_scenario`` unchanged with observers as the only keywords."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.churn.spec import ChurnSpec
from repro.core.config import GmpConfig
from repro.errors import ChurnError, ConfigError, FaultError
from repro.faults.spec import parse_fault_spec
from repro.scenarios.figures import figure2
from repro.scenarios.runner import PROTOCOLS, SUBSTRATES, TRAFFIC_MODELS, run_scenario
from repro.scenarios.spec import RANDOM, SCENARIO_FACTORIES, RunSpec
from repro.sim.replay import ReplaySanitizer

SRC = Path(__file__).resolve().parents[1] / "src"

CHURN_TEXTS = (
    None,
    "poisson:rate=0.3,mean_hold=6",
    "poisson:rate=0.2,hold=exp,traffic=cbr,max_flows=2",
    "adversary:burst=2,on=2,off=2",
)
FAULT_TEXTS = (None, "crash:1@10;recover:1@20", "ctrl:0.5@5-9", "degrade:0-1@3:loss=0.2")
numbers = st.floats(min_value=0.05, max_value=500.0, allow_nan=False)


@st.composite
def specs(draw, kind=None):
    """A valid spec: a named scenario (figure2 maybe weighted) or a
    random topology."""
    kind = kind or draw(st.sampled_from(("named", "random")))
    fields = {}
    if kind == "random":
        fields["scenario"] = RANDOM
        fields["nodes"] = draw(st.integers(2, 40))
        fields["topo_seed"] = draw(st.integers(0, 2**31 - 1))
        pair = st.tuples(st.integers(0, 39), st.integers(0, 39))
        fields["flows"] = tuple(draw(st.lists(pair, min_size=1, max_size=4)))
    else:
        fields["scenario"] = draw(st.sampled_from(tuple(SCENARIO_FACTORIES)))
        if fields["scenario"] == "figure2":
            fields["weights"] = draw(
                st.none() | st.tuples(numbers, numbers, numbers, numbers)
            )
    duration = draw(numbers)
    return RunSpec(
        protocol=draw(st.sampled_from(PROTOCOLS)),
        substrate=draw(st.sampled_from(SUBSTRATES)),
        seed=draw(st.integers(0, 2**31 - 1)),
        duration=duration,
        traffic=draw(st.sampled_from(tuple(TRAFFIC_MODELS))),
        period=draw(numbers),
        beta=draw(st.floats(min_value=0.01, max_value=0.99)),
        rate_interval=draw(
            st.none() | st.floats(min_value=0.01, max_value=1.0).map(lambda f: f * duration)
        ),
        churn=draw(st.sampled_from(CHURN_TEXTS)),
        faults=draw(st.sampled_from(FAULT_TEXTS)),
        **fields,
    )


@st.composite
def spec_pairs(draw):
    kind = draw(st.sampled_from(("named", "random")))
    return draw(specs(kind)), draw(specs(kind))


@given(specs())
def test_spec_round_trips_through_json(spec):
    assert RunSpec.from_json(spec.to_json()) == spec
    assert RunSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec
    assert RunSpec.from_json(spec.to_json()).digest() == spec.digest()


@given(spec_pairs())
@example((RunSpec(scenario="figure2", weights=(1, 2, 1, 3)), RunSpec(scenario="figure2")))
def test_changing_any_one_field_changes_the_digest(pair):
    spec, other = pair
    for field in dataclasses.fields(RunSpec):
        value = getattr(other, field.name)
        if value == getattr(spec, field.name):
            continue
        try:
            changed = dataclasses.replace(spec, **{field.name: value})
        except ConfigError:
            continue  # e.g. weights on a scenario other than figure2
        assert changed.digest() != spec.digest(), field.name


@settings(max_examples=3, deadline=None)
@given(st.lists(specs(), min_size=5, max_size=15))
def test_digest_is_the_same_under_another_hash_seed(batch):
    script = (
        "import json, sys\n"
        "from repro.scenarios.spec import RunSpec\n"
        "for data in json.load(sys.stdin):\n"
        "    print(RunSpec.from_json(data).digest())\n"
    )
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps([spec.to_json() for spec in batch]),
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        assert completed.stdout.split() == [spec.digest() for spec in batch]


def test_equal_runs_spelled_differently_are_one_spec():
    listed = RunSpec.from_json(
        {"scenario": RANDOM, "nodes": 6, "topo_seed": 1, "flows": [[0, 3]], "duration": 20}
    )
    tupled = RunSpec(scenario=RANDOM, nodes=6, topo_seed=1, flows=((0, 3),), duration=20.0)
    assert listed == tupled
    assert hash(listed) == hash(tupled)
    assert listed.digest() == tupled.digest()


@pytest.mark.parametrize(
    "fields, error, match",
    [
        ({"scenario": "figure9"}, ConfigError, "unknown scenario"),
        ({"protocol": "tcp"}, ConfigError, "protocol"),
        ({"substrate": "bogus"}, ConfigError, "substrate"),
        ({"traffic": "bogus"}, ConfigError, "traffic"),
        ({"duration": 0.0}, ConfigError, "duration"),
        ({"duration": "30"}, ConfigError, "duration"),
        ({"seed": 1.5}, ConfigError, "seed"),
        ({"seed": True}, ConfigError, "seed"),
        ({"period": -1.0}, ConfigError, "period"),
        ({"beta": 1.5}, ConfigError, "beta"),
        ({"rate_interval": 31.0}, ConfigError, "rate_interval"),
        ({"churn": ["poisson"]}, ConfigError, "churn"),
        ({"churn": "tsunami:rate=1"}, ChurnError, "tsunami"),
        ({"faults": "crash:one@1"}, FaultError, "one"),
        ({"weights": (1, 2, 1, 3)}, ConfigError, "figure2"),
        ({"scenario": "figure2", "weights": (1, 2)}, ConfigError, "weights"),
        ({"nodes": 5}, ConfigError, "random"),
        ({"scenario": RANDOM, "nodes": 5, "topo_seed": 1}, ConfigError, "flow"),
        ({"scenario": RANDOM, "nodes": 5, "topo_seed": 1, "flows": [[0]]}, ConfigError, "pairs"),
    ],
)
def test_spec_validates_at_construction(fields, error, match):
    with pytest.raises(error, match=match):
        RunSpec(**fields)


def test_from_json_rejects_unknown_fields_and_non_objects():
    with pytest.raises(ConfigError, match="colour"):
        RunSpec.from_json({"colour": "red"})
    with pytest.raises(ConfigError, match="JSON object"):
        RunSpec.from_json(["figure3"])


def test_run_takes_observers_only():
    with pytest.raises(ConfigError, match="observers"):
        RunSpec(duration=1.0).run(seed=2)


def test_run_calls_run_scenario_with_the_spec_inputs():
    """A spec with churn, faults, weights and a GMP period dispatches
    exactly the events of the equivalent keyword call."""
    spec = RunSpec(
        scenario="figure2",
        weights=(1, 2, 1, 3),
        duration=12.0,
        seed=4,
        period=1.0,
        beta=0.2,
        rate_interval=2.0,
        churn="poisson:rate=0.3,mean_hold=4,hold=exp,traffic=cbr",
        faults="crash:1@4;recover:1@8",
    )
    by_spec, by_keywords = ReplaySanitizer(), ReplaySanitizer()
    spec.run(sanitizer=by_spec)
    run_scenario(
        figure2(weights=(1, 2, 1, 3)),
        protocol="gmp",
        substrate="fluid",
        duration=12.0,
        seed=4,
        gmp_config=GmpConfig(period=1.0, beta=0.2),
        rate_interval=2.0,
        churn=ChurnSpec(rate=0.3, mean_hold=4.0, hold="exp", traffic="cbr"),
        faults=parse_fault_spec("crash:1@4;recover:1@8"),
        sanitizer=by_keywords,
    )
    assert by_spec.events > 0
    assert by_spec.hexdigest() == by_keywords.hexdigest()


def test_random_scenario_materialises_its_flows():
    spec = RunSpec(scenario=RANDOM, nodes=6, topo_seed=3, flows=((0, 5), (2, 4)))
    scenario = spec.build_scenario()
    assert len(scenario.topology) == 6
    assert [(f.flow_id, f.source, f.destination) for f in scenario.flows] == [
        (1, 0, 5),
        (2, 2, 4),
    ]
    with pytest.raises(ConfigError, match="outside"):
        dataclasses.replace(spec, flows=((0, 9),)).build_scenario()
