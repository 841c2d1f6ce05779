"""RunSpec: one run description.  A spec is its own identity (JSON
round trip, a digest independent of the hash seed, every field in the
digest, the digests older specs always had), it validates at
construction, and it runs with observers as the only keywords."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ChurnError, ConfigError, FaultError
from repro.obs.serve import SessionJournal, load_journal
from repro.scenarios.figures import figure2
from repro.scenarios.runner import PROTOCOLS, ROUTING_PROTOCOLS, SUBSTRATES, TRAFFIC_MODELS
from repro.scenarios.spec import (
    LITERAL,
    RANDOM,
    SCENARIO_FACTORIES,
    RunSpec,
    add_run_flags,
    spec_from_args,
)
from repro.sim.replay import ReplaySanitizer

from test_policy_fingerprints import GOLDEN

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
    """A valid spec: a named scenario (figure2 maybe weighted), a random
    topology or a literal chain."""
    kind = kind or draw(st.sampled_from(("named", "random", "literal")))
    fields = {}
    if kind == "random":
        fields["scenario"] = RANDOM
        fields["nodes"] = draw(st.integers(2, 40))
        fields["topo_seed"] = draw(st.integers(0, 2**31 - 1))
        pair = st.tuples(st.integers(0, 39), st.integers(0, 39))
        fields["flows"] = tuple(draw(st.lists(pair, min_size=1, max_size=4)))
    elif kind == "literal":
        count = draw(st.integers(2, 6))
        pair = st.tuples(st.integers(0, count - 1), st.integers(0, count - 1), numbers, numbers)
        flows = draw(st.lists(pair.filter(lambda f: f[0] != f[1]), max_size=4))
        fields["scenario"] = LITERAL
        fields["topology"] = {"nodes": [[200.0 * i, 0.0] for i in range(count)], "flows": flows}
    else:
        fields["scenario"] = draw(st.sampled_from(tuple(SCENARIO_FACTORIES)))
        if fields["scenario"] == "figure2":
            fields["weights"] = draw(
                st.none() | st.tuples(numbers, numbers, numbers, numbers)
            )
    duration = draw(numbers)
    protocol = draw(st.sampled_from(PROTOCOLS))
    return RunSpec(
        protocol=protocol,
        substrate=draw(st.sampled_from(SUBSTRATES)),
        seed=draw(st.integers(0, 2**31 - 1)),
        duration=duration,
        traffic=draw(st.sampled_from(tuple(TRAFFIC_MODELS))),
        period=draw(numbers),
        beta=draw(st.floats(min_value=0.01, max_value=0.99)),
        rate_interval=draw(
            st.none() | st.floats(min_value=0.01, max_value=1.0).map(lambda f: f * duration)
        ),
        churn=draw(st.sampled_from(CHURN_TEXTS if protocol != "2pp" else (None,))),
        faults=draw(st.sampled_from(FAULT_TEXTS)),
        routing=draw(st.sampled_from(tuple(ROUTING_PROTOCOLS))),
        capacity_pps=draw(st.none() | numbers),
        gmp=draw(st.none() | st.fixed_dictionaries({"additive_increase": numbers})),
        **fields,
    )


@st.composite
def spec_pairs(draw):
    kind = draw(st.sampled_from(("named", "random", "literal")))
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


def test_a_literal_topology_runs_the_scenario_it_spells():
    """Figure 2's positions and weighted flows spelled inline dispatch
    exactly the events of the named scenario, under churn, faults and
    every GMP knob."""
    scenario = figure2(weights=(1, 2, 1, 3))
    named = RunSpec(
        scenario="figure2",
        weights=(1, 2, 1, 3),
        duration=12.0,
        seed=4,
        period=1.0,
        beta=0.2,
        gmp={"additive_increase": 4.0, "queue_capacity": 12},
        capacity_pps=500.0,
        rate_interval=2.0,
        churn="poisson:rate=0.3,mean_hold=4,hold=exp,traffic=cbr",
        faults="crash:1@4;recover:1@8",
    )
    literal = dataclasses.replace(
        named,
        scenario=LITERAL,
        weights=None,
        topology={
            "nodes": [[node.x, node.y] for node in map(scenario.topology.node, range(6))],
            "flows": [[f.source, f.destination, f.weight] for f in scenario.flows],
        },
    )
    by_name, by_literal = ReplaySanitizer(), ReplaySanitizer()
    named.run(sanitizer=by_name)
    literal.run(sanitizer=by_literal)
    assert by_name.events > 0
    assert by_literal.hexdigest() == by_name.hexdigest()


def test_routing_and_capacity_reach_the_run():
    spec = RunSpec(scenario="figure3", protocol="2pp", duration=2.0, capacity_pps=300.0)
    assert spec.run().extras["two_phase"].rates != (
        dataclasses.replace(spec, capacity_pps=None).run().extras["two_phase"].rates
    )
    # On this placement greedy forwarding takes another relay than the
    # shortest path does.
    spec = RunSpec(scenario=RANDOM, nodes=8, topo_seed=2, flows=((3, 4),), duration=1.0)
    assert spec.run().extras["flow_paths"][1] == [(3, 2), (2, 4)]
    greedy = dataclasses.replace(spec, routing="geographic").run()
    assert greedy.extras["flow_paths"][1] == [(3, 5), (5, 4)]


#: Digests taken before ``topology``, ``gmp``, ``capacity_pps`` and
#: ``routing`` existed: a spec that leaves them unset keeps its digest,
#: so sweep caches, fuzz fixtures and serve journals stay valid.
PINNED_DIGESTS = [
    (GOLDEN, "0a4b5b905f996663eb4d194517587d9ea6b618e42de5495b4523984347b34bfc"),
    (
        RunSpec(
            scenario=RANDOM, nodes=6, topo_seed=3, flows=((0, 5), (2, 4)),
            churn="poisson:rate=0.3,mean_hold=6", faults="crash:1@10;recover:1@20",
        ),  # fmt: skip
        "5ba287f5fb1adbd0f5fe73f1d1aaffa3aceb89d3b97bc68aaba95f1dc8bb7455",
    ),
]


@pytest.mark.parametrize("spec, digest", PINNED_DIGESTS, ids=["golden", "random"])
def test_unset_new_fields_leave_old_digests_alone(spec, digest):
    assert spec.digest() == digest
    assert dataclasses.replace(spec, routing="link_state", gmp={}).digest() == digest


CHAIN = [[0.0, 0.0], [200.0, 0.0], [400.0, 0.0]]


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"topology": {"nodes": [[0, "east"], [200, 0]], "flows": [[0, 1]]}}, "topology"),
        ({"topology": {"nodes": [[0, 0, 0]], "flows": []}}, "topology"),
        ({"topology": {"nodes": CHAIN, "flows": [[0, 3]]}}, "outside"),
        ({"topology": {"nodes": CHAIN, "flows": [[1, 1]]}}, "unroutable"),
        ({"topology": {"nodes": [[0, 0], [900, 0]], "flows": [[0, 1]]}}, "unroutable"),
        ({"topology": {"nodes": CHAIN, "flows": [[0, 2, 0]]}}, "positive"),
        ({"topology": {"nodes": CHAIN}}, "topology"),
        ({"topology": {"nodes": [], "flows": []}}, "node"),
        ({"topology": "chain"}, "topology"),
    ],
)
def test_from_json_rejects_a_malformed_topology(fields, match):
    with pytest.raises(ConfigError, match=match):
        RunSpec.from_json({"scenario": LITERAL, **fields})


def test_topology_and_literal_go_together():
    with pytest.raises(ConfigError, match="literal"):
        RunSpec.from_json({"scenario": LITERAL})
    with pytest.raises(ConfigError, match="literal"):
        RunSpec.from_json({"topology": {"nodes": CHAIN, "flows": []}})


@pytest.mark.parametrize(
    "gmp, match",
    [
        ({"colour": 1}, "colour"),
        ({"period": 1.0}, "period"),
        ({"beta": 0.2}, "beta"),
        ({"queue_capacity": 2.5}, "queue_capacity"),
        ({"queue_capacity": True}, "queue_capacity"),
        ({"additive_increase": "4"}, "additive_increase"),
        ({"removal_persistence": 0}, "removal_persistence"),
        ({"omega_threshold": 1.5}, "omega_threshold"),
        (["additive_increase"], "gmp"),
    ],
)
def test_from_json_rejects_a_bad_gmp_override(gmp, match):
    with pytest.raises(ConfigError, match=match):
        RunSpec.from_json({"gmp": gmp})


@pytest.mark.parametrize("capacity", [0, -1.0, float("inf"), float("nan"), "600"])
def test_from_json_rejects_a_bad_capacity(capacity):
    with pytest.raises(ConfigError, match="capacity_pps"):
        RunSpec.from_json({"capacity_pps": capacity})


def test_from_json_rejects_an_unknown_routing():
    with pytest.raises(ConfigError, match="routing"):
        RunSpec.from_json({"routing": "flooding"})


def test_gmp_overrides_have_one_spelling():
    assert RunSpec(gmp={"additive_increase": 8.0}) == RunSpec()
    assert RunSpec(gmp={"removal_persistence": None}).gmp is None
    spec = RunSpec(gmp={"min_rate": 2, "queue_capacity": 12})
    assert spec.gmp == {"min_rate": 2.0, "queue_capacity": 12}
    assert spec.gmp_config().queue_capacity == 12 and spec.gmp_config().period == 4.0


def test_a_spec_with_every_new_field_round_trips_through_a_serve_journal(tmp_path):
    spec = RunSpec(
        scenario=LITERAL,
        topology={"nodes": CHAIN, "flows": [[0, 2], [1, 2, 2.0, 400.0]]},
        routing="distance_vector",
        gmp={"additive_increase": 4.0, "removal_persistence": 3},
        capacity_pps=450.0,
        duration=6.0,
    )
    path = tmp_path / "commands.jsonl"
    journal = SessionJournal(str(path), {"spec": spec.to_json(), "command_interval": 0.25})
    journal.close()
    header, commands, close = load_journal(str(path))
    assert commands == [] and close is None
    assert RunSpec.from_json(header["spec"]) == spec
    assert RunSpec.from_json(header["spec"]).digest() == spec.digest()


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


@pytest.mark.parametrize("scenario", ["figure2", "figure3"])
def test_run_flags_default_to_the_spec_fields(scenario):
    parser = argparse.ArgumentParser()
    parser.add_argument("scenario")
    add_run_flags(parser)
    assert spec_from_args(parser.parse_args([scenario])) == RunSpec(scenario=scenario)
