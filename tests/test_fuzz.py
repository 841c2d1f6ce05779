"""Scenario-fuzzer tests: grammar determinism and serialization, the
oracle battery, the shrinker's invariants, the CLI surface, and the
committed planted-bug regression fixture (which must keep failing
exactly its oracle until the honest configuration passes)."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.errors import ConfigError, FuzzError
from repro.fuzz import (
    ORACLES,
    FuzzOutcome,
    FuzzScenario,
    OracleResult,
    evaluate,
    generate_scenarios,
    shrink,
)
from repro.fuzz.cli import fuzz_main
from repro.fuzz.grammar import is_valid
from repro.fuzz.shrink import MIN_DURATION
from repro.scenarios.spec import RANDOM, RunSpec

FIXTURE = Path(__file__).parent / "fixtures" / "fuzz" / "gmp_leak_min.json"

def case(plant_bug=None, **fields):
    """A fuzz case on a random topology."""
    return FuzzScenario(RunSpec(scenario=RANDOM, **fields), plant_bug)


#: A known-good case (the committed fixture's topology, honestly run).
CLEAN = case(
    nodes=5,
    topo_seed=1220474875,
    seed=1709509186,
    duration=12.0,
    flows=((2, 4),),
    churn="poisson:rate=0.3,mean_hold=4,hold=exp,max_flows=2,traffic=cbr",
)


# --- spec serialization ----------------------------------------------------------


def test_spec_round_trips_through_json(tmp_path):
    spec = case(
        nodes=6,
        topo_seed=42,
        seed=7,
        duration=30.0,
        flows=((0, 5), (2, 3)),
        churn="poisson:rate=0.2",
        faults="crash:1@10;recover:1@20",
        plant_bug="gmp-leak",
    )
    path = tmp_path / "spec.json"
    spec.write(path)
    assert FuzzScenario.read(path) == spec
    # The fixture is the spec's JSON plus the planted bug.
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data.pop("plant_bug") == "gmp-leak"
    assert RunSpec.from_json(data) == spec.spec
    honest = dataclasses.replace(spec, plant_bug=None)
    honest.write(path)
    assert "plant_bug" not in json.loads(path.read_text(encoding="utf-8"))


def test_spec_read_rejects_malformed_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(FuzzError, match="cannot read"):
        FuzzScenario.read(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FuzzError, match="cannot read"):
        FuzzScenario.read(bad)
    base = {"scenario": "random", "nodes": 6, "topo_seed": 1, "seed": 1,
            "duration": 2.0, "flows": [[0, 3]]}
    for malformed in (
        {"scenario": "random", "nodes": 4},
        [1, 2],
        {**base, "faults": ["crash:1@1"]},  # DSL fields are text
        {**base, "churn": {"rate": 0.3}},
        {**base, "faults": "crash:one@1"},  # unparsable DSL text
        {**base, "churn": "tsunami:rate=1"},
        {**base, "seed": "1"},
        {**base, "flows": [[0, 3, 5]]},
        {**base, "colour": "red"},
        {**base, "plant_bug": "heisenbug"},
    ):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(malformed), encoding="utf-8")
        with pytest.raises(FuzzError, match="malformed"):
            FuzzScenario.read(path)


def test_spec_validates_its_fields():
    with pytest.raises(ConfigError, match="nodes"):
        case(nodes=1, topo_seed=1, seed=1, duration=10.0, flows=((0, 1),))
    with pytest.raises(ConfigError, match="flow"):
        case(nodes=4, topo_seed=1, seed=1, duration=10.0, flows=())
    with pytest.raises(FuzzError, match="planted bug"):
        case(
            nodes=4,
            topo_seed=1,
            seed=1,
            duration=10.0,
            flows=((0, 1),),
            plant_bug="heisenbug",
        )
    with pytest.raises(FuzzError, match="churn"):
        case(nodes=4, topo_seed=1, seed=1, flows=((0, 1),), plant_bug="gmp-leak")


# --- generation ------------------------------------------------------------------


def test_generation_is_deterministic_and_prefix_stable():
    first = generate_scenarios(4, seed=11)
    second = generate_scenarios(4, seed=11)
    assert first == second
    # Scenario i is a function of (seed, i), not of the budget.
    prefix = generate_scenarios(2, seed=11)
    assert first[: len(prefix)] == prefix
    assert generate_scenarios(4, seed=12) != first


def test_generated_scenarios_materialize():
    for spec in generate_scenarios(6, seed=3):
        assert is_valid(spec)


def test_planted_bug_rides_in_the_spec():
    cases = generate_scenarios(3, seed=9, plant_bug="gmp-leak")
    assert all(case.plant_bug == "gmp-leak" for case in cases)
    # The leak needs departures, so churn is forced on.
    assert all(case.spec.churn is not None for case in cases)
    # It runs as the churn engine's leak hook; the fixture's spec
    # keeps the honest text.
    assert all("leak=1" in case.planted().churn for case in cases)
    assert all("leak" not in case.spec.churn for case in cases)
    with pytest.raises(FuzzError, match="planted bug"):
        generate_scenarios(2, seed=1, plant_bug="heisenbug")
    with pytest.raises(FuzzError, match="budget"):
        generate_scenarios(0, seed=1)


def test_build_scenario_rejects_bad_flow_pairs():
    outside = CLEAN.with_spec(flows=((0, 9),))
    with pytest.raises(ConfigError, match="outside"):
        outside.spec.build_scenario()
    assert not is_valid(outside)


# --- oracles ---------------------------------------------------------------------


def test_clean_scenario_passes_the_whole_battery():
    outcome = evaluate(CLEAN)
    assert outcome.ok, outcome.render()
    assert [o.name for o in outcome.oracles] == list(ORACLES)
    statuses = {o.name: o.status for o in outcome.oracles}
    # With churn present every oracle genuinely ran.
    assert all(status == "pass" for status in statuses.values())
    assert outcome.result is not None
    assert "ok" in outcome.render()


def test_gmp_residue_oracle_skips_without_churn():
    outcome = evaluate(CLEAN.with_spec(duration=10.0, churn=None))
    statuses = {o.name: o.status for o in outcome.oracles}
    assert statuses["gmp_residue"] == "skip"
    assert outcome.ok


def test_starvation_oracle_reports_a_starved_flow():
    # A link that loses every frame from t=10 starves every flow over it;
    # a degraded link is no crash window, so nothing excuses it.
    spec = RunSpec(
        scenario="figure3", duration=40.0, rate_interval=1.0, faults="degrade:2-3@10:loss=1.0"
    )
    (starvation,) = [o for o in evaluate(FuzzScenario(spec)).oracles if o.name == "starvation"]
    assert starvation.status == "fail"
    assert starvation.detail.startswith("[critical] starved_flow t=10.0s {flow=1}")


def test_harness_errors_are_their_own_failure_kind():
    # The spec is valid; its flow pair lies outside the topology.
    broken = CLEAN.with_spec(flows=((0, 9),))
    outcome = evaluate(broken)
    assert not outcome.ok
    assert outcome.failed_names() == {"harness"}
    assert "harness error" in outcome.render()


# --- shrinking -------------------------------------------------------------------


def always_fails(names):
    def stub(candidate):
        outcome = FuzzOutcome(case=candidate)
        outcome.oracles = [OracleResult(name, "fail") for name in names]
        return outcome

    return stub


BIG = case(
    nodes=5,
    topo_seed=1220474875,
    seed=3,
    duration=40.0,
    flows=((0, 2), (2, 0)),
    churn="poisson:rate=0.4,mean_hold=5,hold=pareto,alpha=1.4,max_flows=4,traffic=onoff",
    faults="crash:1@10;recover:1@20",
)


def test_shrink_reduces_every_axis_with_a_stub_oracle():
    session = shrink(
        BIG, {"conservation"}, still_fails=always_fails(["conservation"]), max_evaluations=80
    )
    minimal = session.minimal.spec
    assert minimal.faults is None
    assert minimal.churn is None
    assert len(minimal.flows) == 1
    assert minimal.duration == MIN_DURATION
    assert minimal.nodes < BIG.spec.nodes
    assert is_valid(session.minimal)
    assert session.steps and session.evaluations <= 80
    # Shrinking is deterministic: replaying it lands on the same spec.
    again = shrink(
        BIG, {"conservation"}, still_fails=always_fails(["conservation"]), max_evaluations=80
    )
    assert again.minimal == session.minimal


def test_shrink_only_accepts_the_original_failure():
    def churn_sensitive(candidate):
        outcome = FuzzOutcome(case=candidate)
        if candidate.spec.churn is not None:
            outcome.oracles = [OracleResult("replay", "fail")]
        else:
            # Dropping churn exposes a *different* bug; the shrinker
            # must not wander onto it.
            outcome.oracles = [OracleResult("conservation", "fail")]
        return outcome

    session = shrink(BIG, {"replay"}, still_fails=churn_sensitive, max_evaluations=80)
    assert session.minimal.spec.churn is not None
    assert session.minimal.spec.faults is None


def test_shrink_respects_the_evaluation_budget():
    session = shrink(
        BIG, {"replay"}, still_fails=always_fails(["replay"]), max_evaluations=3
    )
    assert session.evaluations <= 3


# --- the committed regression fixture --------------------------------------------


def test_fixture_replays_the_planted_leak():
    spec = FuzzScenario.read(FIXTURE)
    assert spec.plant_bug == "gmp-leak"
    outcome = evaluate(spec)
    assert outcome.failed_names() == {"gmp_residue"}
    detail = next(o for o in outcome.oracles if o.name == "gmp_residue").detail
    assert "residue" in detail


def test_fixture_passes_when_run_honestly():
    honest = dataclasses.replace(FuzzScenario.read(FIXTURE), plant_bug=None)
    outcome = evaluate(honest)
    assert outcome.ok, outcome.render()


# --- CLI -------------------------------------------------------------------------


def test_cli_replays_a_committed_spec(capsys):
    assert fuzz_main(["--replay", str(FIXTURE)]) == 1
    out = capsys.readouterr().out
    assert "gmp_residue" in out and "FAIL" in out


def test_cli_rejects_bad_inputs(tmp_path, capsys):
    assert fuzz_main(["--replay", str(tmp_path / "missing.json")]) == 2
    assert fuzz_main(["--budget", "0"]) == 2
    capsys.readouterr()


def test_cli_end_to_end_writes_shrunk_specs(tmp_path, capsys):
    out_dir = tmp_path / "failures"
    code = fuzz_main(
        [
            "--budget",
            "1",
            "--seed",
            "5",
            "--plant-bug",
            "gmp-leak",
            "--out",
            str(out_dir),
            "--max-shrink-evals",
            "8",
        ]
    )
    assert code == 1
    written = list(out_dir.glob("*.json"))
    assert written
    shrunk = FuzzScenario.read(written[0])
    assert shrunk.plant_bug == "gmp-leak"
    assert evaluate(shrunk).failed_names() == {"gmp_residue"}
    assert "replay with:" in capsys.readouterr().out


def test_cli_honest_smoke_is_green(capsys):
    assert fuzz_main(["--budget", "1", "--seed", "1"]) == 0
    assert "1/1 ok" in capsys.readouterr().out
