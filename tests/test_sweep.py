"""Tests for the parameter-sweep engine and its result cache."""

import json

import pytest

from repro.errors import ConfigError
from repro.scenarios.spec import RANDOM, RunSpec
from repro.scenarios.sweep import (
    code_fingerprint,
    run_point,
    run_sweep,
    sweep_grid,
    sweep_main,
)


def _tiny_grid(**overrides) -> list[RunSpec]:
    base = dict(
        scenarios=("figure3",),
        protocols=("gmp",),
        substrates=("fluid",),
        seeds=(1,),
        durations=(5.0,),
    )
    base.update(overrides)
    return sweep_grid(**base)


def _spec(scenario, protocol, substrate, seed, duration):
    return RunSpec(
        scenario=scenario,
        protocol=protocol,
        substrate=substrate,
        seed=seed,
        duration=duration,
    )


def test_grid_expands_in_deterministic_order():
    grid = dict(
        scenarios=("figure3", "figure4"),
        protocols=("gmp", "802.11"),
        substrates=("fluid",),
        seeds=(1, 2),
        durations=(10.0,),
    )
    points = sweep_grid(**grid)
    assert len(points) == 8
    assert points[0] == _spec("figure3", "gmp", "fluid", 1, 10.0)
    assert points[1] == _spec("figure3", "gmp", "fluid", 2, 10.0)
    assert points[2] == _spec("figure3", "802.11", "fluid", 1, 10.0)
    assert points[4] == _spec("figure4", "gmp", "fluid", 1, 10.0)
    assert points == sweep_grid(**grid)  # stable


def test_spec_validates_axes():
    with pytest.raises(ConfigError):
        sweep_grid(scenarios=("figure9",))
    with pytest.raises(ConfigError):
        sweep_grid(protocols=("tcp",))
    with pytest.raises(ConfigError):
        sweep_grid(substrates=("ns3",))
    with pytest.raises(ConfigError):
        sweep_grid(seeds=())
    with pytest.raises(ConfigError):
        sweep_grid(durations=(0.0,))
    with pytest.raises(ConfigError):
        run_sweep(_tiny_grid(), workers=0, cache_dir=None)


def test_run_point_summary_is_json_plain():
    spec = _spec("figure3", "gmp", "fluid", 1, 5.0)
    summary = run_point(spec)
    assert RunSpec.from_json(summary["spec"]) == spec
    assert all(isinstance(key, str) for key in summary["flow_rates"])
    assert summary["effective_throughput"] > 0
    # Must survive a JSON round-trip unchanged (cache contract).
    assert json.loads(json.dumps(summary)) == summary


def test_cache_hit_on_rerun_and_invalidation(tmp_path):
    specs = _tiny_grid(seeds=(1, 2))
    cache = tmp_path / "cache"
    first = run_sweep(specs, cache_dir=cache, fingerprint="fp-a")
    assert first.cache_misses == 2 and first.cache_hits == 0
    again = run_sweep(specs, cache_dir=cache, fingerprint="fp-a")
    assert again.cache_hits == 2 and again.cache_misses == 0
    assert again.results == first.results
    # A different source fingerprint must miss everything.
    changed = run_sweep(specs, cache_dir=cache, fingerprint="fp-b")
    assert changed.cache_misses == 2
    assert changed.results == first.results


def test_cache_disabled_recomputes(tmp_path):
    specs = _tiny_grid()
    report = run_sweep(specs, cache_dir=None)
    assert report.cache_hits == 0 and report.cache_misses == 1
    assert report.fingerprint == ""
    again = run_sweep(specs, cache_dir=None)
    assert again.cache_misses == 1
    assert again.results == report.results


def test_corrupt_cache_entry_is_recomputed(tmp_path):
    specs = _tiny_grid()
    cache = tmp_path / "cache"
    run_sweep(specs, cache_dir=cache, fingerprint="fp")
    for entry in cache.glob("*.json"):
        entry.write_text("{not json", encoding="utf-8")
    report = run_sweep(specs, cache_dir=cache, fingerprint="fp")
    assert report.cache_misses == 1
    assert report.results[0]["effective_throughput"] > 0


def test_results_identical_across_worker_counts(tmp_path):
    specs = _tiny_grid(seeds=(1, 2, 3, 4))
    serial = run_sweep(specs, workers=1, cache_dir=None)
    two = run_sweep(specs, workers=2, cache_dir=None)
    four = run_sweep(specs, workers=4, cache_dir=None)
    assert serial.results == two.results == four.results


def test_specs_beyond_the_grid_cache_by_digest(tmp_path):
    """A random topology on DCF and a churn-plus-faults run on fluid
    cache and recall like grid points, with byte-identical summaries."""
    specs = [
        RunSpec(
            scenario=RANDOM,
            nodes=6,
            topo_seed=3,
            flows=((0, 5), (2, 4)),
            substrate="dcf",
            duration=3.0,
        ),
        RunSpec(
            scenario="figure3",
            duration=12.0,
            churn="poisson:rate=0.3,mean_hold=4,hold=exp,traffic=cbr",
            faults="crash:1@4;recover:1@8",
        ),
    ]
    cache = tmp_path / "cache"
    first = run_sweep(specs, cache_dir=cache, fingerprint="fp")
    assert first.cache_misses == 2
    assert [RunSpec.from_json(r["spec"]) for r in first.results] == specs
    assert all(r["effective_throughput"] > 0 for r in first.results)
    again = run_sweep(specs, cache_dir=cache, fingerprint="fp")
    assert again.cache_hits == 2 and again.cache_misses == 0
    assert json.dumps(again.results, sort_keys=True) == json.dumps(
        first.results, sort_keys=True
    )


def test_code_fingerprint_tracks_sources(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "a.py").write_text("x = 1\n", encoding="utf-8")
    before = code_fingerprint(root)
    assert before == code_fingerprint(root)
    (root / "a.py").write_text("x = 2\n", encoding="utf-8")
    assert code_fingerprint(root) != before


def test_cli_smoke(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    rc = sweep_main(
        [
            "--scenarios", "figure3",
            "--seeds", "1",
            "--durations", "5",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["cache_misses"] == 1
    assert len(payload["results"]) == 1
    assert payload["results"][0]["spec"]["scenario"] == "figure3"


def test_cli_rejects_unknown_axis_values(capsys):
    assert sweep_main(["--scenarios", "figure9"]) == 2
    assert "error:" in capsys.readouterr().err
