"""The hot-path perf gate: ``benchmarks/compare_bench.py`` run as CI runs
it, on a raw pytest-benchmark JSON against a tiny baseline."""

import json
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "compare_bench.py"

BASELINE_MEANS = {"test_a": 0.010, "test_b": 0.002}


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "baseline.json"
    entries = {
        name: {"mean_s": mean, "min_s": mean / 2, "rounds": 5}
        for name, mean in BASELINE_MEANS.items()
    }
    path.write_text(json.dumps({"benchmarks": entries}), encoding="utf-8")
    return path


def _gate(baseline, fresh_means, *extra):
    # The fields of a pytest-benchmark --benchmark-json entry the gate reads.
    raw = {
        "benchmarks": [
            {"name": name, "stats": {"mean": mean, "min": mean / 2, "rounds": 5}}
            for name, mean in fresh_means.items()
        ]
    }
    fresh = baseline.with_name("bench.json")
    fresh.write_text(json.dumps(raw), encoding="utf-8")
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(fresh), "--baseline", str(baseline),
         "--threshold", "2.0", *extra],
        capture_output=True,
        text=True,
    )


def test_same_means_pass(baseline):
    completed = _gate(baseline, BASELINE_MEANS)
    assert completed.returncode == 0, completed.stderr
    assert "perf regression check passed" in completed.stdout


def test_a_3x_regression_fails(baseline):
    completed = _gate(baseline, {**BASELINE_MEANS, "test_b": 0.006})
    assert completed.returncode == 1
    assert "test_b: 6.00 ms exceeds 2x baseline" in completed.stderr


def test_a_baseline_entry_missing_from_the_run_fails(baseline):
    completed = _gate(baseline, {"test_a": 0.010})
    assert completed.returncode == 1
    assert "test_b: missing from fresh run" in completed.stderr


def test_a_benchmark_without_baseline_fails(baseline):
    completed = _gate(baseline, {**BASELINE_MEANS, "test_new": 0.001})
    assert completed.returncode == 1
    assert "test_new: no baseline entry" in completed.stderr


def test_recorded_baseline_gates_the_run_it_came_from(baseline):
    means = {**BASELINE_MEANS, "test_new": 0.001}
    recorded = _gate(baseline, means, "--record")
    assert recorded.returncode == 0, recorded.stderr
    payload = json.loads(baseline.read_text(encoding="utf-8"))
    assert payload["benchmarks"]["test_new"] == {
        "mean_s": 0.001, "min_s": 0.0005, "rounds": 5
    }
    assert _gate(baseline, means).returncode == 0
