"""Self-tests of the benchmark harness.  Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py

(tier-1 ``testpaths`` stays ``tests``).  The ``quick`` fixture runs the
whole benchmark once at a tenth of its length, about half a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    proc = subprocess.run(
        RUN + ["--quick", "--out", str(out)], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_quick_run_emits_exactly_the_declared_metrics(quick):
    assert quick["claim"] is None
    assert list(quick["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for report in quick["workloads"].values():
        for section, also in (("end_to_end", compare.ACCURACY), ("per_layer", ())):
            declared = {m["name"]: m["unit"] for m in (*SPEC[section], *also)}
            emitted = {name: m["unit"] for name, m in report[section].items()}
            assert emitted == declared
            assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in emitted)
        assert all(m["value"] != 0 for m in report["end_to_end"].values())


def test_quick_run_has_no_failed_pass_and_traced_digest_equals_untraced(quick):
    # Every pass (bare, profiled, wrapped) is checked against the first
    # pass's sim_digest; a mismatch is a recorded failure.
    for name, report in quick["workloads"].items():
        assert report["failures"] == [], name
        assert report["attempted"] == 3 and report["failed"] == 0
        assert re.fullmatch(r"[0-9a-f]{64}", report["sim_digest"])


def test_tag_map_covers_the_handlers_of_every_workload(quick):
    handler_metrics = {metric for _prefix, metric in tracing.TAG_LAYERS}
    for name, report in quick["workloads"].items():
        layers = {k: m["value"] for k, m in report["per_layer"].items()}
        handled = sum(layers[metric] for metric in handler_metrics)
        assert handled > 0, name
        assert layers[tracing.UNMAPPED] < 0.01 * (handled + layers[tracing.UNMAPPED]), name


def test_setup_ledger_adds_up_where_setup_is_a_cost(quick):
    layers = {k: m["value"] for k, m in quick["workloads"]["scale300_fluid"]["per_layer"].items()}
    stages = [
        k
        for k in layers
        if k.endswith(("init_s", "build_s", "start_s"))
        or k in ("topology.contention_s", "topology.cliques_s", "routing.validate_s")
    ]
    named = sum(layers[k] for k in stages)
    assert layers["scenarios.setup_other_s"] < 0.1 * (named + layers["scenarios.setup_other_s"])
    assert layers["topology.cliques_calls"] == 2


def test_driver_form_ends_with_one_json_line(tmp_path):
    proc = subprocess.run(
        RUN
        + ["--workload", "fig3_dcf_gmp", "--seed", "3", "--seconds", "1", "--trace", "0"]
        + ["--quick", "--out", str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_refuses_to_run_outside_a_full_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig3_dcf_gmp"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# --- arithmetic -------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_total_minus_direct_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with tracer.span("setup"):  # 0 .. 10
        clock.now = 1.0
        with tracer.span("cliques"):  # 1 .. 4
            clock.now = 4.0
        with tracer.span("init"):  # 4 .. 9, holds cliques 5 .. 7
            clock.now = 5.0
            with tracer.span("cliques"):
                clock.now = 7.0
            for _ in range(2):  # two aggregated calls, 0.5 each
                with tracer.span("op", record=False):
                    clock.now += 0.5
            clock.now = 9.0
        clock.now = 10.0
    totals = tracer.totals
    assert totals.total("setup") == 10.0
    assert totals.self_time("setup") == 10.0 - 3.0 - 5.0
    assert totals.calls("cliques") == 2 and totals.total("cliques") == 5.0
    assert totals.self_time("init") == 5.0 - 2.0 - 1.0
    assert totals.calls("op") == 2 and totals.self_time("op") == 1.0
    # Recorded spans keep start, end and parent; aggregated ones do not.
    assert [(s[0], s[1], s[2], s[3]) for s in tracer.spans] == [
        ("setup", 0.0, 10.0, -1),
        ("cliques", 1.0, 4.0, 0),
        ("init", 4.0, 9.0, 0),
        ("cliques", 5.0, 7.0, 2),
    ]
    # A snapshot is frozen while the tracer moves on.
    frozen = totals.snapshot()
    with tracer.span("setup"):
        clock.now = 11.0
    assert frozen.total("setup") == 10.0 and totals.total("setup") == 11.0


def test_fold_tags_charges_unknown_tags_to_unmapped():
    folded = tracing.fold_tags(
        {"fluid.round": 2.0, "traffic.f1": 1.0, "traffic.f2": 0.5, "dcf.nav.3": 0.25, "new.tag": 0.125}
    )
    assert folded["mac.fluid.round_s"] == 2.0
    assert folded["flows.tick_s"] == 1.5
    assert folded["mac.dcf.handler_s"] == 0.25
    assert folded[tracing.UNMAPPED] == 0.125
    assert folded["churn.handler_s"] == 0.0


def test_patched_restores_and_rejects_inherited_attributes():
    class Base:
        def f(self) -> int:
            return 1

    class Derived(Base):
        pass

    table = {"k": 1}
    with tracing.patched([(Base, "f", lambda self: 2), (table, "k", 3)]):
        assert Base().f() == 2 and table["k"] == 3
    assert Base().f() == 1 and table["k"] == 1
    with pytest.raises(KeyError):
        with tracing.patched([(Derived, "f", lambda self: 2)]):
            pass


# --- compare ---------------------------------------------------------------------


def _results(wall: list[float], failed: int = 0) -> dict:
    metrics = {
        m["name"]: {"value": 1.0, "unit": m["unit"], "n": len(wall)}
        for m in (*SPEC["end_to_end"], *compare.ACCURACY)
    }
    metrics["wall_s"] = {"value": sorted(wall)[len(wall) // 2], "samples": wall, "unit": "s"}
    report = {
        "attempted": len(wall),
        "failed": failed,
        "failure_rate": failed / len(wall),
        "sim_digest": "d",
        "end_to_end": metrics,
    }
    return {"seed": 1, "quick": False, "workloads": {"fig3_fluid_static": report}}


def _wall_row(a: dict, b: dict) -> tuple[str, bool]:
    rows, bad = compare.compare(a, b, SPEC)
    return next(r for r in rows if " wall_s " in r), bad


def test_compare_verdicts():
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")

    def steady(scale: float) -> dict:
        return _results([10.0 * scale * x for x in (1.0, 1.01, 0.99, 1.005, 0.995)])

    def noisy(scale: float, shift: float = 0.0) -> dict:
        wobble = (-1.5 * bound, 0.0, 1.5 * bound, -0.75 * bound, 0.75 * bound)
        return _results([10.0 * scale * (1.0 + w + shift) for w in wobble])

    row, bad = _wall_row(steady(1.0), steady(1.0 + bound / 2))
    assert row.endswith(" ok") and not bad
    row, bad = _wall_row(steady(1.0), steady(1.0 + 2 * bound))
    assert row.endswith("REGRESSION") and bad
    assert f"B/A {1.0 + 2 * bound:.4f} of 10 s" in row
    # Spread wider than the bound: a small loss cannot be resolved ...
    row, bad = _wall_row(noisy(1.0), noisy(1.0, shift=bound / 5))
    assert row.endswith("unresolved") and not bad
    # ... but a B whose every run beats every run of A is.
    row, bad = _wall_row(noisy(1.0), noisy(0.3))
    assert row.endswith("ok (every B better)") and not bad
    _rows, bad = compare.compare(steady(1.0), _results([10.0] * 5, failed=1), SPEC)
    assert bad
    # The fixed-seed accuracy figures are held to an absolute bound.
    worse = steady(1.0)
    worse["workloads"]["fig3_fluid_static"]["end_to_end"]["imm"]["value"] = 0.97
    rows, bad = compare.compare(steady(1.0), worse, SPEC)
    assert next(r for r in rows if " imm " in r).endswith("REGRESSION") and bad
