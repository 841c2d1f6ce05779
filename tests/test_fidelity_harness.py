"""Fidelity harness: cell comparisons, shape verdicts, the baseline
ratchet, and EXPERIMENTS.md block rewriting.

Everything except the single end-to-end test runs on synthetic
measurements — no simulator."""

import json

import pytest

from repro.errors import AnalysisError, ConfigError
from repro.fidelity import harness
from repro.fidelity.harness import (
    FidelityConfig,
    FidelityReport,
    TableFidelity,
    _cells,
    _column_specs,
    _measurement,
    _shapes,
    baseline_payload,
    compare_baseline,
    fidelity_main,
    load_baseline,
    run_fidelity,
    update_experiments,
    write_baseline,
)
from repro.fidelity.paper import PAPER_TABLES, MeasuredColumn
from repro.scenarios.spec import RunSpec


def t1_measurement(seed=1, f1=437.0, f2=219.0, f3=218.0, f4=220.0):
    rates = {1: f1, 2: f2, 3: f3, 4: f4}
    return {
        "gmp": MeasuredColumn(
            protocol="gmp",
            substrate="fluid",
            seed=seed,
            rates=rates,
            normalized=dict(rates),
            u=sum(rates.values()),
            i_mm=0.5,
            i_eq=0.89,
            reference=dict(rates),  # converged
        )
    }


def t1_fidelity(per_seed):
    table = PAPER_TABLES[1]
    return TableFidelity(
        table_id=1,
        title=table.title,
        scenario=table.scenario,
        substrate="fluid",
        protocols=table.protocols,
        seeds=tuple(
            next(iter(measured.values())).seed for measured in per_seed
        ),
        cells=_cells(table, per_seed),
        shapes=_shapes(table, per_seed, "fluid"),
    )


def t1_report(per_seed=None):
    per_seed = per_seed or [t1_measurement()]
    return FidelityReport(
        substrate="fluid",
        duration=60.0,
        seeds=tuple(
            next(iter(measured.values())).seed for measured in per_seed
        ),
        tables=[t1_fidelity(per_seed)],
    )


# --- config ----------------------------------------------------------------------


def test_config_rejects_unknown_tables_and_empty_axes():
    with pytest.raises(ConfigError):
        FidelityConfig(tables=(9,))
    with pytest.raises(ConfigError):
        FidelityConfig(tables=())
    with pytest.raises(ConfigError):
        FidelityConfig(seeds=())


# --- cells and shapes ------------------------------------------------------------


def test_cells_report_mean_spread_and_delta():
    per_seed = [
        t1_measurement(seed=1, f1=430.0),
        t1_measurement(seed=2, f1=444.0),
    ]
    fidelity = t1_fidelity(per_seed)
    cell = next(c for c in fidelity.cells if c.metric == "f1")
    assert cell.ours == pytest.approx(437.0)
    assert cell.spread == pytest.approx(14.0)
    paper_f1 = PAPER_TABLES[1].paper["gmp"].rates[1]
    assert cell.paper == pytest.approx(paper_f1)
    assert cell.delta == pytest.approx(437.0 - paper_f1)
    assert cell.delta_pct == pytest.approx(100 * (437.0 - paper_f1) / paper_f1)
    # The metrics rows exist exactly once per protocol.
    metrics = [c.metric for c in fidelity.cells]
    assert metrics == ["f1", "f2", "f3", "f4", "U", "I_mm", "I_eq"]


def test_shapes_fail_when_any_seed_fails():
    per_seed = [
        t1_measurement(seed=1),
        t1_measurement(seed=2, f2=120.0, f3=300.0),  # breaks the β band
    ]
    fidelity = t1_fidelity(per_seed)
    outcome = next(
        s for s in fidelity.shapes if s.assertion_id == "t1-equal-split"
    )
    assert outcome.status == "fail"
    assert any("seed 2: FAIL" in detail for detail in outcome.details)
    assert not fidelity.shapes_ok()


def test_dcf_only_shapes_are_skipped_on_fluid():
    table = PAPER_TABLES[4]
    rates = {fid: 200.0 for fid in range(1, 9)}
    rates[2] = rates[8] = 300.0
    measured = {
        protocol: MeasuredColumn(
            protocol=protocol,
            substrate="fluid",
            seed=1,
            rates=dict(rates),
            normalized=dict(rates),
            u=sum(rates.values()),
            i_mm=0.8,
            i_eq=0.97,
        )
        for protocol in table.protocols
    }
    outcomes = _shapes(table, [measured], "fluid")
    by_id = {o.assertion_id: o for o in outcomes}
    assert by_id["t4-80211-side-bias"].status == "skip"
    assert by_id["t4-80211-side-bias"].passed is None
    # A skip never blocks shapes_ok.
    assert all(
        o.passed is not False
        for o in outcomes
        if o.assertion_id == "t4-80211-side-bias"
    )


def test_measurement_raises_on_missing_protocol():
    table = PAPER_TABLES[3]
    specs = _column_specs(table, FidelityConfig(tables=(3,)), 1)
    summaries = [
        {
            "spec": specs["gmp"].to_json(),
            "flow_rates": {"1": 160.0, "2": 160.0, "3": 160.0},
            "effective_throughput": 480.0,
            "i_mm": 0.9,
            "i_eq": 0.99,
            "maxmin_reference": {"1": 150.0, "2": 150.0, "3": 150.0},
        }
    ]
    with pytest.raises(AnalysisError, match="802.11"):
        _measurement(table, summaries, specs)
    measured = _measurement(table, summaries, {"gmp": specs["gmp"]})
    assert measured["gmp"].reference == {1: 150.0, 2: 150.0, 3: 150.0}


def test_a_columns_overrides_reach_its_spec_digest():
    specs = _column_specs(PAPER_TABLES[3], FidelityConfig(tables=(3,)), 2)
    # A protocol-named column is the same run the sweep grid names,
    # so its cached result and baseline keys carry over.
    assert specs["gmp"] == RunSpec(
        scenario="figure3", protocol="gmp", substrate="fluid", seed=2, duration=60.0
    )
    assert specs["gmp β=0.05"].beta == 0.05
    assert specs["gmp Ω=0.10"].gmp == {"omega_threshold": 0.10}
    digests = {spec.digest() for spec in specs.values()}
    assert len(digests) == len(specs)
    removal = _column_specs(PAPER_TABLES[2], FidelityConfig(tables=(2,)), 2)
    assert removal["gmp removal=1"].to_json()["gmp"] == {"removal_persistence": 1}
    assert removal["gmp removal=1"].digest() != removal["gmp"].digest()


# --- rendering -------------------------------------------------------------------


def test_markdown_has_paper_ours_delta_columns_and_shape_marks():
    report = t1_report()
    text = report.markdown()
    assert "| metric | paper gmp | ours gmp | Δ% |" in text
    assert f"{PAPER_TABLES[1].paper['gmp'].rates[1]:.2f}" in text
    assert "437.00" in text
    assert "✓ `t1-equal-split`" in text
    assert "Generated by `python -m repro fidelity`" in text


def test_report_json_round_trips():
    payload = json.loads(json.dumps(t1_report().to_json()))
    assert payload["shapes_ok"] is True
    table = payload["tables"][0]
    assert table["table_id"] == 1
    assert {shape["status"] for shape in table["shapes"]} == {"pass"}


# --- baseline ratchet ------------------------------------------------------------


def test_baseline_round_trip_and_agreement(tmp_path):
    report = t1_report()
    path = tmp_path / "fidelity-baseline.json"
    write_baseline(path, report)
    baseline = load_baseline(path)
    assert baseline["shapes"] == report.shape_statuses()
    assert (baseline["substrate"], baseline["duration"], baseline["seeds"]) == (
        "fluid", 60.0, [1]
    )
    assert compare_baseline(report, baseline) == ([], [])


def test_baseline_flags_regression_stale_and_new(tmp_path):
    report = t1_report()
    baseline = {
        **baseline_payload(report),
        "shapes": {
            "t1:t1-equal-split": "pass",
            "t1:t1-gmp-ieq": "pass",
            # t1-f1-residual missing -> "new assertion"
            "t1:t1-gone": "pass",  # stale
        },
    }
    problems, known_gaps = compare_baseline(report, baseline)
    assert known_gaps == []
    assert any("t1:t1-f1-residual" in p and "not in the baseline" in p
               for p in problems)
    assert any("t1:t1-gone" in p and "stale" in p for p in problems)

    # A recorded pass that now fails is a regression.
    failing = t1_report([t1_measurement(f2=120.0, f3=300.0)])
    regressions, _ = compare_baseline(failing, baseline_payload(t1_report()))
    assert any("regressed from pass to fail" in p for p in regressions)


def test_baseline_known_gap_is_reported_not_a_problem():
    failing = t1_report([t1_measurement(f2=120.0, f3=300.0)])
    problems, known_gaps = compare_baseline(failing, baseline_payload(failing))
    assert problems == []
    (gap,) = known_gaps
    assert gap.startswith("t1:t1-equal-split: known gap")
    assert "f2=120.0" in gap  # the measured numbers travel with it
    # The gap closing is a change the baseline must ratchet in.
    fixed, _ = compare_baseline(t1_report(), baseline_payload(failing))
    assert any("now passes" in p for p in fixed)


def test_baseline_neither_records_nor_demands_a_skipped_shape():
    judged = t1_report()
    skipping = t1_report()
    skipping.tables[0].shapes[0].applicable = False
    key = f"t1:{skipping.tables[0].shapes[0].assertion_id}"
    assert key not in baseline_payload(skipping)["shapes"]
    assert compare_baseline(skipping, baseline_payload(skipping)) == ([], [])
    # A skipped shape that starts to apply is new; a judged one that
    # starts to skip leaves its entry stale.
    (new,) = compare_baseline(judged, baseline_payload(skipping))[0]
    assert new.startswith(f"{key}: not in the baseline")
    (stale,) = compare_baseline(skipping, baseline_payload(judged))[0]
    assert stale.startswith(f"{key}: stale baseline entry")


@pytest.mark.parametrize(
    "key, value",
    [("substrate", "dcf"), ("duration", 200.0), ("seeds", [1, 2, 3])],
)
def test_baseline_for_another_run_is_refused(key, value):
    report = t1_report()
    baseline = {**baseline_payload(report), key: value}
    with pytest.raises(ConfigError, match=key):
        compare_baseline(report, baseline)
    # A baseline that records no run description is refused too.
    del baseline[key]
    with pytest.raises(ConfigError, match=key):
        compare_baseline(report, baseline)


# --- command-line exit codes against the baseline --------------------------------


PASSING = t1_report()
FAILING = t1_report([t1_measurement(f2=120.0, f3=300.0)])


@pytest.mark.parametrize(
    "recorded, measured, check, expected",
    [
        (PASSING, PASSING, True, 0),  # agreement
        (PASSING, FAILING, True, 1),  # pass -> fail regression
        (FAILING, FAILING, True, 0),  # known gap
        (FAILING, PASSING, True, 1),  # a fixed gap must be ratcheted in
        (FAILING, FAILING, False, 1),  # ungated: any failing shape
    ],
    ids=["agree", "regression", "known-gap", "fixed-gap", "no-check"],
)
def test_fidelity_main_exit_codes(
    tmp_path, monkeypatch, capsys, recorded, measured, check, expected
):
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, recorded)
    monkeypatch.setattr(harness, "run_fidelity", lambda config: measured)
    argv = ["--tables", "1", "--seeds", "1", "--baseline", str(baseline)]
    argv += ["--markdown", str(tmp_path / "out.md")]
    if check:
        argv.append("--check-baseline")
    assert fidelity_main(argv) == expected
    err = capsys.readouterr().err
    if check and recorded is FAILING and measured is FAILING:
        assert "baseline: t1:t1-equal-split: known gap" in err


def test_fidelity_main_refuses_a_baseline_of_another_substrate(
    tmp_path, monkeypatch, capsys
):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps({**baseline_payload(PASSING), "substrate": "dcf"}),
        encoding="utf-8",
    )
    monkeypatch.setattr(harness, "run_fidelity", lambda config: PASSING)
    argv = ["--tables", "1", "--seeds", "1", "--baseline", str(baseline)]
    argv += ["--markdown", str(tmp_path / "out.md"), "--check-baseline"]
    assert fidelity_main(argv) == 2
    assert "substrate='dcf'" in capsys.readouterr().err


def test_load_baseline_rejects_bad_files(tmp_path):
    with pytest.raises(ConfigError):
        load_baseline(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_baseline(bad)
    shapeless = tmp_path / "shapeless.json"
    shapeless.write_text("{}", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_baseline(shapeless)


# --- EXPERIMENTS.md rewriting ----------------------------------------------------


def test_update_experiments_rewrites_only_marker_blocks(tmp_path):
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text(
        "# Results\n\nprose stays\n\n"
        "<!-- fidelity:table1:begin -->\nstale table\n"
        "<!-- fidelity:table1:end -->\n\ntrailing prose\n",
        encoding="utf-8",
    )
    report = t1_report()
    assert update_experiments(doc, report) == [1]
    text = doc.read_text(encoding="utf-8")
    assert "stale table" not in text
    assert "prose stays" in text and "trailing prose" in text
    assert "| metric | paper gmp | ours gmp | Δ% |" in text
    # Rewriting again is idempotent.
    update_experiments(doc, report)
    assert doc.read_text(encoding="utf-8") == text


def test_update_experiments_requires_markers(tmp_path):
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text("# Results without markers\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="marker"):
        update_experiments(doc, t1_report())


# --- end to end ------------------------------------------------------------------


def test_run_fidelity_table1_end_to_end(tmp_path):
    config = FidelityConfig(
        tables=(1,), seeds=(1,), duration=10.0, cache_dir=tmp_path / "cache"
    )
    report = run_fidelity(config)
    assert report.shapes_ok()
    assert report.shape_statuses() == {
        "t1:t1-equal-split": "pass",
        "t1:t1-f1-residual": "pass",
        "t1:t1-gmp-ieq": "pass",
        "t1:t1-gmp-converges": "pass",
    }
    assert report.cache_misses == 1
    # Re-running the same config is pure cache hits with equal output.
    again = run_fidelity(config)
    assert again.cache_hits == 1 and again.cache_misses == 0
    assert again.to_json()["tables"] == report.to_json()["tables"]


def test_run_fidelity_fig1_end_to_end(tmp_path):
    config = FidelityConfig(
        tables=("fig1",), seeds=(1,), duration=20.0, cache_dir=tmp_path / "cache"
    )
    report = run_fidelity(config)
    assert report.shape_statuses() == {
        "fig1:fig1-f1-bottleneck": "pass",
        "fig1:fig1-shared-drags-f2": "pass",
        "fig1:fig1-perdest-isolates-f2": "pass",
    }
    assert report.cache_misses == 2
    (table,) = report.tables
    # Figure 1 has no paper numbers: no cells, only shape verdicts.
    assert table.cells == [] and table.protocols == ()
    assert table.markdown().startswith("* ✓ `fig1-f1-bottleneck`")


def test_run_fidelity_skips_a_table_it_cannot_judge(tmp_path):
    # Figure 1 has no paper cells and only fluid shapes: on the DCF it
    # makes no sweep point and reports every shape skipped.
    config = FidelityConfig(
        tables=("fig1",), seeds=(1,), substrate="dcf", cache_dir=tmp_path / "cache"
    )
    report = run_fidelity(config)
    assert report.cache_hits == report.cache_misses == 0
    assert set(report.shape_statuses().values()) == {"skip"}
