"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


def test_cli_runs_figure3(capsys):
    code = main(
        [
            "figure3",
            "--protocol",
            "gmp",
            "--substrate",
            "fluid",
            "--duration",
            "5",
            "--period",
            "0.5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "I_mm" in out
    assert "final rate limits" in out


def test_cli_runs_figure2_with_weights(capsys):
    code = main(
        [
            "figure2",
            "--protocol",
            "802.11",
            "--substrate",
            "fluid",
            "--duration",
            "5",
            "--weights",
            "1,2,1,3",
        ]
    )
    assert code == 0
    assert "figure2" in capsys.readouterr().out


def test_cli_bad_weights_reports_error(capsys):
    code = main(
        ["figure2", "--substrate", "fluid", "--duration", "5", "--weights", "1,2"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["figure9"])


def test_cli_runs_every_registered_scenario_name(capsys):
    # The CLI reads the sweep registry, so figure2w (Table 2's weights)
    # is addressable here as it is from sweep and serve.
    assert main(["figure2w", "--duration", "2"]) == 0
    assert "figure2" in capsys.readouterr().out


def test_cli_telemetry_flags_write_outputs(capsys, tmp_path):
    metrics = tmp_path / "m.jsonl"
    trace = tmp_path / "t.json"
    code = main(
        [
            "figure3",
            "--substrate",
            "fluid",
            "--duration",
            "10",
            "--profile",
            "--metrics-out",
            str(metrics),
            "--trace-out",
            str(trace),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert metrics.exists() and trace.exists()
    assert "telemetry summary" in out
    assert "per-flow rate narrative" in out
    assert "metrics:" in out and "trace:" in out


def test_cli_trace_categories_collects_structured_trace(capsys):
    # The flag implies telemetry, so this GMP run also explains its rates.
    code = main(
        [
            "figure3",
            "--substrate",
            "dcf",
            "--duration",
            "2",
            "--trace-categories",
            "channel.tx",
        ]
    )
    assert code == 0
    assert "per-flow rate narrative" in capsys.readouterr().out


def test_cli_frame_events_reach_the_jsonl_as_they_reach_the_trace(capsys, tmp_path):
    metrics, trace = tmp_path / "m.jsonl", tmp_path / "t.json"
    code = main(
        [
            "figure3", "--substrate", "dcf", "--duration", "2",
            "--trace-categories", "channel.tx",
            "--metrics-out", str(metrics), "--trace-out", str(trace),
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in metrics.read_text().splitlines()]
    jsonl = [
        r["fields"]["frame"]
        for r in records
        if r["record"] == "event" and r["category"] == "channel.tx"
    ]
    events = json.loads(trace.read_text())["traceEvents"]
    chrome = [e["args"]["frame"] for e in events if e["name"] == "channel.tx"]
    assert jsonl == chrome
    assert {frame.split()[0] for frame in jsonl} == {"rts", "cts", "data", "ack"}


def test_cli_traffic_models(capsys):
    for traffic in ("poisson", "onoff"):
        code = main(
            [
                "figure3",
                "--protocol",
                "802.11",
                "--substrate",
                "fluid",
                "--duration",
                "5",
                "--traffic",
                traffic,
            ]
        )
        assert code == 0


def test_cli_explain_out_persists_the_narrative(capsys, tmp_path):
    narrative = tmp_path / "narrative.txt"
    code = main(
        [
            "figure3",
            "--substrate",
            "fluid",
            "--duration",
            "10",
            "--explain-out",
            str(narrative),
        ]
    )
    assert code == 0
    saved = narrative.read_text(encoding="utf-8")
    assert "per-flow rate narrative" in saved
    out = capsys.readouterr().out
    assert f"explanations -> {narrative}" in out
    # The printed narrative and the persisted one agree.
    assert saved.strip() in out


def test_cli_explain_out_warns_without_gmp(capsys, tmp_path):
    narrative = tmp_path / "narrative.txt"
    code = main(
        [
            "figure3",
            "--protocol",
            "802.11",
            "--substrate",
            "fluid",
            "--duration",
            "5",
            "--explain-out",
            str(narrative),
        ]
    )
    assert code == 0
    assert not narrative.exists()
    assert "--explain-out needs a GMP run" in capsys.readouterr().err


def test_cli_fidelity_writes_json_and_markdown(capsys, tmp_path):
    json_out = tmp_path / "FIDELITY.json"
    markdown_out = tmp_path / "FIDELITY.md"
    code = main(
        [
            "fidelity",
            "--tables",
            "1",
            "--seeds",
            "1",
            "--duration",
            "10",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--json",
            str(json_out),
            "--markdown",
            str(markdown_out),
        ]
    )
    assert code == 0
    import json

    payload = json.loads(json_out.read_text(encoding="utf-8"))
    assert payload["shapes_ok"] is True
    assert "| metric | paper gmp | ours gmp | Δ% |" in markdown_out.read_text(
        encoding="utf-8"
    )
    assert "shapes:" in capsys.readouterr().err


def test_cli_fidelity_baseline_ratchet(capsys, tmp_path):
    baseline = tmp_path / "fidelity-baseline.json"
    common = [
        "fidelity",
        "--tables",
        "1",
        "--seeds",
        "1",
        "--duration",
        "10",
        "--cache-dir",
        str(tmp_path / "cache"),
        "--baseline",
        str(baseline),
    ]
    assert main(common + ["--update-baseline"]) == 0
    assert baseline.exists()
    capsys.readouterr()
    # Checking against the just-written baseline agrees.
    assert main(common + ["--check-baseline"]) == 0
    # A baseline recording an assertion the harness no longer produces
    # fails the check.
    import json

    recorded = json.loads(baseline.read_text(encoding="utf-8"))
    recorded["shapes"]["t1:t1-removed"] = "pass"
    baseline.write_text(json.dumps(recorded), encoding="utf-8")
    capsys.readouterr()
    assert main(common + ["--check-baseline"]) == 1
    assert "stale" in capsys.readouterr().err


def test_cli_fidelity_rejects_unknown_table(capsys):
    code = main(["fidelity", "--tables", "9", "--seeds", "1"])
    assert code == 2
    assert "unknown paper table" in capsys.readouterr().err


def test_cli_explain_names_bottleneck_and_condition(capsys, tmp_path):
    json_out = tmp_path / "explain.json"
    code = main(
        ["figure3", "--duration", "10", "--explain-out", str(json_out)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "flow 2" in out
    assert "clique" in out
    assert "maxmin" in out
    import json

    payload = json.loads(json_out.read_text(encoding="utf-8"))
    assert [record["flow_id"] for record in payload] == [1, 2, 3]
    for record in payload:
        assert record["bottleneck_clique"] is not None
        assert record["active_condition"]
        assert "entered_at" in record and "adjustments" in record


def test_cli_explain_rejects_unknown_scenario(capsys, tmp_path):
    json_out = tmp_path / "explain.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["figure99", "--explain-out", str(json_out)])
    assert exit_info.value.code == 2
    assert "invalid choice: 'figure99'" in capsys.readouterr().err
    assert not json_out.exists()


#: A numeric flag, and the flags that make it take effect.
NUMERIC_FLAGS = {
    "--duration": [],
    "--period": [],
    "--wall-deadline": [],
    "serve --pace": ["--port", "0", "--session-dir", "{tmp}/session"],
}


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("flag", list(NUMERIC_FLAGS))
def test_cli_rejects_non_positive_or_non_finite_numbers(capsys, tmp_path, flag, value):
    *command, option = flag.split()
    extra = [part.format(tmp=tmp_path) for part in NUMERIC_FLAGS[flag]]
    code = main(
        [*command, "figure3", "--duration", "2", *extra, option, value]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
