"""CLI surfaces of the static gate: GitHub annotations and the
``python -m repro check`` consolidated gate."""

import subprocess
from pathlib import Path

from repro.check import StepResult, check_main, run_gate
from repro.simcheck.__main__ import main as simcheck_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _no_tools(monkeypatch):
    """Neither ruff nor mypy is installed: the gate is simcheck alone."""
    monkeypatch.setattr("repro.check.shutil.which", lambda name: None)


def _simcheck_ok(monkeypatch):
    monkeypatch.setattr("repro.check.simcheck_main", lambda argv: 0)


def test_github_format_annotations(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\n")
    assert simcheck_main([str(dirty), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert f"::error file={dirty},line=1,col=1,title=DET002::" in out

    # An accepted finding prints nothing and exits 0.
    dirty.write_text("import random  # simcheck: allow[DET002] test\n")
    assert simcheck_main([str(dirty), "--format", "github"]) == 0
    assert capsys.readouterr().out == ""


def test_check_gate_runs_simcheck_against_the_repo(monkeypatch, capsys):
    _no_tools(monkeypatch)
    assert check_main([]) == 0
    out = capsys.readouterr().out
    assert "check: simcheck=ok  ruff=skipped  mypy=skipped" in out


def test_check_gate_skips_missing_tools(monkeypatch, capsys):
    _no_tools(monkeypatch)
    _simcheck_ok(monkeypatch)
    results = run_gate(root=REPO_ROOT)
    assert [r.status for r in results] == ["ok", "skipped", "skipped"]
    assert all(not r.failed for r in results)
    # --strict-tools turns the skip into a failure.
    results = run_gate(root=REPO_ROOT, strict_tools=True)
    assert [r.status for r in results] == ["ok", "fail", "fail"]


def test_check_gate_propagates_tool_failure(monkeypatch):
    _simcheck_ok(monkeypatch)
    monkeypatch.setattr("repro.check.shutil.which", lambda name: "/bin/true")
    monkeypatch.setattr(
        "repro.check.subprocess.run",
        lambda argv, cwd: subprocess.CompletedProcess(
            argv, returncode=3 if argv[0] == "mypy" else 0
        ),
    )
    assert run_gate(root=REPO_ROOT) == [
        StepResult("simcheck", "ok"),
        StepResult("ruff", "ok"),
        StepResult("mypy", "fail", "exit code 3"),
    ]
    monkeypatch.setattr("repro.check.simcheck_main", lambda argv: 1)
    assert run_gate(root=REPO_ROOT)[0] == StepResult(
        "simcheck", "fail", "exit code 1"
    )


def test_repro_main_dispatches_check(monkeypatch, capsys):
    from repro.__main__ import main as repro_main

    _no_tools(monkeypatch)
    _simcheck_ok(monkeypatch)
    assert repro_main(["check"]) == 0
    assert "check: simcheck=ok" in capsys.readouterr().out
