"""simcheck: every rule fires on its fixture, the committed tree is
clean, and a pragma accepts a finding only when it names the rule and a
reason, and goes stale (PRAG001) once the finding does."""

from pathlib import Path

import pytest

from repro.simcheck import analyze_paths
from repro.simcheck.__main__ import main as simcheck_main
from repro.simcheck.findings import RULES

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "simcheck"

#: fixture file -> exact set of (rule, line) findings it must produce.
EXPECTED = {
    "det001_wall_clock.py": {("DET001", 7)},
    "det002_stdlib_random.py": {("DET002", 3), ("DET002", 7)},
    "det003_entropy.py": {("DET003", 7)},
    "det004_numpy_rng.py": {("DET004", 7)},
    "det005_set_iteration.py": {("DET005", 6)},
    "det006_unstable_sort_key.py": {("DET006", 5)},
    "det007_set_sum.py": {("DET007", 5)},
    "lay001_dag_violation.py": {("LAY001", 4)},
    "lay002_telemetry_kernel.py": {("LAY002", 4)},
    "lay003_telemetry_schedule.py": {("LAY003", 6)},
    "prag001_no_rule.py": {("DET001", 7), ("PRAG001", 7)},
    "prag001_no_reason.py": {("DET001", 7), ("PRAG001", 7)},
    "prag001_suppresses_nothing.py": {("PRAG001", 1), ("PRAG001", 10)},
    "clean.py": set(),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_triggers_exactly_its_rule(name):
    findings = analyze_paths([FIXTURES / name])
    assert {(f.rule, f.line) for f in findings} == EXPECTED[name]
    for finding in findings:
        assert finding.rule in RULES
        assert finding.path.endswith(name)


def test_every_rule_id_is_covered_by_a_fixture():
    covered = {rule for expected in EXPECTED.values() for rule, _ in expected}
    assert covered == set(RULES)


def test_committed_tree_is_clean():
    findings = analyze_paths([REPO_ROOT / "src"])
    assert findings == [], [f.render() for f in findings]


def test_inline_and_filewide_suppressions(tmp_path):
    offender = "import time\n\n\ndef f():\n    return time.time()\n"
    path = tmp_path / "mod.py"
    path.write_text(offender)
    assert [f.rule for f in analyze_paths([path])] == ["DET001"]
    path.write_text(
        offender.replace(
            "return time.time()",
            "return time.time()  # simcheck: allow[DET001] test",
        )
    )
    assert analyze_paths([path]) == []
    path.write_text("# simcheck: allow-file[DET001] test\n" + offender)
    assert analyze_paths([path]) == []


def test_unrelated_rule_suppression_does_not_hide_finding(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import time\n"
        "\n"
        "\n"
        "def f():\n"
        "    return time.time()  # simcheck: allow[DET005] wrong rule\n"
    )
    # The finding stands, and the pragma that accepts nothing is a finding.
    assert sorted(f.rule for f in analyze_paths([path])) == ["DET001", "PRAG001"]


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\n")

    assert simcheck_main([str(clean)]) == 0
    assert simcheck_main([str(dirty)]) == 1
    # Accepting the finding at its line makes the run clean ...
    dirty.write_text("import random  # simcheck: allow[DET002] test\n")
    assert simcheck_main([str(dirty)]) == 0
    # ... and fixing it leaves the pragma stale, which fails until removed.
    dirty.write_text("VALUE = 2  # simcheck: allow[DET002] test\n")
    assert simcheck_main([str(dirty)]) == 1
    assert "PRAG001 allow[DET002] pragma suppresses no finding" in (
        capsys.readouterr().out
    )
    assert simcheck_main([str(tmp_path / "missing.py")]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert simcheck_main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == sorted(RULES)
    assert listed == [f"DET00{n}" for n in range(1, 8)] + [
        "LAY001", "LAY002", "LAY003", "PRAG001",
    ]
