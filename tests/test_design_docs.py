"""Documentation consistency: the per-experiment index in DESIGN.md
and README point at bench and test files, fidelity entries and shapes
that actually exist, and EXPERIMENTS.md covers every table and figure."""

import pathlib
import re

from repro.fidelity.paper import PAPER_TABLES

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_design_bench_targets_exist():
    text = (ROOT / "DESIGN.md").read_text()
    targets = set(re.findall(r"(?:benchmarks|tests)/test_\w+\.py", text))
    assert targets, "DESIGN.md must reference bench targets"
    for target in targets:
        assert (ROOT / target).exists(), target
    # Every fidelity cell of the per-experiment index names registry
    # entries, and every shape (or ``prefix-*``) it quotes is one of theirs.
    index = text.split("## 4. Per-experiment index")[1].split("\n## ")[0]
    cells = [row for row in index.splitlines() if "repro fidelity --tables" in row]
    assert cells, "DESIGN.md §4 must point at the fidelity harness"
    for row in cells:
        (tables,) = re.findall(r"repro fidelity --tables ([\w,]+)", row)
        ids = [int(part) if part.isdigit() else part for part in tables.split(",")]
        assert all(table_id in PAPER_TABLES for table_id in ids), row
        shapes = [
            entry.assertion_id
            for table_id in ids
            for entry in PAPER_TABLES[table_id].assertions
        ]
        quoted = re.findall(r"`((?:t\d|fig\d)-[\w-]*\*?)`", row)
        assert quoted, row
        for name in quoted:
            if name.endswith("*"):
                assert any(shape.startswith(name[:-1]) for shape in shapes), name
            else:
                assert name in shapes, name


def test_experiments_covers_all_tables_and_figures():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for artifact in ("Table 1", "Table 2", "Table 3", "Table 4"):
        assert artifact in text, artifact
    for figure in ("E-fig1", "E-fig2", "E-fig3", "E-fig4"):
        assert figure in text, figure


def test_readme_examples_exist():
    text = (ROOT / "README.md").read_text()
    for example in re.findall(r"`(\w+\.py)`", text):
        # Bench and test files are referenced with their test_ prefix.
        homes = ("benchmarks", "tests") if example.startswith("test_") else (
            "examples",
        )
        assert any((ROOT / home / example).exists() for home in homes), example
