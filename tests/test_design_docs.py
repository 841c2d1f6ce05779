"""Documentation consistency: the per-experiment index in DESIGN.md
and README point at bench and test files that actually exist, and
EXPERIMENTS.md covers every table and figure."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_design_bench_targets_exist():
    text = (ROOT / "DESIGN.md").read_text()
    targets = set(re.findall(r"(?:benchmarks|tests)/test_\w+\.py", text))
    assert targets, "DESIGN.md must reference bench targets"
    for target in targets:
        assert (ROOT / target).exists(), target


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
