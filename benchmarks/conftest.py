"""Shared set-up for the benchmark harness.

The paper's Tables 1-4 and Figures 2-4 are regenerated and checked by
the fidelity harness (``python -m repro fidelity``) and
``tests/test_scenarios.py``; the modules here bench what has no copy
there (Figure 1's queue isolation, convergence, ablations, hot paths).
"""

import pathlib
import sys

import pytest

# Make the shared test fixtures (tests/helpers.py) importable from any
# CWD — conftest loads before the benchmark modules, so their plain
# ``from helpers import ...`` resolves without per-module path hacks.
_TESTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "tests"
if str(_TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(_TESTS_DIR))


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once (sims are long)."""

    def runner(func):
        return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)

    return runner
