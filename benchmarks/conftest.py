"""Shared set-up for the hot-path benchmarks (``test_performance.py``).

The paper's claims — Tables 1-4, Figure 1, convergence and the
ablations — are checked by the fidelity harness
(``python -m repro fidelity``), not here.
"""

import pathlib
import sys

# Make the shared test fixtures (tests/helpers.py) importable from any
# CWD — conftest loads before the benchmark modules, so their plain
# ``from helpers import ...`` resolves without per-module path hacks.
_TESTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "tests"
if str(_TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(_TESTS_DIR))
