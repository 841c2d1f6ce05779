"""Paper-fidelity and run-health observability.

Three instruments for trusting (or distrusting) the reproduction:

* :mod:`repro.fidelity.paper` — the source paper's Tables 1–4 as
  machine-readable ground truth, with the qualitative *shape*
  properties of EXPERIMENTS.md encoded as checkable predicates;
* :mod:`repro.fidelity.harness` — regenerates every table through the
  cached sweep engine over multiple seeds and emits a
  :class:`~repro.fidelity.harness.FidelityReport` (paper vs ours per
  cell, shape pass/fail, seed spread), gated in CI against a
  committed baseline ratchet;
* :mod:`repro.fidelity.anomaly` / :mod:`repro.fidelity.explain` —
  run-health detectors over telemetry series, and per-flow "why is
  flow f at rate r" explanations.

Command line::

    python -m repro fidelity --tables 1,2,3,4 --seeds 1,2,3 --json out.json
    python -m repro explain figure3 --flow 2
"""

from repro.fidelity.anomaly import (
    AnomalyReport,
    Finding,
    detect_anomalies,
)
from repro.fidelity.explain import (
    RateExplanation,
    explain_all,
    explain_flow,
    run_and_explain,
)
from repro.fidelity.harness import (
    FidelityConfig,
    FidelityReport,
    TableFidelity,
    compare_baseline,
    load_baseline,
    run_fidelity,
    update_experiments,
    write_baseline,
)
from repro.fidelity.paper import (
    PAPER_BETA,
    PAPER_TABLES,
    PaperTable,
    ShapeAssertion,
)

__all__ = [
    "AnomalyReport",
    "Finding",
    "detect_anomalies",
    "RateExplanation",
    "explain_all",
    "explain_flow",
    "run_and_explain",
    "FidelityConfig",
    "FidelityReport",
    "TableFidelity",
    "compare_baseline",
    "load_baseline",
    "run_fidelity",
    "update_experiments",
    "write_baseline",
    "PAPER_BETA",
    "PAPER_TABLES",
    "PaperTable",
    "ShapeAssertion",
]
