"""Paper-fidelity observability.

Three instruments for trusting (or distrusting) the reproduction:

* :mod:`repro.fidelity.paper` — the source paper's Tables 1–4 and
  Figure 1 as machine-readable ground truth, with the qualitative
  *shape* properties of EXPERIMENTS.md (convergence and the ablations
  included) encoded as checkable predicates;
* :mod:`repro.fidelity.harness` — regenerates every table through the
  cached sweep engine over multiple seeds and emits a
  :class:`~repro.fidelity.harness.FidelityReport` (paper vs ours per
  cell, shape pass/fail, seed spread), gated in CI against a
  committed baseline ratchet;
* :mod:`repro.fidelity.explain` — one per-flow record answering "why is
  flow f at rate r": bottleneck clique, dominant local condition, gap
  to the centralized reference, when the rate entered its band, and
  each rate adjustment with its trigger.

Command line::

    python -m repro fidelity --tables 1,2,3,4,fig1 --seeds 1,2,3 --json out.json
    python -m repro figure3 --explain-out explain.json
"""

from repro.fidelity.explain import (
    RateExplanation,
    explain_all,
    explain_flow,
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
    "RateExplanation",
    "explain_all",
    "explain_flow",
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
