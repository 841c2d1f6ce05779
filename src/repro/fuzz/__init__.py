"""Property-based scenario fuzzing with oracle checking and shrinking.

The fuzzer closes the loop the unit tests cannot: it generates whole
*scenarios* — random connected topology, static flows, a churn process,
a fault schedule — runs each one end to end, and checks properties that
must hold for **any** workload (determinism, packet conservation, clean
flow teardown, no starvation of deliverable flows, watchdog-clean
termination).  Failures are automatically shrunk to minimal JSON specs
that replay bit-for-bit and can be committed as regression fixtures.

* :mod:`repro.fuzz.grammar` — the seeded scenario grammar and
  :class:`FuzzScenario`, a :class:`~repro.scenarios.spec.RunSpec` plus
  its planted bug (the committed-fixture format);
* :mod:`repro.fuzz.oracles` — the oracle battery and
  :func:`~repro.fuzz.oracles.evaluate`;
* :mod:`repro.fuzz.shrink` — greedy delta-debugging
  (:func:`~repro.fuzz.shrink.shrink`);
* :mod:`repro.fuzz.cli` — ``python -m repro fuzz``.
"""

from repro.fuzz.grammar import (
    FuzzScenario,
    GrammarConfig,
    generate_scenarios,
)
from repro.fuzz.oracles import ORACLES, FuzzOutcome, OracleResult, evaluate
from repro.fuzz.shrink import ShrinkResult, shrink

__all__ = [
    "FuzzScenario",
    "GrammarConfig",
    "generate_scenarios",
    "ORACLES",
    "FuzzOutcome",
    "OracleResult",
    "evaluate",
    "ShrinkResult",
    "shrink",
]
