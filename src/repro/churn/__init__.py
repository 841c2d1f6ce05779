"""Dynamic workloads: flow churn over a running scenario.

The paper's GMP protocol is an *online* algorithm — flows come and go
and the rate allocation must re-converge around every change.  This
package makes that a first-class workload:

* :mod:`repro.churn.spec` — the churn specification (Poisson arrivals
  with exponential or heavy-tailed Pareto holding times, phase
  switching traffic, an adversarial arrival scheduler) plus the
  deterministic *trace builder* that expands a spec into a concrete
  sequence of flow arrival/departure events through
  :class:`~repro.sim.rng.RngRegistry` streams — same seed, same trace,
  replayable byte for byte;
* :mod:`repro.churn.adversary` — the adversarial scheduler, which
  phase-locks arrival bursts to the GMP measurement period to maximize
  rate oscillation of the standing flows (in the spirit of the
  Max-Weight adversarial-arrival literature: the *pattern*, not the
  rate, is what breaks distributed schedulers);
* :mod:`repro.churn.engine` — the runtime engine that arms a trace on
  a live scenario: arrivals register new flows with GMP (grand virtual
  network grafting, source registration), departures tear them down
  again and audit that nothing leaked.

``RunSpec(churn=...)`` wires all of this together; see
``docs/FAULTS.md`` ("Dynamic workloads & fuzzing").
"""

from repro.churn.engine import ChurnEngine, ChurnReport
from repro.churn.spec import (
    ChurnSpec,
    ChurnTrace,
    FlowArrival,
    FlowDeparture,
    build_trace,
    parse_churn_spec,
    routable_pairs,
)

__all__ = [
    "ChurnEngine",
    "ChurnReport",
    "ChurnSpec",
    "ChurnTrace",
    "FlowArrival",
    "FlowDeparture",
    "build_trace",
    "parse_churn_spec",
    "routable_pairs",
]
