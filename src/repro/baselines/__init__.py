"""Baseline protocols the paper compares GMP against (§7.2).

* plain IEEE 802.11 DCF: a shared 300-packet FIFO with tail overwrite
  and no rate control — :class:`~repro.buffers.queues.SharedFifoBuffer`
  at its default capacity, nothing more;
* :mod:`repro.baselines.two_phase` — 2PP (Li, ICDCS'05): per-flow
  10-packet queues, a conservative *basic fair share* for every flow,
  and a linear program that hands the remaining capacity to the flows
  that consume the least of it (favoring short flows).
"""

from repro.baselines.two_phase import TwoPhaseAllocation, two_phase_rates

__all__ = ["TwoPhaseAllocation", "two_phase_rates"]
