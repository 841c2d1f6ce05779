"""Analysis toolkit: fairness indices, the centralized weighted-maxmin
reference solver, effective throughput, convergence and resilience
metrics, and text tables for the benchmark harness."""

from repro.analysis.convergence import convergence_time
from repro.analysis.fairness import (
    equality_fairness_index,
    jain_index,
    maxmin_fairness_index,
    normalized_rates,
)
from repro.analysis.maxmin_reference import MaxminSolution, weighted_maxmin_rates
from repro.analysis.report import format_table
from repro.analysis.resilience import (
    TransientMetrics,
    evaluate_transient,
    goodput_lost,
    min_rate_dip,
    reconvergence_time,
    surviving_maxmin_reference,
)
from repro.analysis.throughput import effective_network_throughput

__all__ = [
    "maxmin_fairness_index",
    "equality_fairness_index",
    "jain_index",
    "normalized_rates",
    "MaxminSolution",
    "weighted_maxmin_rates",
    "effective_network_throughput",
    "convergence_time",
    "format_table",
    "TransientMetrics",
    "evaluate_transient",
    "goodput_lost",
    "min_rate_dip",
    "reconvergence_time",
    "surviving_maxmin_reference",
]
