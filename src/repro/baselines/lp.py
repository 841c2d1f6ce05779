"""Linear-program wrapper for 2PP's second phase.

2PP distributes the capacity left over after the basic fair shares by
maximizing aggregate extra throughput subject to the clique capacity
constraints — the LP naturally concentrates the surplus on flows that
consume the fewest clique resources (short and lightly contended
flows), which is exactly the bias the paper criticizes in Table 4.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError


def maximize_total_extra(
    consumption: np.ndarray,
    slack: np.ndarray,
    upper_bounds: np.ndarray,
) -> np.ndarray:
    """Solve ``max sum(x)`` s.t. ``consumption @ x <= slack``,
    ``0 <= x <= upper_bounds``.

    Args:
        consumption: (num_cliques, num_flows) matrix; entry (c, f) is
            how many units of clique c's capacity one packet/second of
            flow f consumes (its path links inside c).
        slack: remaining capacity per clique after phase 1.
        upper_bounds: per-flow cap (desired rate minus basic share).

    Returns:
        The optimal extra rate per flow.

    Raises:
        AnalysisError: if the LP is infeasible (cannot happen with
            non-negative slack) or the solver fails.
    """
    num_flows = consumption.shape[1] if consumption.size else len(upper_bounds)
    if num_flows == 0:
        return np.zeros(0)
    # Only 2PP solves an LP, so scipy loads here, at its first solve,
    # not when the package is imported.
    from scipy.optimize import linprog

    slack = np.maximum(slack, 0.0)
    upper_bounds = np.maximum(upper_bounds, 0.0)
    result = linprog(
        c=-np.ones(num_flows),
        A_ub=consumption if consumption.size else None,
        b_ub=slack if consumption.size else None,
        bounds=[(0.0, float(bound)) for bound in upper_bounds],
        method="highs",
    )
    if not result.success:
        raise AnalysisError(f"2PP phase-2 LP failed: {result.message}")
    return np.maximum(result.x, 0.0)
