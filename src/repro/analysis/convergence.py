"""Convergence diagnostics for rate-adaptation runs.

GMP converges to an AIMD-style limit cycle around the maxmin point
(amplitude on the order of β); :func:`convergence_time` finds when a
rate trajectory enters a tolerance band and stays there.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import AnalysisError


def convergence_time(
    trajectory: Sequence[float],
    target: float,
    *,
    tolerance: float = 0.2,
    hold: int = 3,
) -> int | None:
    """First index from which the trajectory stays within
    ``tolerance`` (relative) of ``target`` for at least ``hold``
    consecutive samples; None if it never settles.

    Raises:
        AnalysisError: on empty trajectories or non-positive targets.
    """
    if not trajectory:
        raise AnalysisError("convergence time of an empty trajectory")
    if target <= 0:
        raise AnalysisError(f"target must be positive: {target}")
    run = 0
    start: int | None = None
    for index, value in enumerate(trajectory):
        if abs(value - target) <= tolerance * target:
            if run == 0:
                start = index
            run += 1
            if run >= hold and index == len(trajectory) - 1:
                return start
        else:
            run = 0
            start = None
    if run >= hold:
        return start
    return None

