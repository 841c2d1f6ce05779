"""Scenario layer: the paper's evaluation topologies, the runner
that assembles a full stack (topology → routing → buffers → MAC →
protocol → traffic) and collects results, and :class:`RunSpec`, the
one description of a run: the CLI, sweep, serve, fuzz, tests and
examples all build one."""

from repro.scenarios.figures import (
    Scenario,
    figure1,
    figure2,
    figure3,
    figure4,
)
from repro.scenarios.results import RunResult
from repro.scenarios.spec import RunSpec

__all__ = [
    "Scenario",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "RunResult",
    "RunSpec",
]
