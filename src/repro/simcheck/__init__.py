"""simcheck: determinism and layering static analysis.

The repo's core guarantees — runs replay identically given a seed,
telemetry is strictly passive, modules respect the dependency DAG —
are cheap to break silently: one ``random.random()``, one iteration
over a ``set`` in an event handler, one telemetry import of the
kernel.  ``simcheck`` walks the AST of every source file and flags
exactly those hazards at review time, one file at a time.

Rule families (see :data:`RULES` and docs/SIMCHECK.md):

* ``DET0xx`` — determinism: entropy sources outside ``sim/rng.py``,
  wall-clock reads, unordered-set iteration, hash/identity-order
  sorting, float accumulation over unordered collections;
* ``LAY0xx`` — layering: the module dependency DAG, with the
  telemetry/kernel separation called out specially;
* ``PRAG001`` — suppression hygiene: an ``allow`` pragma must name
  catalogue rules, give a reason, and suppress a finding in the run.

What a parse cannot see is checked by running, in tier-1: the behaviour
fence under two more hash seeds, an instrumented run against the bare
one on each substrate, and a count of per-link clique rescans
(docs/SIMCHECK.md, "Checked by running").

Usage::

    python -m repro.simcheck src/
    python -m repro.simcheck src/ --format github
    python -m repro check            # simcheck + ruff + mypy, one exit code

A finding is fixed, or accepted where it stands: append
``# simcheck: allow[RULE] reason`` to the offending line, or put
``# simcheck: allow-file[RULE] reason`` on a comment line to accept a
rule for a whole file.  Any finding fails the run, and so does a pragma
that is malformed or suppresses nothing, so the set of accepted
findings only ever shrinks.
"""

from __future__ import annotations

from repro.simcheck.findings import Finding, RULES
from repro.simcheck.rules import analyze_paths

__all__ = [
    "Finding",
    "RULES",
    "analyze_paths",
]
