"""simcheck: determinism, layering, and passivity static analysis.

The repo's core guarantees — runs replay identically given a seed,
telemetry is strictly passive, modules respect the dependency DAG —
are cheap to break silently: one ``random.random()``, one iteration
over a ``set`` in an event handler, one telemetry import of the
kernel.  ``simcheck`` walks the AST of every source file and flags
exactly those hazards at review time, before a golden test has to
catch them at run time.

Two analysis layers share one parse of the tree: a per-file AST pass,
and a whole-program pass built on the :mod:`repro.simcheck.callgraph`
call graph (hot-path classification with evidence chains from the
registration site).

Rule families (see :data:`RULES` and docs/SIMCHECK.md):

* ``DET0xx`` — determinism: entropy sources outside ``sim/rng.py``,
  wall-clock reads, unordered-set iteration, hash/identity-order
  sorting, float accumulation over unordered collections;
* ``LAY0xx`` — layering: the module dependency DAG, with the
  telemetry/kernel separation called out specially;
* ``PAS0xx`` — passivity: telemetry instrument call sites must be
  side-effect-free expressions;
* ``PERF0xx`` — hot-path complexity: latent O(n^2) collection rescans,
  loop-invariant recomputation, per-event container churn — only on
  functions reachable from a kernel scheduling registration;
* ``UNIT0xx`` — dimension checking over seconds/bits/bits-per-second
  inferred from ``repro.units`` constants and identifier names;
* ``PRAG001`` — suppression hygiene: an ``allow`` pragma must name
  catalogue rules, give a reason, and suppress a finding in the run.

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

from repro.simcheck.callgraph import Program, build_program, parse_module
from repro.simcheck.findings import Finding, RULES
from repro.simcheck.rules import analyze_paths

__all__ = [
    "Finding",
    "Program",
    "RULES",
    "analyze_paths",
    "build_program",
    "parse_module",
]
