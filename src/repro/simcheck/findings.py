"""Finding records and the rule catalogue."""

from __future__ import annotations

import ast
from dataclasses import dataclass

#: Every rule simcheck knows, with the one-line rationale shown by
#: ``--list-rules`` (the long form lives in docs/SIMCHECK.md).
RULES: dict[str, str] = {
    "DET001": (
        "wall-clock read (time.time/monotonic/perf_counter, datetime.now, "
        "...) in simulation code; simulated time comes from Simulator.now"
    ),
    "DET002": (
        "stdlib `random` used; draw from a named stream via sim.rng so "
        "consumers cannot perturb each other"
    ),
    "DET003": (
        "ambient entropy source (os.urandom, secrets, uuid.uuid1/uuid4); "
        "runs must be a pure function of (model, seed)"
    ),
    "DET004": (
        "numpy RNG constructed or drawn outside sim/rng.py; route draws "
        "through RngRegistry named streams"
    ),
    "DET005": (
        "iteration over a set expression; set order is hash-dependent — "
        "wrap in sorted() or iterate an ordered container"
    ),
    "DET006": (
        "sorting keyed on id()/repr(); identity and repr order are not "
        "stable across runs — use a semantic key "
        "(telemetry.stable_instrument_key for instruments)"
    ),
    "DET007": (
        "float accumulation (sum) over a set expression; addition order "
        "is hash-dependent — sum a sorted sequence"
    ),
    "LAY001": (
        "module dependency DAG violation; see the layer table in "
        "docs/SIMCHECK.md"
    ),
    "LAY002": (
        "telemetry imports the simulation layer (sim.kernel/sim.rng/"
        "sim.event/sim.replay); telemetry must stay passively below the "
        "kernel"
    ),
    "LAY003": (
        "telemetry code calls a scheduling API (call_at/call_later/every/"
        "schedule); telemetry may never schedule simulation events"
    ),
    "PRAG001": (
        "simcheck allow pragma that names no rule, names an unknown rule, "
        "gives no reason, or suppresses no finding in the run; a pragma "
        "accepts named findings for a stated reason and goes with them"
    ),
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, POSIX separators
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def finding_at(
    rule: str,
    node: ast.AST,
    *,
    path: str,
    message: str,
) -> Finding:
    """Build a Finding anchored at an AST node of a known file."""
    return Finding(
        rule=rule,
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
    )
