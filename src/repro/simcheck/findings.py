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
    "PAS001": (
        "assignment expression (walrus) inside a telemetry instrument "
        "call; instrument arguments must be side-effect-free"
    ),
    "PAS002": (
        "mutating method call inside a telemetry instrument argument; "
        "disabling telemetry must not change program state"
    ),
    "PERF001": (
        "nested iteration over node/link/flow/clique collections on a "
        "hot-path function where the inner iterable is independent of "
        "the outer loop — latent O(n^2); precompute an index "
        "(e.g. topology.cliques.clique_index_positions)"
    ),
    "PERF002": (
        "loop-invariant recomputation on a hot path: a derive/build/"
        "cliques-style call inside a loop whose arguments do not depend "
        "on the loop — hoist it out or maintain it incrementally"
    ),
    "PERF003": (
        "list/dict/set allocation inside nested collection loops on a "
        "hot-path function; the container is rebuilt per element per "
        "event — hoist or reuse it"
    ),
    "UNIT001": (
        "arithmetic mixes dimensions (seconds vs bits vs bits/second) "
        "inferred from repro.units constructors and parameter names; "
        "convert explicitly before combining"
    ),
    "UNIT002": (
        "bare numeric literal passed to a rate-dimensioned parameter; "
        "spell it with a units constant (e.g. 11 * MBPS) so the "
        "magnitude is auditable"
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
    via: str = ""  # call-chain evidence (whole-program rules only)

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.via:
            text += f"\n    via {self.via}"
        return text


def finding_at(
    rule: str,
    node: ast.AST,
    *,
    path: str,
    message: str,
    via: str = "",
) -> Finding:
    """Build a Finding anchored at an AST node of a known file."""
    return Finding(
        rule=rule,
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
        via=via,
    )
