"""UNIT rules: dimension inference over seconds / bits / bits-per-second.

The simulator keeps every quantity in base units (seconds, bits,
bits/second — see :mod:`repro.units`), so unit errors do not fail
loudly: they show up as a figure that is off by 1e6.  This pass infers
dimensions *syntactically* — from ``repro.units`` constants, from
identifier words (``slot_time``, ``rate_bps``, ``payload_bytes``),
and from call-site names (``transmission_time(...)`` returns seconds)
— and propagates them through arithmetic as exponent pairs
``(seconds, bits)``: TIME=(1,0), SIZE=(0,1), RATE=(-1,1).  Multiplying
adds exponents, dividing subtracts; anything unknown stays unknown and
suppresses checks, so only contradictions between two *positively
inferred* dimensions are reported.

* **UNIT001** — ``+``/``-`` between two expressions with different
  inferred dimensions (adding seconds to bits/second).  Bare numeric
  literals are never an operand (``duration + 5`` is fine; the 5 takes
  the dimension of the context).
* **UNIT002** — a bare numeric literal with magnitude >= 1000 passed
  to a rate-dimensioned parameter (``data_rate=11e6``): spell it
  ``11 * MBPS`` so the magnitude is auditable.  Limited to rates
  because seconds-valued parameters legitimately take small bare
  numbers (the base unit) and sizes take 1024-style literals.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.simcheck.callgraph import ModuleInfo, Program
from repro.simcheck.findings import Finding, finding_at
from repro.simcheck.perf_rules import words_of

#: Exponent pair: (seconds exponent, bits exponent).
Dim = tuple[int, int]

TIME: Dim = (1, 0)
SIZE: Dim = (0, 1)
RATE: Dim = (-1, 1)

#: repro.units constant -> dimension.
UNITS_CONSTANTS: dict[str, Dim] = {
    "SECONDS": TIME,
    "MILLISECONDS": TIME,
    "MICROSECONDS": TIME,
    "BITS": SIZE,
    "BYTES": SIZE,
    "KILOBITS": SIZE,
    "MEGABITS": SIZE,
    "BPS": RATE,
    "KBPS": RATE,
    "MBPS": RATE,
}

TIME_WORDS = {
    "second",
    "seconds",
    "sec",
    "secs",
    "time",
    "duration",
    "interval",
    "timeout",
    "delay",
    "latency",
    "deadline",
    "period",
    "airtime",
    "sifs",
    "difs",
    "eifs",
    "preamble",
}
RATE_WORDS = {"rate", "rates", "bps", "kbps", "mbps", "bandwidth", "throughput", "goodput"}
SIZE_WORDS = {"bit", "bits", "byte", "bytes", "kilobits", "megabits", "size", "mtu"}

#: Words that mark a name as a *count* of units rather than a quantity
#: — ``timeout_slack_slots`` is a number of slots, not a time, even
#: though "timeout" is a time word.  A count word defeats inference.
COUNT_WORDS = {
    "slots",
    "count",
    "counts",
    "num",
    "number",
    "retries",
    "attempts",
    "limit",
}

#: Parameter-name words that exempt a name from UNIT002 even when a
#: rate word is present ("capacity" parameters take counts/pps values
#: whose natural spelling is a bare number).
UNIT002_EXEMPT_WORDS = {"capacity"}

_DIM_NAMES = {TIME: "seconds", SIZE: "bits", RATE: "bits/second"}


def _dim_name(dim: Dim) -> str:
    return _DIM_NAMES.get(dim, f"s^{dim[0]}*bit^{dim[1]}")


def dim_of_name(name: str) -> Dim | None:
    """Dimension suggested by an identifier, or None.

    ``x_per_y`` names divide: the words left of ``per`` over the words
    right of it (``bits_per_second`` -> RATE); if either side is
    unknown the whole name is unknown (``packets_per_second`` returns
    packets/s, which is *not* bits/s).  Without ``per``, the words must
    agree on exactly one dimension (``rate_interval`` is contradictory
    -> unknown).
    """
    lowered = name.lower()
    parts = lowered.split("_")
    if "per" in parts:
        cut = parts.index("per")
        left = dim_of_name("_".join(parts[:cut]))
        right = dim_of_name("_".join(parts[cut + 1 :]))
        if left is None or right is None:
            return None
        return (left[0] - right[0], left[1] - right[1])
    words = words_of(lowered)
    if words & COUNT_WORDS:
        return None
    candidates: set[Dim] = set()
    if words & TIME_WORDS:
        candidates.add(TIME)
    if words & RATE_WORDS:
        candidates.add(RATE)
    if words & SIZE_WORDS:
        candidates.add(SIZE)
    if len(candidates) == 1:
        return candidates.pop()
    return None


def _is_numeric_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def _literal_value(node: ast.expr) -> float | None:
    sign = 1.0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
        node = node.operand
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return sign * float(node.value)
    return None


class _UnitChecker:
    """One pass over one module, in source order, with a per-scope
    environment of inferred local dimensions."""

    def __init__(self, module: ModuleInfo, program: Program) -> None:
        self.module = module
        self.program = program
        self.findings: list[Finding] = []

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            finding_at(
                rule,
                node,
                path=self.module.display_path,
                message=message,
            )
        )

    # -- dimension inference ------------------------------------------------

    def _units_constant_dim(self, node: ast.expr) -> Dim | None:
        resolved = self.module.aliases.resolve(node)
        if resolved is None:
            return None
        parts = resolved.split(".")
        leaf = parts[-1]
        if leaf not in UNITS_CONSTANTS:
            return None
        if "units" in parts or self.module.module == "units":
            return UNITS_CONSTANTS[leaf]
        return None

    def dim_of(self, node: ast.expr, env: dict[str, Dim]) -> Dim | None:
        if _is_numeric_literal(node):
            return (0, 0)  # dimensionless scalar
        constant = self._units_constant_dim(node) if isinstance(
            node, (ast.Name, ast.Attribute)
        ) else None
        if constant is not None:
            return constant
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return dim_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return dim_of_name(node.attr)
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else None
            )
            if name is None:
                return None
            return dim_of_name(name)
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            return self.dim_of(node.operand, env)
        if isinstance(node, ast.BinOp):
            left = self.dim_of(node.left, env)
            right = self.dim_of(node.right, env)
            if isinstance(node.op, ast.Mult):
                if left is None or right is None:
                    return None
                return (left[0] + right[0], left[1] + right[1])
            if isinstance(node.op, ast.Div):
                if left is None or right is None:
                    return None
                return (left[0] - right[0], left[1] - right[1])
            if isinstance(node.op, (ast.Add, ast.Sub)):
                # The checked case; the result dimension is whichever
                # side knows one (after UNIT001 they must agree).
                for side, side_node in ((left, node.left), (right, node.right)):
                    if side is not None and not _is_numeric_literal(side_node):
                        return side
                return None
        return None

    # -- UNIT001 ------------------------------------------------------------

    def _check_binop(self, node: ast.BinOp, env: dict[str, Dim]) -> None:
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return
        if _is_numeric_literal(node.left) or _is_numeric_literal(node.right):
            return  # a bare scalar takes the dimension of its context
        left = self.dim_of(node.left, env)
        right = self.dim_of(node.right, env)
        if left is None or right is None or left == right:
            return
        if left == (0, 0) or right == (0, 0):
            return  # dimensionless products (ratios) combine freely
        op = "+" if isinstance(node.op, ast.Add) else "-"
        self._emit(
            "UNIT001",
            node,
            f"'{op}' mixes {_dim_name(left)} with {_dim_name(right)}; "
            "convert explicitly before combining",
        )

    # -- UNIT002 ------------------------------------------------------------

    def _callee_params(self, func: ast.expr) -> list[str] | None:
        """Positional parameter names of the resolved callee."""
        resolved = self.module.aliases.resolve(func)
        if resolved is None:
            return None
        qualname = self.program.resolve_symbol(resolved)
        if qualname is None and "." not in resolved:
            # A bare name that no import introduced: a same-module def.
            local = f"{self.module.module}.{resolved}"
            if local in self.program.functions or local in self.program.classes:
                qualname = local
        if qualname is None:
            return None
        if qualname in self.program.classes:
            cls = self.program.classes[qualname]
            if cls.fields:
                return list(cls.fields)  # dataclass field order
            init = self.program.method_on(qualname, "__init__")
            if init is None:
                return None
            info = self.program.functions[init]
            args = info.node.args
            names = [a.arg for a in list(args.posonlyargs) + list(args.args)]
            return names[1:]  # drop self
        if qualname in self.program.functions:
            info = self.program.functions[qualname]
            args = info.node.args
            return [a.arg for a in list(args.posonlyargs) + list(args.args)]
        return None

    def _check_call(self, node: ast.Call) -> None:
        named: list[tuple[str, ast.expr]] = [
            (kw.arg, kw.value) for kw in node.keywords if kw.arg is not None
        ]
        if any(_is_numeric_literal(arg) for arg in node.args):
            params = self._callee_params(node.func)
            if params is not None:
                named.extend(
                    (params[i], arg)
                    for i, arg in enumerate(node.args)
                    if i < len(params)
                )
        for param, value in named:
            magnitude = _literal_value(value)
            if magnitude is None or abs(magnitude) < 1000:
                continue
            if words_of(param) & UNIT002_EXEMPT_WORDS:
                continue
            if dim_of_name(param) != RATE:
                continue
            self._emit(
                "UNIT002",
                value,
                f"bare literal {magnitude:g} passed to rate parameter "
                f"'{param}'; spell it with a units constant "
                "(e.g. 11 * MBPS)",
            )

    # -- traversal ----------------------------------------------------------

    def check(self) -> list[Finding]:
        self._walk_body(self.module.tree.body, {})
        return self.findings

    def _seed_env(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, Dim]:
        env: dict[str, Dim] = {}
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            dim = dim_of_name(arg.arg)
            if dim is not None:
                env[arg.arg] = dim
        return env

    def _walk_body(
        self, body: Iterable[ast.stmt], env: dict[str, Dim]
    ) -> None:
        for stmt in body:
            self._walk_stmt(stmt, env)

    def _walk_stmt(self, stmt: ast.stmt, env: dict[str, Dim]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._walk_body(stmt.body, self._seed_env(stmt))
            return
        if isinstance(stmt, ast.ClassDef):
            self._walk_body(stmt.body, {})
            return
        self._walk_expr_tree(stmt, env)
        # Bind simple local assignments so later lines see the dim.
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                dim = self.dim_of(stmt.value, env)
                if dim is not None and dim != (0, 0):
                    env[target.id] = dim
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                dim = self.dim_of(stmt.value, env)
                if dim is not None and dim != (0, 0):
                    env[stmt.target.id] = dim
        # Recurse into compound statements in source order.
        for child_body in _compound_bodies(stmt):
            self._walk_body(child_body, env)

    def _walk_expr_tree(self, stmt: ast.stmt, env: dict[str, Dim]) -> None:
        """Check every expression directly under this statement (not
        those inside nested statement bodies)."""
        for node in _own_expressions(stmt):
            if isinstance(node, ast.BinOp):
                self._check_binop(node, env)
            elif isinstance(node, ast.Call):
                self._check_call(node)


def _compound_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies: list[list[ast.stmt]] = []
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            bodies.append(block)
    for handler in getattr(stmt, "handlers", []) or []:
        bodies.append(handler.body)
    for case in getattr(stmt, "cases", []) or []:
        bodies.append(case.body)
    return bodies


def _own_expressions(stmt: ast.stmt) -> Iterable[ast.expr]:
    """Expressions belonging to this statement, excluding nested
    statement bodies (those recurse via :func:`_compound_bodies`)."""
    pending: list[ast.AST] = []
    for field_name, value in ast.iter_fields(stmt):
        if field_name in {"body", "orelse", "finalbody", "handlers", "cases"}:
            continue
        if isinstance(value, ast.expr):
            pending.append(value)
        elif isinstance(value, list):
            pending.extend(v for v in value if isinstance(v, ast.expr))
    seen: list[ast.expr] = []
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.expr):
            seen.append(node)
        pending.extend(ast.iter_child_nodes(node))
    return seen


def check_module_units(module: ModuleInfo, program: Program) -> list[Finding]:
    """Run UNIT001/UNIT002 over one module."""
    return _UnitChecker(module, program).check()
