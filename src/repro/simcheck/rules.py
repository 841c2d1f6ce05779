"""The analysis pass behind ``python -m repro.simcheck``.

One AST walk per file checks determinism and layering (the DET and LAY
families; see :data:`repro.simcheck.findings.RULES` and
docs/SIMCHECK.md).  The walk is purely syntactic: import aliases are
resolved (``import time as _time`` still trips DET001), but there is no
type inference, so the rules flag *expressions that are sets*, not
values that happen to be.  That keeps the tool fast, zero-dependency
and conservative.  What a syntactic pass cannot see, tier-1 checks by
running: the behaviour fence under two hash seeds, an instrumented run
against a bare one on each substrate (docs/SIMCHECK.md, "Checked by
running").

A finding is accepted only by a pragma at its line or file
(``# simcheck: allow[RULE] reason``).  PRAG001 reports a pragma that
names no known rule, gives no reason, or accepts no finding, so the
accepted set can only shrink.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from repro.simcheck.findings import RULES, Finding, finding_at
from repro.simcheck.layering import SCHEDULING_CALLS, import_allowed
from repro.simcheck.source import AliasTable, ModuleInfo, Pragma, parse_module

#: Wall-clock reads (dotted, alias-resolved) flagged by DET001.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.thread_time",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Ambient entropy (DET003).
_ENTROPY_CALLS = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}
_ENTROPY_MODULES = {"secrets"}

#: Identity/repr sort keys (DET006).
_UNSTABLE_SORT_KEYS = {"id", "repr"}


def _is_set_expr(node: ast.expr, aliases: AliasTable) -> bool:
    """Is this expression syntactically a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        resolved = aliases.resolve(node.func)
        return resolved in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, aliases) or _is_set_expr(
            node.right, aliases
        )
    return False


class _FileChecker(ast.NodeVisitor):
    def __init__(
        self,
        display_path: str,
        module: str | None,
        known_modules: set[str],
    ) -> None:
        self.display_path = display_path
        self.module = module
        self.module_top = module.split(".")[0] if module else None
        self.known_modules = known_modules
        self.aliases = AliasTable()
        self.findings: list[Finding] = []
        # numpy-RNG rule exempts the one module whose job is seeding.
        self.is_rng_module = module == "sim.rng"
        self.in_telemetry = bool(module and self.module_top == "telemetry")

    # -- plumbing ----------------------------------------------------------

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            finding_at(rule, node, path=self.display_path, message=message)
        )

    # -- imports: aliases + DET002/DET003 + layering -----------------------

    def visit_Import(self, node: ast.Import) -> None:
        self.aliases.visit_import(node)
        for alias in node.names:
            top = alias.name.split(".")[0]
            if top == "random":
                self._emit(
                    "DET002", node, f"import of stdlib random ({alias.name})"
                )
            elif top in _ENTROPY_MODULES:
                self._emit("DET003", node, f"import of {alias.name}")
            self._check_layering(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.aliases.visit_import_from(node, self.module)
        module = node.module or ""
        top = module.split(".")[0]
        if top == "random":
            self._emit("DET002", node, "import from stdlib random")
        elif top in _ENTROPY_MODULES:
            self._emit("DET003", node, f"import from {module}")
        elif module == "numpy.random" and not self.is_rng_module:
            self._emit(
                "DET004",
                node,
                "import from numpy.random outside sim/rng.py",
            )
        for target in self._from_import_targets(node):
            self._check_layering(node, target)
        self.generic_visit(node)

    def _from_import_targets(self, node: ast.ImportFrom) -> Iterable[str]:
        """Absolute dotted modules a ``from X import y`` pulls in."""
        if node.level:
            if self.module is None:
                return []
            package = ["repro"] + self.module.split(".")[:-1]
            package = package[: len(package) - (node.level - 1)]
            base = ".".join(package + ([node.module] if node.module else []))
        else:
            base = node.module or ""
        if not base:
            return []
        targets = []
        for alias in node.names:
            candidate = f"{base}.{alias.name}"
            rel = candidate.removeprefix("repro.")
            # `from repro.sim import kernel` imports the submodule;
            # `from repro.sim.kernel import Simulator` imports a symbol.
            if candidate != rel and rel in self.known_modules:
                targets.append(candidate)
            else:
                targets.append(base)
        return targets

    def _check_layering(self, node: ast.AST, imported: str) -> None:
        if self.module is None or self.module_top is None:
            return
        if imported == "repro" or not imported.startswith("repro."):
            return
        rel = imported.removeprefix("repro.")
        rel_top = rel.split(".")[0]
        if self.in_telemetry and rel_top == "sim":
            # telemetry -> sim is the separation the replay sanitizer and
            # the golden-digest tests rest on; it gets its own rule id.
            self._emit("LAY002", node, f"telemetry imports {imported}")
            return
        if not import_allowed(self.module_top, rel):
            self._emit(
                "LAY001",
                node,
                f"layer '{self.module_top}' may not import repro.{rel}",
            )

    # -- calls: DET001-004/006/007, LAY003 ----------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.aliases.resolve(node.func)
        if resolved is not None:
            if resolved in _WALL_CLOCK_CALLS:
                self._emit("DET001", node, f"wall-clock read {resolved}()")
            elif resolved in _ENTROPY_CALLS or resolved.startswith("secrets."):
                self._emit("DET003", node, f"entropy source {resolved}()")
            elif resolved.startswith("random."):
                self._emit("DET002", node, f"stdlib random call {resolved}()")
            elif (
                resolved.startswith("numpy.random.")
                and not self.is_rng_module
            ):
                self._emit(
                    "DET004",
                    node,
                    f"{resolved}() outside sim/rng.py — use "
                    "RngRegistry.stream(name)",
                )
            if resolved in {"sorted", "min", "max"}:
                self._check_sort_key(node)
            if resolved == "sum" and node.args and _is_set_expr(
                node.args[0], self.aliases
            ):
                self._emit(
                    "DET007",
                    node,
                    "sum() over a set expression accumulates floats in "
                    "hash order",
                )
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "sort":
                self._check_sort_key(node)
            if (
                self.in_telemetry
                and node.func.attr in SCHEDULING_CALLS
            ):
                self._emit(
                    "LAY003",
                    node,
                    f"telemetry calls scheduling API .{node.func.attr}()",
                )
        self.generic_visit(node)

    def _check_sort_key(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            value = keyword.value
            if (
                isinstance(value, ast.Name)
                and value.id in _UNSTABLE_SORT_KEYS
            ):
                self._emit(
                    "DET006",
                    node,
                    f"sort keyed on {value.id}() is not stable across runs",
                )

    # -- iteration: DET005 -------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_comprehension_iters(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", []):
            self._check_iterable(gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_iters(node)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.visit_comprehension_iters(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_iters(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_iters(node)
        self.generic_visit(node)

    def _check_iterable(self, iterable: ast.expr) -> None:
        if _is_set_expr(iterable, self.aliases):
            self._emit(
                "DET005",
                iterable,
                "iteration over a set expression visits elements in hash "
                "order — wrap in sorted()",
            )


def _apply_pragmas(
    findings: Iterable[Finding],
    module: ModuleInfo,
    used: set[tuple[str, int, str]],
) -> list[Finding]:
    """Drop findings accepted by a well-formed pragma of the module, and
    note each ``(path, pragma line, rule)`` that accepted one."""
    pragmas = [p for p in module.pragmas if not _pragma_problem(p)]
    kept: list[Finding] = []
    for finding in findings:
        for pragma in pragmas:
            if finding.rule in pragma.rules and (
                pragma.filewide or pragma.line == finding.line
            ):
                used.add((finding.path, pragma.line, finding.rule))
                break
        else:
            kept.append(finding)
    return kept


def _pragma_problem(pragma: Pragma) -> str:
    """Why a pragma accepts nothing, or "" when it is well-formed."""
    if not pragma.rules:
        return "names no rule"
    unknown = [rule for rule in pragma.rules if rule not in RULES]
    if unknown:
        return f"names unknown rule {', '.join(unknown)}"
    if not pragma.reason:
        return "gives no reason"
    return ""


def _check_pragmas(
    module: ModuleInfo, used: set[tuple[str, int, str]]
) -> list[Finding]:
    """PRAG001: every pragma is well-formed and accepts a finding."""
    findings: list[Finding] = []
    for pragma in module.pragmas:
        kind = "allow-file" if pragma.filewide else "allow"
        problem = _pragma_problem(pragma)
        messages = (
            [f"{kind} pragma {problem}"]
            if problem
            else [
                f"{kind}[{rule}] pragma suppresses no finding — delete it"
                for rule in pragma.rules
                if (module.display_path, pragma.line, rule) not in used
            ]
        )
        findings.extend(
            Finding("PRAG001", module.display_path, pragma.line, 1, message)
            for message in messages
        )
    return findings


def _collect_files(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def analyze_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Run every rule over the ``.py`` files under ``paths``; pragmas
    are applied and checked.  Findings are sorted, with paths relative
    to the current directory where they lie under it.
    """
    root = Path.cwd().resolve()
    modules: list[ModuleInfo] = []
    for file in _collect_files(paths):
        resolved = file.resolve()
        try:
            display = resolved.relative_to(root).as_posix()
        except ValueError:
            display = file.as_posix()
        modules.append(parse_module(file, display_path=display))
    known = {m.module for m in modules if m.module_declared}
    used: set[tuple[str, int, str]] = set()
    findings: list[Finding] = []
    for module in modules:
        checker = _FileChecker(
            module.display_path,
            module.module if module.module_declared else None,
            known,
        )
        checker.visit(module.tree)
        findings.extend(_apply_pragmas(checker.findings, module, used))
        findings.extend(_check_pragmas(module, used))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
