"""PERF rules: complexity lints on hot-path functions.

These rules only fire on functions the call graph proves reachable
from a kernel scheduling registration (``sim.every``/``call_at``/
``timer`` — see :mod:`repro.simcheck.callgraph`), because that is
where a quadratic scan or per-event allocation multiplies by the event
count.  Every finding carries the call chain from the registration
site as evidence.

* **PERF001** — nested iteration over node/link/flow/clique-style
  collections where the inner iterable does not depend on the outer
  loop: a latent O(n^2) that an index precomputation removes.  Inner
  loops that *do* consume the outer element (``for l in
  neighbors(node)``) are linear fan-out and are not flagged; ``while``
  loops never qualify (fixed-point solvers iterate until convergence
  by design).
* **PERF002** — a derive/build/cliques-style call inside a loop whose
  arguments do not depend on the loop: loop-invariant recomputation
  (e.g. re-running Bron–Kerbosch per round).
* **PERF003** — a list/dict/set literal or comprehension allocated
  inside two nested collection loops: a container rebuilt per element
  per event.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable

from repro.simcheck.callgraph import FunctionInfo, ModuleInfo, Program
from repro.simcheck.findings import Finding, finding_at

#: Identifier words that mark an iterable/target as a simulation-scale
#: collection (nodes, links, flows, cliques, and their members).
COLLECTION_WORDS = {
    "node",
    "nodes",
    "link",
    "links",
    "flow",
    "flows",
    "clique",
    "cliques",
    "neighbor",
    "neighbors",
    "member",
    "members",
}

#: Callee-name words that mark a call as a full (re)derivation.
EXPENSIVE_WORDS = {
    "cliques",
    "build",
    "rebuild",
    "derive",
    "recompute",
    "compute",
}

_WORD_RE = re.compile(r"[a-z]+")


def words_of(name: str) -> set[str]:
    """Lower-case identifier words (``sorted_link_ids`` -> {sorted,
    link, ids})."""
    return set(_WORD_RE.findall(name.lower()))


def _names_in(node: ast.AST) -> set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _identifier_words(node: ast.AST) -> set[str]:
    tokens: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            tokens |= words_of(sub.id)
        elif isinstance(sub, ast.Attribute):
            tokens |= words_of(sub.attr)
    return tokens


def _assigned_names(body: Iterable[ast.stmt]) -> set[str]:
    """Names (re)bound anywhere in a loop body — a conservative "this
    iterable may be loop-dependent" signal."""
    names: set[str] = set()
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    names |= _names_in(target)
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                names |= _names_in(sub.target)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                names |= _names_in(sub.target)
            elif isinstance(sub, ast.NamedExpr):
                names |= _names_in(sub.target)
            elif isinstance(sub, ast.withitem) and sub.optional_vars:
                names |= _names_in(sub.optional_vars)
    return names


@dataclass
class _Loop:
    """One enclosing loop while scanning a function body."""

    is_for: bool  # For or comprehension generator (not while)
    lineno: int
    target_names: set[str] = field(default_factory=set)
    assigned: set[str] = field(default_factory=set)
    collectionish: bool = False


def _make_for_loop(
    target: ast.expr, iterable: ast.expr, body: list[ast.stmt], lineno: int
) -> _Loop:
    tokens = _identifier_words(target) | _identifier_words(iterable)
    return _Loop(
        is_for=True,
        lineno=lineno,
        target_names=_names_in(target),
        assigned=_assigned_names(body),
        collectionish=bool(tokens & COLLECTION_WORDS),
    )


def _make_comp_loop(gen: ast.comprehension) -> _Loop:
    tokens = _identifier_words(gen.target) | _identifier_words(gen.iter)
    return _Loop(
        is_for=True,
        lineno=getattr(gen.iter, "lineno", 1),
        target_names=_names_in(gen.target),
        assigned=set(),
        collectionish=bool(tokens & COLLECTION_WORDS),
    )


class _HotScanner:
    """Scan one hot function; loops are tracked as an explicit stack so
    comprehension generators count as loop levels."""

    def __init__(
        self, info: FunctionInfo, module: ModuleInfo, via: str
    ) -> None:
        self.info = info
        self.module = module
        self.via = via
        self.loops: list[_Loop] = []
        self.findings: list[Finding] = []

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            finding_at(
                rule,
                node,
                path=self.module.display_path,
                message=message,
                via=self.via,
            )
        )

    # -- rule checks --------------------------------------------------------

    def _check_perf001(self, node: ast.AST, loop: _Loop, iterable: ast.expr) -> None:
        if not loop.collectionish:
            return
        iter_names = _names_in(iterable)
        for outer in reversed(self.loops):
            if iter_names & (outer.target_names | outer.assigned):
                # The iterable consumes a name this enclosing loop binds
                # or produces: linear fan-out, not an independent rescan
                # (and any loop further out is shadowed by this binding).
                return
            if outer.is_for and outer.collectionish:
                self._emit(
                    "PERF001",
                    node,
                    "nested collection iteration independent of the "
                    f"outer loop (line {outer.lineno}) — latent O(n^2) "
                    "on the hot path; precompute an index once",
                )
                return

    def _check_perf002(self, node: ast.Call) -> None:
        if not self.loops:
            return
        callee = node.func
        name = (
            callee.attr
            if isinstance(callee, ast.Attribute)
            else callee.id
            if isinstance(callee, ast.Name)
            else None
        )
        if name is None or not (words_of(name) & EXPENSIVE_WORDS):
            return
        inner = self.loops[-1]
        arg_names: set[str] = set()
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            arg_names |= _names_in(arg)
        if arg_names & (inner.target_names | inner.assigned):
            return
        self._emit(
            "PERF002",
            node,
            f"{name}() is recomputed every iteration of the loop at "
            f"line {inner.lineno} but its arguments do not depend on "
            "the loop — hoist it out",
        )

    def _check_perf003(self, node: ast.expr) -> None:
        collection_loops = [
            loop for loop in self.loops if loop.is_for and loop.collectionish
        ]
        if len(collection_loops) < 2:
            return
        # A container whose contents consume the loop targets is the
        # result being built, not churn; only loop-independent
        # allocations (scratch buffers, rebuilt lookups) are flagged.
        bound: set[str] = set()
        for loop in self.loops:
            bound |= loop.target_names | loop.assigned
        if _names_in(node) & bound:
            return
        self._emit(
            "PERF003",
            node,
            "container allocated inside nested collection loops "
            f"(lines {collection_loops[-2].lineno} and "
            f"{collection_loops[-1].lineno}) — rebuilt per element per "
            "event; hoist or reuse it",
        )

    # -- traversal ----------------------------------------------------------

    def scan(self) -> list[Finding]:
        for stmt in self.info.node.body:
            self._visit(stmt)
        return self.findings

    def _visit_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are their own FunctionInfo
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._visit(node.iter)  # evaluated once, outside this loop
            loop = _make_for_loop(
                node.target, node.iter, node.body + node.orelse, node.lineno
            )
            self._check_perf001(node, loop, node.iter)
            self.loops.append(loop)
            for stmt in node.body + node.orelse:
                self._visit(stmt)
            self.loops.pop()
            return
        if isinstance(node, ast.While):
            # The test re-evaluates per iteration; while never counts
            # as a collection loop (fixed-point solvers are exempt).
            self.loops.append(_Loop(is_for=False, lineno=node.lineno))
            self._visit(node.test)
            for stmt in node.body + node.orelse:
                self._visit(stmt)
            self.loops.pop()
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            if not isinstance(node, ast.GeneratorExp):
                self._check_perf003(node)
            self._visit_comprehension(node)
            return
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            self._check_perf003(node)
            self._visit_children(node)
            return
        if isinstance(node, ast.Call):
            self._check_perf002(node)
            self._visit_children(node)
            return
        self._visit_children(node)

    def _visit_comprehension(
        self, node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp
    ) -> None:
        pushed = 0
        for gen in node.generators:
            self._visit(gen.iter)  # outer gens' scope applies, not this one's
            loop = _make_comp_loop(gen)
            self._check_perf001(gen.iter, loop, gen.iter)
            self.loops.append(loop)
            pushed += 1
            for cond in gen.ifs:
                self._visit(cond)
        if isinstance(node, ast.DictComp):
            self._visit(node.key)
            self._visit(node.value)
        else:
            self._visit(node.elt)
        for _ in range(pushed):
            self.loops.pop()


def check_program_perf(program: Program) -> list[Finding]:
    """Run the PERF rules over every hot-path function."""
    findings: list[Finding] = []
    for qualname in sorted(program.hot_chains):
        info = program.functions.get(qualname)
        if info is None:
            continue
        module = program.modules.get(info.module)
        if module is None:
            continue
        via = program.describe_chain(qualname)
        findings.extend(_HotScanner(info, module, via).scan())
    return findings
