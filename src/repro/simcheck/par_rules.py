"""PAR rules: sweep-pool worker-boundary safety.

The sweep engine runs scenario points in a spawn-context process pool
(:mod:`repro.scenarios.sweep`), so two things silently break runs:

* **PAR001** — a lambda, nested function, or locally-defined class
  handed to a pool dispatch (``pool.map``/``imap``/``apply_async``/
  ``executor.submit``).  Spawned workers import the task by qualified
  name; locals cannot be pickled, and the failure surfaces as an
  opaque ``PicklingError`` deep inside multiprocessing.  Flagged at
  the dispatch site, in any function (the dispatch itself proves the
  boundary crossing).
* **PAR002** — a write to module-level mutable state from a function
  the call graph shows is reachable inside a worker.  Each worker
  mutates its own copy; the parent process never observes the write,
  so the "shared" accumulator is silently empty.  Findings carry the
  chain from the dispatch site as evidence.
"""

from __future__ import annotations

import ast

from repro.simcheck.callgraph import (
    POOL_DISPATCH_ATTRS,
    POOL_RECEIVER_TOKENS,
    FunctionInfo,
    ModuleInfo,
    Program,
    _receiver_tokens,
    iter_own_nodes,
)
from repro.simcheck.findings import Finding, finding_at

#: Methods that mutate their receiver in place.
_MUTATORS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}


def _emit(
    findings: list[Finding],
    rule: str,
    module: ModuleInfo,
    node: ast.AST,
    message: str,
    via: str = "",
) -> None:
    findings.append(
        finding_at(
            rule,
            node,
            path=module.display_path,
            message=message,
            via=via,
        )
    )


# -- PAR001: unpicklable callables at dispatch sites ------------------------


def _check_dispatch_args(
    findings: list[Finding],
    module: ModuleInfo,
    info: FunctionInfo,
    node: ast.Call,
) -> None:
    if not isinstance(node.func, ast.Attribute):
        return
    if node.func.attr not in POOL_DISPATCH_ATTRS:
        return
    if not (_receiver_tokens(node.func.value) & POOL_RECEIVER_TOKENS):
        return
    for arg in list(node.args) + [kw.value for kw in node.keywords]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Lambda):
                _emit(
                    findings,
                    "PAR001",
                    module,
                    sub,
                    f"lambda passed to pool .{node.func.attr}(); spawn "
                    "workers unpickle tasks by qualified name — use a "
                    "module-level function",
                )
        if isinstance(arg, ast.Name) and arg.id in info.locals_defined:
            _emit(
                findings,
                "PAR001",
                module,
                arg,
                f"locally-defined '{arg.id}' passed to pool "
                f".{node.func.attr}(); nested functions/classes cannot "
                "be pickled — move it to module level",
            )


# -- PAR002: module-state writes inside workers -----------------------------


def _root_name(node: ast.expr) -> str | None:
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    return current.id if isinstance(current, ast.Name) else None


def _check_worker_writes(
    findings: list[Finding],
    module: ModuleInfo,
    info: FunctionInfo,
    via: str,
) -> None:
    declared_global: set[str] = set()
    mutable = module.mutable_globals
    local_shadows = {
        a.arg
        for a in (
            list(info.node.args.posonlyargs)
            + list(info.node.args.args)
            + list(info.node.args.kwonlyargs)
        )
    }

    def is_module_state(name: str | None) -> bool:
        if name is None or name in local_shadows:
            return False
        return name in declared_global or name in mutable

    for node in iter_own_nodes(info):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in iter_own_nodes(info):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in declared_global:
                        _emit(
                            findings,
                            "PAR002",
                            module,
                            node,
                            f"worker rebinds module global '{target.id}'; "
                            "the parent process never sees it — return "
                            "the value instead",
                            via,
                        )
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = _root_name(target)
                    if is_module_state(root):
                        _emit(
                            findings,
                            "PAR002",
                            module,
                            node,
                            f"worker writes into module-level '{root}'; "
                            "each worker mutates its own copy — return "
                            "results to the parent",
                            via,
                        )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                root = _root_name(node.func.value)
                if is_module_state(root) and isinstance(
                    node.func.value, ast.Name
                ):
                    _emit(
                        findings,
                        "PAR002",
                        module,
                        node,
                        f"worker mutates module-level '{root}' via "
                        f".{node.func.attr}(); the write stays in the "
                        "worker process — return results instead",
                        via,
                    )


def check_program_par(program: Program) -> list[Finding]:
    """Run PAR001 over every dispatch site and PAR002 over every
    worker-reachable function."""
    findings: list[Finding] = []
    for qualname in sorted(program.functions):
        info = program.functions[qualname]
        module = program.modules.get(info.module)
        if module is None:
            continue
        for node in iter_own_nodes(info):
            if isinstance(node, ast.Call):
                _check_dispatch_args(findings, module, info, node)
    for qualname in sorted(program.worker_chains):
        info = program.functions.get(qualname)
        if info is None:
            continue
        module = program.modules.get(info.module)
        if module is None:
            continue
        via = " -> ".join(program.worker_chains[qualname])
        _check_worker_writes(findings, module, info, via)
    return findings
