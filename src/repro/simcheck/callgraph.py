"""Whole-program call-graph construction over the ``repro`` package.

The per-file AST pass (:mod:`repro.simcheck.rules`) can reject local
hazards — a wall-clock read, a set iteration — but the property the
scale work depends on is *global*: "this nested loop runs on the hot
path".  This module parses every source file once, indexes functions,
classes and import aliases, resolves intra-package calls (including one
level of attribute-type inference for ``self.attr.method()`` and
re-export chains through ``__init__`` modules), and classifies each
function as **hot** when it is transitively reachable from a callback
registered with the kernel's scheduling API (``call_at``/``call_later``/
``every``/``timer``/``schedule``), i.e. code the event loop dispatches.
The PERF rules only fire there, and every finding carries the evidence
chain back to the registration site.

The builder is purely syntactic and deliberately conservative: calls
through stored callables (e.g. ``NodeServices`` fields) and dynamic
dispatch it cannot resolve are simply absent from the graph, so the
classification under-approximates reachability rather than guessing.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: Scheduling attributes whose callable arguments become hot roots.
SCHEDULING_ATTRS = {"call_at", "call_later", "every", "schedule", "timer"}

_PRAGMA_RE = re.compile(
    r"#\s*simcheck:\s*(allow-file|allow|module)\b\s*(?:\[([^\]]*)\])?(.*)"
)


@dataclass(frozen=True)
class Pragma:
    """One ``allow``/``allow-file`` comment: it accepts findings of
    ``rules`` on its own line (or anywhere in the file), for ``reason``."""

    line: int
    rules: tuple[str, ...]
    filewide: bool
    reason: str


def parse_pragmas(text: str) -> tuple[list[Pragma], str | None]:
    """Extract the suppression pragmas and the module override from the
    comments of a source file (a pragma-shaped string is not a pragma).

    Returns ``(pragmas, module override)``.  A pragma that names no rule
    or gives no reason is returned as written; it suppresses nothing,
    and the rule pass reports it.
    """
    pragmas: list[Pragma] = []
    module_override: str | None = None
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.match(token.string)
        if match is None:
            continue
        kind, rules_text, tail = match.groups()
        tail = tail.strip()
        if kind == "module":
            module_override = tail.split()[0] if tail else None
            continue
        rules = [part.strip() for part in (rules_text or "").split(",")]
        pragmas.append(
            Pragma(
                line=token.start[0],
                rules=tuple(rule for rule in rules if rule),
                filewide=kind == "allow-file",
                reason=tail,
            )
        )
    return pragmas, module_override


def module_path_for(path: Path) -> str | None:
    """Dotted path relative to the ``repro`` package, or None when the
    file does not live under one (fixtures use a pragma instead)."""
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    rel = parts[parts.index("repro") + 1 :]
    if not rel:
        return None
    rel[-1] = rel[-1].removesuffix(".py")
    return ".".join(rel)


class AliasTable:
    """Alias-resolved dotted names for imports in one file."""

    def __init__(self) -> None:
        self._names: dict[str, str] = {}

    @property
    def names(self) -> dict[str, str]:
        return self._names

    def visit_import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._names[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def visit_import_from(self, node: ast.ImportFrom, module: str | None) -> None:
        if node.level:
            # Relative import: resolve against the importing module.
            if module is None:
                return
            package = ["repro"] + module.split(".")[:-1]
            package = package[: len(package) - (node.level - 1)]
            base = ".".join(package + ([node.module] if node.module else []))
        elif node.module is not None:
            base = node.module
        else:
            return
        for alias in node.names:
            self._names[alias.asname or alias.name] = f"{base}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted source path of a Name/Attribute chain, or None."""
        chain: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self._names.get(current.id, current.id)
        chain.append(base)
        return ".".join(reversed(chain))


@dataclass
class FunctionInfo:
    """One function or method in the program."""

    qualname: str  # e.g. "mac.fluid.FluidMac._round"
    module: str  # e.g. "mac.fluid"
    name: str
    cls: str | None  # owning class qualname, or None
    path: str  # display path of the defining file
    lineno: int
    node: ast.FunctionDef | ast.AsyncFunctionDef
    calls: list[str] = field(default_factory=list)  # resolved callees
    refs: list[str] = field(default_factory=list)  # callables passed on
    locals_defined: set[str] = field(default_factory=set)  # nested defs

    def add_call(self, qualname: str) -> None:
        if qualname not in self.calls:
            self.calls.append(qualname)

    def add_ref(self, qualname: str) -> None:
        if qualname not in self.refs:
            self.refs.append(qualname)


@dataclass
class ClassInfo:
    """One class: methods, resolved bases, inferred attribute types."""

    qualname: str
    module: str
    name: str
    lineno: int
    bases: list[str] = field(default_factory=list)  # resolved dotted names
    methods: dict[str, str] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    fields: list[str] = field(default_factory=list)  # AnnAssign order


@dataclass
class ModuleInfo:
    """One parsed source file."""

    module: str  # repro-relative dotted path
    display_path: str
    tree: ast.Module
    aliases: AliasTable
    pragmas: list[Pragma]
    #: False when the module identity fell back to the file stem (no
    #: repro-relative path, no ``module <name>`` pragma) — such
    #: names are local labels, not known repro submodules.
    module_declared: bool = True


@dataclass(frozen=True)
class RootSite:
    """Where a hot root was registered."""

    qualname: str  # the registered callable
    api: str  # e.g. "every", "map"
    path: str
    lineno: int


def _strip_repro(dotted: str) -> str:
    return dotted.removeprefix("repro.") if dotted.startswith("repro.") else dotted


class Program:
    """The indexed whole program: modules, functions, classes, edges,
    and the hot classification with evidence chains."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: qualname -> chain of qualnames from a registration site
        #: (first element describes the root registration).
        self.hot_chains: dict[str, tuple[str, ...]] = {}
        self.hot_roots: list[RootSite] = []

    # --- symbol resolution -------------------------------------------------

    def resolve_symbol(self, dotted: str, _seen: frozenset[str] = frozenset()) -> str | None:
        """Resolve a repro-relative dotted name to a function or class
        qualname, following re-export chains (``from repro.mac.fluid
        import FluidMac`` in ``mac/__init__`` makes ``mac.FluidMac``
        resolve to ``mac.fluid.FluidMac``)."""
        dotted = _strip_repro(dotted)
        if dotted in _seen or len(_seen) > 20:
            return None  # re-export cycle (or pathological chain)
        seen = _seen | {dotted}
        if dotted in self.functions or dotted in self.classes:
            return dotted
        # Try every split "module prefix . first . rest", longest
        # module prefix first, and follow that module's import aliases.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            head = ".".join(parts[:cut])
            module = self.modules.get(head) or self.modules.get(f"{head}.__init__")
            if module is None:
                continue
            first = parts[cut]
            rest = parts[cut + 1 :]
            target = module.aliases.names.get(first)
            if target is None:
                continue
            target = _strip_repro(target)
            if not rest:
                resolved = self.resolve_symbol(target, seen)
                if resolved is not None:
                    return resolved
                continue
            if target in self.modules or f"{target}.__init__" in self.modules:
                # The alias names a module: keep walking into it.
                resolved = self.resolve_symbol(".".join([target] + rest), seen)
                if resolved is not None:
                    return resolved
                continue
            # The alias names a symbol; the only attribute access we can
            # follow is a method on a re-exported class (guarding here
            # is what keeps `from .shrink import shrink`-style aliases,
            # where a symbol shadows its module, from expanding forever).
            symbol = self.resolve_symbol(target, seen)
            if symbol is not None and symbol in self.classes and len(rest) == 1:
                method = self.method_on(symbol, rest[0])
                if method is not None:
                    return method
        return None

    def method_on(
        self, cls_qualname: str, name: str, _seen: frozenset[str] = frozenset()
    ) -> str | None:
        """Look up ``name`` on a class or (depth-first) its bases."""
        if cls_qualname in _seen:
            return None
        cls = self.classes.get(cls_qualname)
        if cls is None:
            return None
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.bases:
            resolved = self.resolve_symbol(base)
            if resolved is None and "." not in base:
                # A bare name no import introduced: a base defined in
                # the same module as the subclass.
                local = f"{cls.module}.{base}"
                if local in self.classes:
                    resolved = local
            if resolved is None or resolved not in self.classes:
                continue
            found = self.method_on(resolved, name, _seen | {cls_qualname})
            if found is not None:
                return found
        return None

    # --- classification ----------------------------------------------------

    def describe_chain(self, qualname: str) -> str:
        """Human-readable hot-path evidence for a function."""
        chain = self.hot_chains.get(qualname)
        if not chain:
            return ""
        return " -> ".join(chain)

    def classify(self) -> None:
        """(Re)compute hot reachability from the root sites."""
        chains: dict[str, tuple[str, ...]] = {}
        frontier: list[str] = []
        for root in self.hot_roots:
            if root.qualname in chains:
                continue
            chains[root.qualname] = (
                f"{root.api}@{root.path}:{root.lineno}",
                root.qualname,
            )
            frontier.append(root.qualname)
        while frontier:
            current = frontier.pop(0)
            info = self.functions.get(current)
            if info is None:
                continue
            base = chains[current]
            for callee in info.calls + info.refs:
                if callee in chains:
                    continue
                chains[callee] = base + (callee,)
                frontier.append(callee)
        self.hot_chains = chains


# --- pass 1: declarations --------------------------------------------------


def _iter_defs(
    body: Iterable[ast.stmt],
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef]:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt


def _collect_module(program: Program, module: ModuleInfo) -> None:
    """Index the module's imports, functions and classes."""
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Import):
            module.aliases.visit_import(stmt)
        elif isinstance(stmt, ast.ImportFrom):
            module.aliases.visit_import_from(stmt, module.module)
    for node in _iter_defs(module.tree.body):
        if isinstance(node, ast.ClassDef):
            _collect_class(program, module, node)
        else:
            _collect_function(program, module, node, cls=None)


def _collect_class(
    program: Program, module: ModuleInfo, node: ast.ClassDef
) -> None:
    qualname = f"{module.module}.{node.name}"
    info = ClassInfo(
        qualname=qualname, module=module.module, name=node.name, lineno=node.lineno
    )
    for base in node.bases:
        resolved = module.aliases.resolve(base)
        if resolved is not None:
            info.bases.append(_strip_repro(resolved))
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.fields.append(stmt.target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = _collect_function(
                program, module, stmt, cls=qualname
            )
            info.methods[stmt.name] = method.qualname
    program.classes[qualname] = info


def _collect_function(
    program: Program,
    module: ModuleInfo,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    cls: str | None,
    parent: str | None = None,
) -> FunctionInfo:
    owner = parent or cls or module.module
    qualname = f"{owner}.{node.name}"
    info = FunctionInfo(
        qualname=qualname,
        module=module.module,
        name=node.name,
        cls=cls,
        path=module.display_path,
        lineno=node.lineno,
        node=node,
    )
    program.functions[qualname] = info
    # Nested defs become their own (local) functions; the parent notes
    # their names so references to them resolve.
    for child in ast.walk(node):
        if child is node:
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _innermost_enclosing(node, child) is node:
                info.locals_defined.add(child.name)
                _collect_function(
                    program,
                    module,
                    child,
                    cls=cls,
                    parent=qualname,
                )
        elif isinstance(child, ast.ClassDef):
            if _innermost_enclosing(node, child) is node:
                info.locals_defined.add(child.name)
    return info


def _innermost_enclosing(root: ast.AST, target: ast.AST) -> ast.AST:
    """The innermost function def under ``root`` that contains
    ``target`` (or ``root`` itself when directly nested)."""
    best = root
    stack: list[tuple[ast.AST, ast.AST]] = [(root, root)]
    while stack:
        node, owner = stack.pop()
        if node is target:
            best = owner
            break
        next_owner = (
            node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not root
            else owner
        )
        for child in ast.iter_child_nodes(node):
            stack.append((child, next_owner))
    return best


# --- pass 2: attribute types and edges ------------------------------------


class _TypeContext:
    """Name -> class-qualname typing for one function body."""

    def __init__(
        self,
        program: Program,
        module: ModuleInfo,
        info: FunctionInfo,
    ) -> None:
        self.program = program
        self.module = module
        self.info = info
        self.local_types: dict[str, str] = {}
        node = info.node
        for arg in (
            list(node.args.posonlyargs)
            + list(node.args.args)
            + list(node.args.kwonlyargs)
        ):
            if arg.annotation is None:
                continue
            annotated = self._annotation_class(arg.annotation)
            if annotated is not None:
                self.local_types[arg.arg] = annotated

    def _annotation_class(self, annotation: ast.expr) -> str | None:
        # Unwrap Optional-ish unions and string annotations shallowly.
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            dotted = annotation.value.strip().strip('"')
            return self.program.resolve_symbol(dotted) if dotted else None
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            return self._annotation_class(annotation.left)
        resolved = self.module.aliases.resolve(annotation)
        if resolved is None:
            return None
        qualname = self.program.resolve_symbol(resolved)
        if qualname is not None and qualname in self.program.classes:
            return qualname
        return None

    def class_of(self, node: ast.expr) -> str | None:
        """Class qualname an expression evaluates to, if inferable."""
        if isinstance(node, ast.Name):
            return self.local_types.get(node.id)
        if isinstance(node, ast.Attribute):
            base: str | None
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                base = self.info.cls
            else:
                base = self.class_of(node.value)
            if base is None:
                return None
            cls = self.program.classes.get(base)
            if cls is None:
                return None
            return self._attr_type(base, node.attr)
        if isinstance(node, ast.Call):
            resolved = self.resolve_callable(node.func)
            if resolved is not None and resolved in self.program.classes:
                return resolved
        return None

    def _attr_type(
        self, cls_qualname: str, attr: str, _seen: frozenset[str] = frozenset()
    ) -> str | None:
        if cls_qualname in _seen:
            return None
        cls = self.program.classes.get(cls_qualname)
        if cls is None:
            return None
        if attr in cls.attr_types:
            return cls.attr_types[attr]
        for base in cls.bases:
            resolved = self.program.resolve_symbol(base)
            if resolved is None:
                continue
            found = self._attr_type(resolved, attr, _seen | {cls_qualname})
            if found is not None:
                return found
        return None

    def resolve_callable(self, func: ast.expr) -> str | None:
        """Function or class qualname an expression refers to."""
        program = self.program
        if isinstance(func, ast.Name):
            if func.id in self.info.locals_defined:
                return program.resolve_symbol(f"{self.info.qualname}.{func.id}")
            resolved = self.module.aliases.resolve(func)
            if resolved is not None:
                qualname = program.resolve_symbol(resolved)
                if qualname is not None:
                    return qualname
            # A bare name in this module's namespace.
            return program.resolve_symbol(f"{self.module.module}.{func.id}")
        if isinstance(func, ast.Attribute):
            # self.method() / self.attr.method() / var.method()
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                if self.info.cls is not None:
                    method = program.method_on(self.info.cls, func.attr)
                    if method is not None:
                        return method
            owner = self.class_of(func.value)
            if owner is not None:
                return program.method_on(owner, func.attr)
            resolved = self.module.aliases.resolve(func)
            if resolved is not None:
                return program.resolve_symbol(resolved)
        return None


def _collect_attr_types(program: Program, module: ModuleInfo) -> None:
    for cls in list(program.classes.values()):
        if cls.module != module.module:
            continue
        for method_qualname in cls.methods.values():
            method = program.functions[method_qualname]
            ctx = _TypeContext(program, module, method)
            for stmt in ast.walk(method.node):
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        inferred = ctx.class_of(stmt.value)
                        if inferred is not None:
                            cls.attr_types.setdefault(target.attr, inferred)


def _collect_edges(program: Program, module: ModuleInfo) -> None:
    for info in list(program.functions.values()):
        if info.module != module.module:
            continue
        ctx = _TypeContext(program, module, info)
        _walk_function_edges(program, module, info, ctx)


def iter_own_nodes(info: FunctionInfo) -> Iterator[ast.AST]:
    """Walk the function body without descending into nested defs
    (those are their own FunctionInfo)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(info.node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _walk_function_edges(
    program: Program,
    module: ModuleInfo,
    info: FunctionInfo,
    ctx: _TypeContext,
) -> None:
    # Track simple local instance types: x = Cls(...), x = self.attr
    for node in iter_own_nodes(info):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                inferred = ctx.class_of(node.value)
                if inferred is not None:
                    ctx.local_types[target.id] = inferred
    for node in iter_own_nodes(info):
        if isinstance(node, ast.Call):
            _record_call(program, module, info, ctx, node)


def _callable_ref(ctx: _TypeContext, arg: ast.expr) -> str | None:
    """Resolve a non-call argument expression to a function qualname."""
    if isinstance(arg, (ast.Name, ast.Attribute)):
        resolved = ctx.resolve_callable(arg)
        if resolved is not None and resolved in ctx.program.functions:
            return resolved
    return None


def _record_call(
    program: Program,
    module: ModuleInfo,
    info: FunctionInfo,
    ctx: _TypeContext,
    node: ast.Call,
) -> None:
    resolved = ctx.resolve_callable(node.func)
    if resolved is not None:
        if resolved in program.classes:
            init = program.method_on(resolved, "__init__")
            if init is not None:
                info.add_call(init)
        elif resolved in program.functions:
            info.add_call(resolved)
    # Callable references passed as arguments.
    arg_refs: list[str] = []
    for arg in list(node.args) + [kw.value for kw in node.keywords]:
        ref = _callable_ref(ctx, arg)
        if ref is not None:
            arg_refs.append(ref)
            info.add_ref(ref)
    if not arg_refs:
        return
    # A scheduling registration makes its callable arguments hot roots.
    if isinstance(node.func, ast.Attribute) and node.func.attr in SCHEDULING_ATTRS:
        api = node.func.attr
    elif isinstance(node.func, ast.Name) and node.func.id == "Timer":
        api = "Timer"
    else:
        return
    for ref in arg_refs:
        program.hot_roots.append(
            RootSite(
                qualname=ref,
                api=api,
                path=module.display_path,
                lineno=node.lineno,
            )
        )


# --- entry points ----------------------------------------------------------


def parse_module(
    path: Path,
    *,
    display_path: str | None = None,
) -> ModuleInfo:
    """Parse one source file into a :class:`ModuleInfo`.

    Raises:
        SyntaxError: when the file does not parse (annotated with the
            path, matching the per-file checker's behavior).
    """
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as error:
        raise SyntaxError(f"{path}: {error}") from error
    pragmas, module_override = parse_pragmas(text)
    declared = True
    if module_override is not None:
        module = _strip_repro(module_override)
    else:
        derived = module_path_for(path)
        if derived is None:
            module, declared = path.stem, False
        else:
            module = derived
    return ModuleInfo(
        module=module,
        display_path=display_path or path.as_posix(),
        tree=tree,
        aliases=AliasTable(),
        pragmas=pragmas,
        module_declared=declared,
    )


def build_program(modules: Iterable[ModuleInfo]) -> Program:
    """Index modules, resolve edges, and classify hot functions."""
    program = Program()
    ordered = list(modules)
    for module in ordered:
        program.modules[module.module] = module
    for module in ordered:
        _collect_module(program, module)
    # Attribute types need every class known; run as a separate phase,
    # twice, so `self.x = param` typing can chain one level through
    # classes declared later in the walk order.
    for _ in range(2):
        for module in ordered:
            _collect_attr_types(program, module)
    for module in ordered:
        _collect_edges(program, module)
    program.classify()
    return program
