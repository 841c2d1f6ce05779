"""One parsed source file: its syntax tree, its module identity, the
import alias table the rules resolve names through, and its pragmas.

Every rule works on one file at a time (:mod:`repro.simcheck.rules`),
so a file is parsed once and checked on its own.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

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
class ModuleInfo:
    """One parsed source file."""

    module: str  # repro-relative dotted path
    display_path: str
    tree: ast.Module
    pragmas: list[Pragma]
    #: False when the module identity fell back to the file stem (no
    #: repro-relative path, no ``module <name>`` pragma) — such
    #: names are local labels, not known repro submodules.
    module_declared: bool = True


def parse_module(
    path: Path,
    *,
    display_path: str | None = None,
) -> ModuleInfo:
    """Parse one source file into a :class:`ModuleInfo`.

    Raises:
        SyntaxError: when the file does not parse (annotated with the
            path).
    """
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as error:
        raise SyntaxError(f"{path}: {error}") from error
    pragmas, module_override = parse_pragmas(text)
    declared = True
    if module_override is not None:
        module = module_override.removeprefix("repro.")
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
        pragmas=pragmas,
        module_declared=declared,
    )
