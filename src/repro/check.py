"""``python -m repro check`` — the consolidated static gate.

One command, one exit code.  Runs every static check the repository
uses, in order of how much of the tree each one covers:

1. **simcheck** — the in-house whole-program analyzer (determinism,
   layering, parallel-safety, hot-path complexity, unit/dimension
   rules; see ``docs/SIMCHECK.md``).  Runs in-process; no external
   tooling needed.  Any finding fails the step, and so does an
   ``allow`` pragma that is malformed or suppresses nothing.
2. **ruff** — style/bug lints, configured in ``pyproject.toml``.
3. **mypy** — strict typing on the islands listed in
   ``pyproject.toml``.

ruff and mypy are optional dependencies of the *development* workflow,
not of the library: when a tool is not installed the step is reported
as ``skipped`` and does not fail the gate (CI installs both, so a skip
there cannot mask a regression; locally it keeps the gate usable in a
bare interpreter).  ``--strict-tools`` turns a missing tool into a
failure for environments that must have the full gate.

The exit code is 0 only when every step that ran passed.  To run one
step alone, run its tool: ``python -m repro.simcheck src/``,
``ruff check``, ``mypy``.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path

from repro.simcheck.__main__ import main as simcheck_main


@dataclass(frozen=True)
class StepResult:
    """Outcome of one step of the gate."""

    name: str
    status: str  # "ok" | "fail" | "skipped"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _repo_root() -> Path:
    """The repository root (the directory holding ``pyproject.toml``),
    found from this file; falls back to the current directory when the
    package is imported from an installed location."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").is_file():
            return parent
    return Path.cwd()


def _run_simcheck(root: Path, *, github: bool) -> StepResult:
    argv = [str(root / "src")]
    if github:
        argv += ["--format", "github"]
    code = simcheck_main(argv)
    if code == 0:
        return StepResult("simcheck", "ok")
    return StepResult("simcheck", "fail", f"exit code {code}")


def _run_tool(
    name: str, argv: list[str], root: Path, *, strict_tools: bool
) -> StepResult:
    """Run an external linter, mapping "not installed" to a skip."""
    if shutil.which(argv[0]) is None:
        status = "fail" if strict_tools else "skipped"
        return StepResult(name, status, f"{argv[0]} not installed")
    proc = subprocess.run(argv, cwd=root)
    if proc.returncode == 0:
        return StepResult(name, "ok")
    return StepResult(name, "fail", f"exit code {proc.returncode}")


def run_gate(
    *,
    root: Path | None = None,
    github: bool = False,
    strict_tools: bool = False,
) -> list[StepResult]:
    """Run the consolidated gate and return one result per step."""
    root = root or _repo_root()
    targets = [
        name
        for name in ("src", "tests", "examples", "benchmarks")
        if (root / name).is_dir()
    ]
    return [
        _run_simcheck(root, github=github),
        _run_tool(
            "ruff", ["ruff", "check", *targets], root, strict_tools=strict_tools
        ),
        _run_tool("mypy", ["mypy"], root, strict_tools=strict_tools),
    ]


def check_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="Run the consolidated static gate: simcheck + ruff + mypy.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="simcheck output format (github emits ::error annotations)",
    )
    parser.add_argument(
        "--strict-tools",
        action="store_true",
        help="treat a missing ruff/mypy binary as a failure instead of a skip",
    )
    args = parser.parse_args(argv)

    results = run_gate(
        github=args.format == "github", strict_tools=args.strict_tools
    )
    print("check: " + "  ".join(f"{r.name}={r.status}" for r in results))
    for result in results:
        if result.detail and result.status != "ok":
            print(f"check: {result.name}: {result.detail}")
    return 1 if any(r.failed for r in results) else 0


if __name__ == "__main__":
    raise SystemExit(check_main())
