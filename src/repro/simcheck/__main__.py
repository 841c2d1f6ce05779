"""CLI: ``python -m repro.simcheck src/``.

Exit codes: 0 — no findings; 1 — at least one finding (a pragma that is
malformed or suppresses nothing is one, PRAG001); 2 — usage or parse
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.simcheck.findings import Finding, RULES
from repro.simcheck.rules import analyze_paths


def _github_annotation(finding: Finding) -> str:
    """One ``::error`` workflow command per finding; GitHub renders it
    inline on the PR diff.  Newlines are not allowed in the message, so
    the call-chain evidence joins on ' | '."""
    message = finding.message
    if finding.via:
        message += f" | via {finding.via}"
    message = message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    return (
        f"::error file={finding.path},line={finding.line},"
        f"col={finding.col},title={finding.rule}::{message}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.simcheck", description=__doc__
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/"], help="files or directories"
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="github emits one ::error workflow annotation per finding",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print(f"{rule}  {RULES[rule]}")
        return 0

    for raw in args.paths:
        if not Path(raw).exists():
            print(f"error: no such path: {raw}", file=sys.stderr)
            return 2

    try:
        findings = analyze_paths(args.paths)
    except SyntaxError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    for finding in findings:
        if args.format == "github":
            print(_github_annotation(finding))
        else:
            print(finding.render())
    if args.format == "text":
        print(f"simcheck: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
