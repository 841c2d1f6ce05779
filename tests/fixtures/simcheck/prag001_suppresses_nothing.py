# simcheck: allow-file[DET002] line 1: PRAG001, nothing here draws
"""Fixture: PRAG001 — pragmas that suppress no finding.

A pragma-shaped docstring line is not a pragma:
# simcheck: allow[DET001] this is text, not a comment
"""


def handler() -> float:
    return 1.0  # simcheck: allow[DET001] line 10: PRAG001, no clock read
