"""Fixture: PRAG001 — a pragma that names no rule accepts nothing."""

import time as _time


def handler() -> float:
    return _time.monotonic()  # simcheck: allow wall clock is fine here
