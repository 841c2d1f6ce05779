"""Fixture: PRAG001 — a pragma that gives no reason accepts nothing."""

import time as _time


def handler() -> float:
    return _time.monotonic()  # simcheck: allow[DET001]
