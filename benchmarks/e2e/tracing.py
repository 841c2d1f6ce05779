"""Outside-in tracing for the benchmark's traced passes.

Nothing under ``src/`` knows about this file: spans are recorded by
wrapping calls into each layer's public functions (module attributes,
class methods, one dict entry) for the lifetime of one child process,
and handler time per kernel tag comes from the public
``Telemetry(profile=True)`` counters, folded by :data:`TAG_LAYERS`.

A span is ``(name, start, end, parent)``.  Set-up stages are recorded
one by one; a per-packet call (a buffer operation, a batch pop) would
be millions of records per pass, so those are aggregated as
``(name, parent) -> [calls, seconds]`` at the same boundary.  Either
way a name's *self* time is its total minus the part its direct
children cover.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Kernel event-tag prefix -> the per-layer metric its handler time is
#: charged to.  First match wins; anything unmatched is reported as
#: ``sim.unmapped_handler_s`` so a new tag cannot hide.
TAG_LAYERS: tuple[tuple[str, str], ...] = (
    ("fluid.round", "mac.fluid.round_s"),
    ("dcf.", "mac.dcf.handler_s"),
    ("channel.", "mac.dcf.handler_s"),
    ("traffic.", "flows.tick_s"),
    ("stack.retry.", "stack.retry_s"),
    ("gmp.", "core.period_s"),
    ("churn.", "churn.handler_s"),
    ("fault.", "faults.handler_s"),
    ("runner.", "scenarios.sample_s"),
)
UNMAPPED = "sim.unmapped_handler_s"


def fold_tags(tag_seconds: dict[str, float]) -> dict[str, float]:
    """Handler seconds per layer metric (every mapped name present,
    plus :data:`UNMAPPED`)."""
    folded = {metric: 0.0 for _prefix, metric in TAG_LAYERS}
    folded[UNMAPPED] = 0.0
    for tag, seconds in tag_seconds.items():
        for prefix, metric in TAG_LAYERS:
            if tag.startswith(prefix):
                folded[metric] += seconds
                break
        else:
            folded[UNMAPPED] += seconds
    return folded


def ledger(
    bare_wall_s: float, profile: dict[str, Any], wrapped: dict[str, Any]
) -> dict[str, float]:
    """The per-layer metrics of one workload from its three kinds of
    pass: ``profile`` gives handler seconds and event counts per tag
    (undisturbed by wrappers), ``wrapped`` everything read at a
    wrapped boundary, and both over ``bare_wall_s`` what observing
    costs."""
    tag_seconds: dict[str, float] = profile["tag_seconds"]
    tag_events: dict[str, float] = profile["tag_events"]
    layers: dict[str, float] = dict(wrapped["layers"])
    layers.update(fold_tags(tag_seconds))
    layers["sim.events"] = profile["events"]
    layers["sim.dispatch_self_s"] = profile["run_s"] - sum(tag_seconds.values())
    layers["mac.fluid.rounds"] = tag_events.get("fluid.round", 0)
    layers["core.periods"] = tag_events.get("gmp.boundary", 0)
    layers["flows.packets"] = sum(
        count for tag, count in tag_events.items() if tag.startswith("traffic.")
    )
    layers["imm"] = wrapped["imm"]
    layers["maxmin_gap"] = wrapped["maxmin_gap"]
    layers["analysis.maxmin_reference_s"] = wrapped["maxmin_reference_s"]
    layers["telemetry.profile_overhead_ratio"] = profile["wall_s"] / bare_wall_s
    layers["telemetry.trace_overhead_ratio"] = wrapped["wall_s"] / bare_wall_s
    return {name: float(value) for name, value in sorted(layers.items())}


class Totals(dict):  # type: ignore[type-arg]
    """``(name, parent name or "") -> [calls, seconds]``."""

    def calls(self, name: str) -> int:
        return int(sum(v[0] for (n, _p), v in self.items() if n == name))

    def total(self, name: str) -> float:
        return sum(v[1] for (n, _p), v in self.items() if n == name)

    def self_time(self, name: str) -> float:
        """Total time in ``name`` minus what its direct children cover."""
        children = sum(v[1] for (_n, p), v in self.items() if p == name)
        return self.total(name) - children

    def snapshot(self) -> "Totals":
        return Totals({key: list(value) for key, value in self.items()})


class Tracer:
    """Span recorder with a parent stack (one thread, one process)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[tuple[str, float, int]] = []
        #: Recorded spans: ``[name, start, end, parent index or -1]``.
        self.spans: list[list[Any]] = []
        #: Every span, recorded or aggregated.
        self.totals = Totals()

    def push(self, name: str, *, record: bool = True) -> None:
        index = -1
        if record:
            parent = next((i for _n, _s, i in reversed(self._stack) if i >= 0), -1)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append((name, self._clock(), index))

    def pop(self) -> None:
        end = self._clock()
        name, start, index = self._stack.pop()
        if index >= 0:
            self.spans[index][1:3] = [start, end]
        parent = self._stack[-1][0] if self._stack else ""
        entry = self.totals.get((name, parent))
        if entry is None:
            self.totals[(name, parent)] = [1, end - start]
        else:
            entry[0] += 1
            entry[1] += end - start

    @contextmanager
    def span(self, name: str, *, record: bool = True) -> Iterator[None]:
        self.push(name, record=record)
        try:
            yield
        finally:
            self.pop()

    def wrap(self, name: str, fn: Callable[..., Any], *, record: bool = True):
        """``fn`` with a span named ``name`` around every call."""
        push, pop = self.push, self.pop

        def traced(*args: Any, **kwargs: Any) -> Any:
            push(name, record=record)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        return traced

    def export(self) -> dict[str, Any]:
        """JSON-plain form written to the results file."""
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "aggregates": [
                {"name": n, "parent": p, "calls": int(v[0]), "seconds": v[1]}
                for (n, p), v in sorted(self.totals.items())
            ],
        }


@contextmanager
def patched(patches: list[tuple[Any, str, Any]]) -> Iterator[None]:
    """Apply ``(owner, attribute-or-key, replacement)`` patches and
    undo them on exit.  ``owner`` is a module, a class or a dict."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for owner, name, new in patches:
            if isinstance(owner, dict):
                undo.append((owner, name, owner[name]))
                owner[name] = new
            else:
                # vars() so an attribute the owner merely inherits is a
                # KeyError here instead of a shadow left behind on exit.
                undo.append((owner, name, vars(owner)[name]))
                setattr(owner, name, new)
        yield
    finally:
        for owner, name, old in reversed(undo):
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)


def importers_of(fn: Any) -> list[tuple[Any, str]]:
    """Every ``(repro module, attribute)`` currently bound to ``fn`` —
    a ``from x import fn`` copies the reference, so wrapping a function
    means rebinding each copy."""
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                found.append((module, attr))
    return found
