"""The module dependency DAG.

Each top-level module of the ``repro`` package is a layer; a module may
import only the layers listed for it here.  Entries may name a specific
submodule (``"sim.rng"``) to carve out a narrower allowance than the
whole layer.  ``telemetry`` may import no part of ``sim`` — not the
kernel, the RNG registry, or the event queue — and that separation is
what makes "telemetry cannot perturb a run" an architectural property
instead of a testing hope.

``__init__`` and ``__main__`` sit above everything (they are the public
API surface and the CLI); ``scenarios`` is the assembly layer just
below them, and ``fidelity`` (the paper-table harness) consumes
finished runs on top of it.  ``simcheck`` itself
depends on nothing but ``errors`` so it can never be contaminated by
the code it audits.
"""

from __future__ import annotations

#: module (top-level segment under ``repro``) -> importable layers.
#: A value of ``None`` means "anything" (top-of-stack modules).
ALLOWED_IMPORTS: dict[str, set[str] | None] = {
    "errors": set(),
    "units": set(),
    "simcheck": {"errors"},
    "check": {"errors", "simcheck"},
    "telemetry": {"errors", "units"},
    "sim": {"errors", "units", "telemetry"},
    "topology": {"errors", "units", "sim.rng"},
    "routing": {"errors", "units", "topology"},
    "flows": {"errors", "units", "sim", "telemetry"},
    "mac": {"errors", "units", "sim", "telemetry", "flows", "topology"},
    "buffers": {"errors", "units", "telemetry", "flows", "topology"},
    "stack": {
        "errors",
        "units",
        "sim",
        "telemetry",
        "flows",
        "topology",
        "mac",
        "buffers",
    },
    "baselines": {"errors", "units", "flows", "topology", "routing", "buffers"},
    "core": {
        "errors",
        "units",
        "sim",
        "telemetry",
        "flows",
        "topology",
        "routing",
        "mac",
        "buffers",
        "stack",
    },
    "faults": {
        "errors",
        "units",
        "sim",
        "telemetry",
        "flows",
        "topology",
        "mac",
        "buffers",
        "stack",
        "core",
    },
    "analysis": {
        "errors",
        "units",
        "telemetry",
        "flows",
        "topology",
        "routing",
    },
    "churn": {
        "errors",
        "units",
        "sim",
        "telemetry",
        "flows",
        "topology",
        "routing",
        "mac",
        "buffers",
        "stack",
        "core",
    },
    "scenarios": {
        "errors",
        "units",
        "sim",
        "telemetry",
        "flows",
        "topology",
        "routing",
        "mac",
        "buffers",
        "stack",
        "core",
        "baselines",
        "faults",
        "churn",
        "analysis",
    },
    "fidelity": {
        "errors",
        "units",
        "telemetry",
        "flows",
        "topology",
        "routing",
        "core",
        "analysis",
        "scenarios",
    },
    "fuzz": {
        "errors",
        "units",
        "sim",
        "telemetry",
        "flows",
        "topology",
        "routing",
        "mac",
        "buffers",
        "stack",
        "core",
        "faults",
        "churn",
        "analysis",
        "scenarios",
        # The starvation oracle is the health monitor's starved-flow
        # detector: one narrow import, not the service plane.
        "obs.health",
    },
    # The observability plane consumes finished and *in-flight* runs
    # from above scenarios/fidelity, but — like telemetry — it may
    # never import the kernel: it reaches the simulator only through
    # the duck-typed monitor handle the runner passes it, which is
    # what keeps "observing a run cannot perturb it" architectural.
    # Service mode earns two narrow additions: ``faults`` (the control
    # plane decodes a ``POST /faults`` body into a FaultEvent, which the
    # Session applies through ``inject_fault``, as it does a scheduled one)
    # and ``sim.replay`` (the passive digest sanitizer it hands *into*
    # a run) — still no ``sim.kernel``.
    "obs": {
        "errors",
        "units",
        "telemetry",
        "flows",
        "topology",
        "routing",
        "core",
        "faults",
        "analysis",
        "scenarios",
        "fidelity",
        "sim.replay",
    },
    "__init__": None,
    "__main__": None,
}

#: Scheduling attributes telemetry code may never call (LAY003).
SCHEDULING_CALLS = {"call_at", "call_later", "every", "schedule"}


def import_allowed(importer_top: str, imported: str) -> bool:
    """May ``importer_top`` (layer) import ``imported`` (dotted path
    relative to ``repro``, e.g. ``"sim.kernel"``)?"""
    if importer_top not in ALLOWED_IMPORTS:
        return True  # unknown module: no layering opinion
    allowed = ALLOWED_IMPORTS[importer_top]
    if allowed is None:
        return True  # __init__/__main__ are explicitly unrestricted
    imported_top = imported.split(".")[0]
    if imported_top == importer_top:
        return True  # intra-layer imports are free
    if imported in allowed or imported_top in allowed:
        return True
    # A narrower submodule allowance ("sim.rng") admits exactly that
    # subtree.
    return any(
        imported == entry or imported.startswith(entry + ".")
        for entry in allowed
        if "." in entry
    )
