"""One benchmark pass in a fresh process; prints one JSON line.

``python child.py '<json spec>'`` with ``mode`` one of

* ``import``  — load the library and exit (warm-up, discarded);
* ``bare``    — an untraced pass: only ``Simulator.run`` is wrapped,
  once per run, to split set-up from run;
* ``profile`` — the same with the public ``Telemetry(profile=True)``;
* ``wrapped`` — the same with a span around every layer boundary
  listed in :func:`layer_patches`.

Everything the library needs is imported before the clock starts, so
lazy imports are not charged to ``setup_s``.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
from typing import Any

import numpy
from repro.buffers.queues import PerDestinationBuffer
from repro.churn.engine import ChurnEngine
from repro.core.protocol import GmpProtocol
from repro.mac.dcf import DcfMac
from repro.mac.fluid import FluidMac, waterfill_links
from repro.routing.validate import assert_acyclic
from repro.scenarios import runner
from repro.scenarios.sweep import SCENARIO_FACTORIES
from repro.sim.event import EventQueue
from repro.sim.kernel import Simulator
from repro.stack import NodeStack
from repro.telemetry import Telemetry
from repro.topology.cliques import maximal_cliques
from repro.topology.contention import ContentionGraph

import tracing
import workloads

#: A set-up shorter than ``SETUP_REPEAT_BELOW_S`` is repeated (the
#: extra ones abort at ``Simulator.run``) until there are this many
#: samples or the extra ones took this long: a 2 ms set-up is a median
#: of nine, which a cold first one cannot move; a 2 s set-up is
#: measured once per pass.
SETUP_REPEAT_BELOW_S = 0.5
SETUP_SAMPLES = 9
SETUP_BUDGET_S = 0.25

#: Buffer operations on the packet path (all workloads run GMP, whose
#: buffer is the per-destination one).
BUFFER_OPS = (
    "admit_local_at",
    "admit_forwarded_at",
    "dequeue",
    "dequeue_for",
    "eligible_links",
    "has_free",
)


class _SetupProbe(Exception):
    """Raised at entry to ``Simulator.run`` to end a set-up-only pass."""


class RunClock:
    """The once-per-run wrapper around ``Simulator.run``."""

    def __init__(self, tracer: tracing.Tracer | None = None) -> None:
        self.tracer = tracer
        self.probe = False
        self.enter = 0.0
        self.exit = 0.0
        #: The tracer's totals when set-up ended (wrapped mode).
        self.setup_totals = tracing.Totals()

    def patch(self) -> tuple[Any, str, Any]:
        original = Simulator.run
        tracer = self.tracer

        def run(sim: Simulator, *args: Any, **kwargs: Any) -> float:
            self.enter = time.perf_counter()
            if self.probe:
                raise _SetupProbe
            if tracer is not None:
                tracer.pop()  # scenarios.setup
                self.setup_totals = tracer.totals.snapshot()
                tracer.push("sim.run")
            try:
                return original(sim, *args, **kwargs)
            finally:
                self.exit = time.perf_counter()
                if tracer is not None:
                    tracer.pop()
                    tracer.push("scenarios.post")

        return (Simulator, "run", run)


def layer_patches(
    tracer: tracing.Tracer, captured: dict[str, Any]
) -> list[tuple[Any, str, Any]]:
    """A span around each layer's public entry points.  Set-up stages
    are recorded span by span; per-packet calls are aggregated."""

    def capturing(key: str, init: Any) -> Any:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> None:
            captured[key] = self
            init(self, *args, **kwargs)

        return wrapper

    def cliques(graph: Any) -> Any:
        captured["cliques"] = maximal_cliques(graph)
        return captured["cliques"]

    methods: list[tuple[str, Any, tuple[str, ...], bool]] = [
        ("topology.contention", ContentionGraph, ("__init__",), True),
        ("mac.fluid.start", FluidMac, ("start",), True),
        ("core.init", GmpProtocol, ("__init__",), True),
        ("stack.init", NodeStack, ("__init__", "attach"), True),
        ("churn.init", ChurnEngine, ("__init__", "arm"), True),
        ("sim.pop_batch", EventQueue, ("pop_batch",), False),
        ("sim.reinject", EventQueue, ("reinject",), False),
        ("stack.admit", NodeStack, ("admit_local",), False),
        ("buffers.op", PerDestinationBuffer, BUFFER_OPS, False),
    ]
    patches: list[tuple[Any, str, Any]] = [
        (owner, attr, tracer.wrap(name, vars(owner)[attr], record=record))
        for name, owner, attrs, record in methods
        for attr in attrs
    ]
    patches += [
        (
            FluidMac,
            "__init__",
            tracer.wrap("mac.fluid.init", capturing("fluid", FluidMac.__init__)),
        ),
        (
            DcfMac,
            "__init__",
            tracer.wrap("mac.dcf.init", capturing("dcf", DcfMac.__init__)),
        ),
        (
            runner.ROUTING_PROTOCOLS,
            "link_state",
            tracer.wrap("routing.build", runner.ROUTING_PROTOCOLS["link_state"]),
        ),
    ]
    # ``from x import f`` copies the reference into each importer.
    for name, original, fn in (
        ("topology.cliques", maximal_cliques, cliques),
        ("routing.validate", assert_acyclic, assert_acyclic),
    ):
        traced = tracer.wrap(name, fn)
        patches += [(m, attr, traced) for m, attr in tracing.importers_of(original)]
    return patches


def wrapped_layers(
    setup: tracing.Totals,
    totals: tracing.Totals,
    captured: dict[str, Any],
    scenario: Any,
    result: Any,
) -> dict[str, float]:
    """Per-layer numbers only the wrapped pass can see.  ``setup`` is
    the tracer's totals at entry to ``Simulator.run``: the set-up
    stages are self times, so they add up to the traced ``setup_s``."""
    topology = scenario.topology
    layers: dict[str, float] = {
        f"{name}_s": setup.self_time(name)
        for name in (
            "topology.build",
            "topology.contention",
            "topology.cliques",
            "routing.build",
            "routing.validate",
            "mac.fluid.init",
            "mac.fluid.start",
            "mac.dcf.init",
            "core.init",
            "stack.init",
            "churn.init",
        )
    }
    layers.update(
        {
            "scenarios.setup_other_s": setup.self_time("scenarios.setup"),
            "scenarios.post_s": totals.total("scenarios.post"),
            "topology.cliques_calls": setup.calls("topology.cliques"),
            "topology.nodes": len(topology),
            "topology.links": len(topology.links()),
            "topology.cliques": len(captured.get("cliques", ())),
            "sim.batches": totals.calls("sim.pop_batch"),
            "sim.reinjects": totals.calls("sim.reinject"),
            "sim.queue_s": totals.total("sim.pop_batch") + totals.total("sim.reinject"),
            "stack.admit_s": totals.self_time("stack.admit"),
            "stack.admit_calls": totals.calls("stack.admit"),
            "buffers.op_s": totals.total("buffers.op"),
            "buffers.ops": totals.calls("buffers.op"),
            "buffers.drops": result.buffer_drops,
            "faults.applied": len(result.extras.get("faults", ())),
        }
    )
    layers["sim.reinject_ratio"] = layers["sim.reinjects"] / max(1, layers["sim.batches"])
    churn = result.extras.get("churn")
    layers["churn.arrivals"] = churn.arrivals if churn is not None else 0
    layers["churn.departures"] = churn.departures if churn is not None else 0

    fluid = captured.get("fluid")
    lookups = (fluid.alloc_cache_hits + fluid.alloc_cache_misses) if fluid else 0
    layers["mac.fluid.rounds_skipped"] = fluid.rounds_skipped if fluid else 0
    layers["mac.fluid.alloc_cache_hit_ratio"] = (
        fluid.alloc_cache_hits / lookups if lookups else 0.0
    )
    layers["mac.fluid.solve_full_s"] = 0.0
    if fluid is not None:
        # The solve the memo and the idle-skip avoid: every directed
        # link backlogged at once.
        demands = {a_link: fluid.capacity_pps for a_link in topology.links()}
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            waterfill_links(demands, captured["cliques"], fluid.capacity_pps)
            samples.append(time.perf_counter() - start)
        layers["mac.fluid.solve_full_s"] = statistics.median(samples)

    dcf = captured.get("dcf")
    stats = [dcf.node_stats(node_id) for node_id in topology.node_ids] if dcf else []
    decoded = (dcf.channel.frames_delivered + dcf.channel.frames_corrupted) if dcf else 0
    layers["mac.dcf.frames_sent"] = dcf.channel.frames_sent if dcf else 0
    layers["mac.dcf.rts_attempts"] = sum(s["rts_attempts"] for s in stats)
    layers["mac.dcf.drops"] = sum(s["drops"] for s in stats)
    layers["mac.dcf.collision_ratio"] = (
        dcf.channel.frames_corrupted / decoded if decoded else 0.0
    )
    return layers


def profile_layers(telemetry: Telemetry) -> dict[str, Any]:
    """Handler seconds and event counts per kernel tag."""
    registry = telemetry.registry

    def by_tag(name: str) -> dict[str, float]:
        return {i.labels["tag"]: i.value for i in registry.instruments(name)}  # type: ignore[attr-defined]

    return {
        "tag_seconds": by_tag("kernel.handler_wall_seconds"),
        "tag_events": by_tag("kernel.events_by_tag"),
    }


def one_pass(spec: dict[str, Any]) -> dict[str, Any]:
    mode = spec["mode"]
    workload = workloads.WORKLOADS[spec["workload"]]
    seed, quick = spec["seed"], spec["quick"]
    factory = SCENARIO_FACTORIES[workload.scenario]
    tracer = tracing.Tracer() if mode == "wrapped" else None
    captured: dict[str, Any] = {}
    clock = RunClock(tracer)
    patches = [clock.patch()]
    if tracer is not None:
        patches += layer_patches(tracer, captured)
    kwargs = workloads.run_kwargs(workload, seed, quick=quick)
    telemetry = Telemetry(profile=True) if mode == "profile" else None
    if telemetry is not None:
        kwargs["telemetry"] = telemetry

    with tracing.patched(patches):
        start = time.perf_counter()
        if tracer is not None:
            tracer.push("scenarios.setup")
            with tracer.span("topology.build"):
                scenario = factory()
        else:
            scenario = factory()
        result = runner.run_scenario(scenario, **kwargs)
        end = time.perf_counter()
        if tracer is not None:
            tracer.pop()  # scenarios.post
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run_s = clock.exit - clock.enter

        setups = [clock.enter - start]
        if mode == "bare" and setups[0] < SETUP_REPEAT_BELOW_S:
            clock.probe = True
            while len(setups) < SETUP_SAMPLES and sum(setups[1:]) < SETUP_BUDGET_S:
                kwargs = workloads.run_kwargs(workload, seed, quick=quick)
                probe_start = time.perf_counter()
                try:
                    runner.run_scenario(factory(), **kwargs)
                except _SetupProbe:
                    setups.append(clock.enter - probe_start)

    events = result.extras["events_processed"]
    out: dict[str, Any] = {
        "setup_s": statistics.median(setups),
        "wall_s": end - start,
        "run_s": run_s,
        "events": events,
        "sim_rate": kwargs["duration"] / run_s,
        "events_per_s": events / run_s,
        "peak_rss_mb": peak_rss_mb,
        "sim_digest": workloads.sim_digest(result),
        **workloads.simulated_metrics(scenario, result),
    }
    if spec["reference"]:
        reference, seconds = workloads.reference_rates(scenario)
        out["maxmin_gap"] = workloads.maxmin_gap(scenario, result, reference)
        out["maxmin_reference_s"] = seconds
    if telemetry is not None:
        out.update(profile_layers(telemetry))
    if tracer is not None:
        out["layers"] = wrapped_layers(
            clock.setup_totals, tracer.totals, captured, scenario, result
        )
        out["trace"] = tracer.export()
    return out


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    if spec["mode"] == "import":
        out = {"python": platform.python_version(), "numpy": numpy.__version__}
    else:
        out = one_pass(spec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
