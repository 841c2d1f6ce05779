"""Scenario runner: assemble a full stack and simulate a session.

``run_scenario`` is the body of :meth:`~repro.scenarios.spec.RunSpec.run`,
the library's entry point.  It builds routing tables, the chosen MAC
substrate, one node stack per node with the protocol's buffer policy,
CBR traffic sources at the paper's desirable rate, and (for GMP) the
protocol engine; runs the session; and returns a
:class:`~repro.scenarios.results.RunResult` with warmup-excluded
end-to-end rates.

Protocols:

* ``"gmp"`` — per-destination queues + backpressure + the GMP engine;
* ``"802.11"`` — shared 300-packet FIFO with tail overwrite, no rate
  control;
* ``"2pp"`` — per-flow 10-packet queues with the two-phase allocation
  enforced as static source rate limits;
* ``"backpressure-shared"`` / ``"backpressure-perdest"`` — queueing-
  only modes (no rate adaptation) used by the Figure-1 isolation
  experiment.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Any, Protocol

from repro.analysis.maxmin_reference import MaxminSolution, weighted_maxmin_rates
from repro.analysis.resilience import per_arrival_convergence
from repro.analysis.throughput import effective_network_throughput
from repro.baselines.two_phase import two_phase_rates
from repro.buffers.backpressure import BufferOracleGate, OverhearingGate
from repro.buffers.queues import (
    BufferPolicy,
    PerDestinationBuffer,
    PerFlowBuffer,
    SharedBackpressureBuffer,
    SharedFifoBuffer,
)
from repro.churn.engine import ChurnEngine
from repro.churn.spec import ChurnSpec
from repro.core.config import GmpConfig
from repro.core.protocol import GmpProtocol
from repro.errors import ConfigError
from repro.faults.invariants import audit_run
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.flows.flow import Flow, FlowSet
from repro.flows.traffic import (
    CbrSource,
    OnOffSource,
    ParetoOnOffSource,
    PoissonSource,
    TrafficSource,
)
from repro.mac.dcf import DcfMac
from repro.mac.fluid import FluidMac
from repro.mac.phy import DEFAULT_PHY
from repro.routing.distance_vector import distance_vector_routes
from repro.routing.geographic import greedy_geographic_routes
from repro.routing.link_state import link_state_routes
from repro.routing.validate import assert_acyclic
from repro.scenarios.figures import Scenario
from repro.scenarios.results import RunResult
from repro.sim.kernel import Simulator
from repro.sim.replay import ReplaySanitizer
from repro.stack import NodeStack
from repro.telemetry import Telemetry
from repro.topology.cliques import CliqueSystem, maximal_cliques
from repro.topology.contention import ContentionGraph

TRAFFIC_MODELS = {
    "cbr": CbrSource,
    "poisson": PoissonSource,
    "onoff": OnOffSource,
    "pareto-onoff": ParetoOnOffSource,
}

ROUTING_PROTOCOLS = {
    "link_state": link_state_routes,
    "distance_vector": distance_vector_routes,
    "geographic": greedy_geographic_routes,
}

PROTOCOLS = ("gmp", "802.11", "2pp", "backpressure-shared", "backpressure-perdest")
SUBSTRATES = ("dcf", "fluid")


class RunMonitor(Protocol):
    """What watches or steers one run: the telemetry stream, the health
    monitor, a served session's controller.

    The :class:`Session` drives every monitor the same way: ``bind``
    after the stack is assembled, then attached to the kernel, which
    calls ``on_tick`` *between* event dispatches each time the
    simulated clock crosses the next multiple of ``interval``;
    ``on_abort`` when the run raises (the error is re-raised after
    every monitor has seen it); ``close`` after a clean run, once
    telemetry is finalized.  A tick is not an event, so a passive
    monitor (stream, health) never schedules, never draws randomness
    and never mutates model state: the dispatched event sequence is
    the same with it or without it.  The controller steers the run,
    but only from tick context and journaled, so an identical command
    journal replays the identical run.
    """

    interval: float

    def bind(self, session: Session) -> None:
        """The run is assembled; nothing has been dispatched yet."""

    def on_tick(self, now: float) -> None:
        """The simulated clock reached the monitor's next due time."""

    def on_abort(self, now: float, error: BaseException) -> None:
        """The run raised ``error`` at ``now``."""

    def close(self, session: Session) -> None:
        """The run ended cleanly; telemetry is final."""


@dataclass(eq=False, kw_only=True)
class Session:
    """One :func:`run_scenario` call as an object, built in five stages.
    Its fields are that function's keywords, with their defaults.

    *Validate* (construction) rejects what the observers make invalid
    and resolves defaults; *assemble* builds the stack; *attach*
    schedules the measurement events and binds every
    :class:`RunMonitor` (``monitors``, then ``control``); *run* drives
    the kernel; *collect* turns live state into the returned
    :class:`~repro.scenarios.results.RunResult` and closes the
    monitors.  What is assembled once lives on the instance, so the
    three consumers of "rates so far against the maxmin reference" —
    the health tick, the HTTP plane and the end-of-run collection —
    read one measurement, one cached reference and one snapshot.

    Mutating methods (:meth:`add_flow`, :meth:`remove_flow`,
    :meth:`inject_fault`, :meth:`stop`) steer the simulation and must
    only be called from kernel context — a callback or a monitor tick
    on the simulation thread; the service layer guarantees that by
    queueing commands and applying them at ticks.  Read methods are
    safe to call from other threads (they only read live state), with
    the usual monitoring caveat that a concurrent mutation can surface
    as a transient ``RuntimeError`` the reader should retry.
    """

    scenario: Scenario
    protocol: str
    substrate: str
    duration: float
    seed: int
    gmp_config: GmpConfig | None = None
    capacity_pps: float | None = None
    traffic: str = "cbr"
    routing: str = "link_state"
    faults: FaultSchedule | None = None
    churn: ChurnSpec | None = None
    rate_interval: float | None = None
    check_invariants: bool | None = None
    max_events: int | None = None
    stall_limit: int | None = 1_000_000
    wall_deadline: float | None = None
    telemetry: Telemetry | None = None
    sanitizer: ReplaySanitizer | None = None
    monitors: tuple[RunMonitor, ...] = ()
    control: RunMonitor | None = None

    # --- stage 1: validate ------------------------------------------------------

    def __post_init__(self) -> None:
        # The run inputs were checked by the RunSpec that describes
        # them; what is left depends on the observers.
        if self.control is not None and self.protocol == "2pp":
            raise ConfigError(
                "2pp enforces a static precomputed allocation; it cannot take live control"
            )
        if self.substrate == "dcf" and self.scenario.rate_caps:
            raise ConfigError(
                f"{self.scenario.name} caps link rates, which only the fluid substrate models"
            )
        # Rates exclude the first third of the run.
        self.warmup = self.duration / 3.0
        # A dynamic run's flow set changes while it runs.
        self.dynamic = self.churn is not None or self.control is not None
        if self.rate_interval is None and (self.faults is not None or self.dynamic):
            self.rate_interval = min(1.0, self.duration)
        if self.check_invariants is None:
            self.check_invariants = self.substrate == "fluid"
        self.gmp_config = self.gmp_config or GmpConfig()
        # Bound, ticked, told of an error and closed in this order.
        control = () if self.control is None else (self.control,)
        self._monitors = (*self.monitors, *control)

    def run(self) -> RunResult:
        """Assemble, attach instrumentation, run the kernel, collect.
        If the run raises, every monitor's ``on_abort`` sees the error
        first; a hook that raises in turn never masks it."""
        self._assemble()
        self._attach()
        sim = self.sim
        try:
            sim.run(
                until=self.duration,
                max_events=self.max_events,
                stall_limit=self.stall_limit,
                wall_deadline=self.wall_deadline,
            )
        except Exception as error:
            for monitor in self._monitors:
                try:
                    monitor.on_abort(sim.now, error)
                except Exception:  # noqa: BLE001 - a failing hook must
                    pass  # never mask the run's own error
            raise
        return self._collect()

    # --- stage 2: assemble ------------------------------------------------------

    def _assemble(self) -> None:
        scenario, gmp_config, duration = self.scenario, self.gmp_config, self.duration
        topology = scenario.topology
        flows = scenario.flows
        if self.dynamic:
            # The engine mutates the flow set as flows come and go; work on
            # a copy so the Scenario object itself replays byte-identically.
            flows = FlowSet(list(scenario.flows))
        self.flows = flows
        self.routes = routes = ROUTING_PROTOCOLS[self.routing](topology)
        # Routes resolve per destination on first use, so validating is
        # also what computes them: the flow destinations of a static
        # run; every node of a dynamic one, where any routable node can
        # become a flow's destination.
        assert_acyclic(
            routes,
            sorted(topology.node_ids) if self.dynamic else flows.destinations(),
        )
        # Every flow that ever existed this run, static or churned; the
        # measurement/sampling paths read it because departed flows leave
        # the live set.
        self.all_flows: dict[int, Flow] = {flow.flow_id: flow for flow in flows}

        self.sim = sim = Simulator(
            seed=self.seed, telemetry=self.telemetry, sanitizer=self.sanitizer,
        )
        if self.capacity_pps is None:
            # A dynamic run may start with no flows: Flow's own default
            # packet size (the dataclass default) stands in.
            packet_bytes = max(
                (flow.packet_bytes for flow in flows), default=Flow.packet_bytes
            )
            self.capacity_pps = DEFAULT_PHY.clique_capacity(packet_bytes)
        # The run's one clique system, over the routed links: read by the
        # fluid MAC, GMP and the maxmin reference; grown by flows grafted
        # over links it has not seen.
        paths = (routes.path_links(flow.source, flow.destination) for flow in flows)
        self.system = CliqueSystem(topology, chain.from_iterable(paths))
        self._reference: tuple[tuple[int, ...], Any, Any] | None = None

        if self.substrate == "dcf":
            mac = DcfMac(sim, topology)
        else:
            mac = FluidMac(
                sim,
                topology,
                capacity_pps=self.capacity_pps,
                rate_caps=scenario.rate_caps,
                system=self.system,
            )
        self.mac = mac

        self.stacks: dict[int, NodeStack] = {}
        stacks = self.stacks
        # Filled as the stacks are built; the fluid gate reads it.
        self.buffers: dict[int, BufferPolicy] = {}
        for node_id in topology.node_ids:
            buffer = self.buffers[node_id] = self._make_buffer(node_id)
            stack = NodeStack(
                sim,
                node_id,
                buffer,
                mac,
                stale_retry=gmp_config.stale_timeout,
            )
            stack.attach()
            stacks[node_id] = stack

        self.gmp: GmpProtocol | None = None
        if self.protocol == "gmp":
            self.gmp = GmpProtocol(
                sim, topology, routes, flows, mac, stacks,
                config=gmp_config, system=self.system,
            )
            for stack in stacks.values():
                stack.observer = self.gmp.observer()
        gmp = self.gmp

        self.sources: dict[int, TrafficSource] = {}
        sources = self.sources
        for flow in flows:
            source = self.make_source(flow, self.traffic)
            sources[flow.flow_id] = source
            if gmp is not None:
                gmp.register_source(flow.flow_id, source)

        self.extras: dict[str, Any] = {}
        if self.protocol == "2pp":
            # Phase 1 divides by each clique's full membership, routed
            # or not: 2PP alone needs the cliques of the whole topology.
            cliques = maximal_cliques(ContentionGraph(topology))
            allocation = two_phase_rates(flows, routes, cliques, self.capacity_pps)
            for flow_id, rate in allocation.rates.items():
                sources[flow_id].set_rate_limit(max(rate, 1.0))
            self.extras["two_phase"] = allocation

        # Every applied fault, as ``(time, text)``; a fault run and a
        # controlled run report it.
        self.fault_log: list[tuple[float, str]] = []
        faults = self.faults
        if faults is not None:
            faults.validate_within(duration)
            for event in faults:
                event.check(self)
                sim.call_at(event.at, partial(self.inject_fault, event), tag=event.tag)

        # Live-control flow arrivals/departures go through the same engine
        # machinery as trace churn; with no churn spec the engine is
        # command-driven and never armed.
        self.engine: ChurnEngine | None = None
        churn = self.churn
        if self.dynamic:
            model = churn.traffic if churn is not None else self.traffic
            self.engine = ChurnEngine(
                sim,
                churn,
                routes=routes,
                flows=flows,
                all_flows=self.all_flows,
                stacks=stacks,
                sources=sources,
                make_source=partial(self.make_source, model=model),
                gmp=gmp,
                period=gmp_config.period,
                duration=duration,
            )
            if churn is not None:
                self.engine.arm(duration)

        mac.start()
        if gmp is not None:
            gmp.start()
        jitter = sim.rng.stream("runner.start_jitter")
        for flow_id in sorted(sources):
            flow = flows.get(flow_id)
            offset = float(jitter.uniform(0.0, 1.0 / flow.desired_rate))
            sources[flow_id].start(offset=offset)

    def make_source(self, flow: Flow, model: str) -> TrafficSource:
        """An unstarted source for ``flow`` with the run's admit /
        on-generate / room-probe wiring — initial, churned and grafted
        flows alike."""
        stack = self.stacks[flow.source]
        return TRAFFIC_MODELS[model](
            self.sim,
            flow,
            stack.admit_local,
            on_generate=self.gmp.stamp if self.gmp is not None else None,
            room=stack.buffer.local_room,
        )

    def _make_gate(self) -> Any:
        if self.substrate == "fluid":
            return BufferOracleGate(self.buffers)
        return OverhearingGate(stale_timeout=self.gmp_config.stale_timeout)

    def _make_buffer(self, node_id: int) -> BufferPolicy:
        routes, queue_capacity = self.routes, self.gmp_config.queue_capacity

        def next_hop(dest: int) -> int:
            return routes.next_hop(node_id, dest)

        if self.protocol == "802.11":
            return SharedFifoBuffer(node_id, next_hop)
        if self.protocol == "2pp":
            return PerFlowBuffer(node_id, next_hop, per_flow_capacity=10)
        if self.protocol == "backpressure-shared":
            return SharedBackpressureBuffer(
                node_id, next_hop, self._make_gate(), capacity=queue_capacity
            )
        # gmp and backpressure-perdest
        return PerDestinationBuffer(
            node_id,
            next_hop,
            self._make_gate(),
            per_dest_capacity=queue_capacity,
            telemetry=self.telemetry,
        )

    # --- stage 3: attach instrumentation ----------------------------------------

    def _attach(self) -> None:
        sim, duration = self.sim, self.duration
        # Snapshot deliveries at the end of warmup, measure until the end.
        self._warm_counts: dict[int, int] = {}
        sim.call_at(self.warmup, self._mark_warmup, tag="runner.warmup")

        # Per-interval delivered-rate series (fault-transient resolution).
        # Each sample divides by the *actual* window width, so the final
        # partial window (duration not a multiple of rate_interval) is not
        # understated; the window edges land in ``interval_bounds``.
        self.interval_rates: dict[int, list[float]] = {}
        self.interval_bounds: list[float] = []
        rate_interval = self.rate_interval
        if rate_interval is not None:
            self.interval_rates = {flow_id: [] for flow_id in self.all_flows}
            self._sample_counts = {flow_id: 0 for flow_id in self.all_flows}
            # Multiply instead of accumulating so float drift cannot merge
            # or split the final window.
            index = 1
            while index * rate_interval < duration - 1e-9:
                sim.call_at(index * rate_interval, self._sample, tag="runner.sample")
                index += 1
            sim.call_at(duration, self._sample, tag="runner.sample")

        for monitor in self._monitors:
            monitor.bind(self)
            sim.attach_monitor(monitor)

    def _mark_warmup(self) -> None:
        for flow_id, flow in self.all_flows.items():
            sink = self.stacks[flow.destination]
            self._warm_counts[flow_id] = sink.delivered.get(flow_id, 0)

    def _sample(self) -> None:
        now = self.sim.now
        emitted = len(self.interval_bounds)
        elapsed = now - (self.interval_bounds[-1] if emitted else 0.0)
        if elapsed <= 0:
            return
        counts = self._sample_counts
        for flow_id in sorted(self.all_flows):
            flow = self.all_flows[flow_id]
            series = self.interval_rates.setdefault(flow_id, [])
            if len(series) < emitted:
                # The flow arrived mid-run: zero-pad the windows
                # from before its arrival so every series aligns
                # with ``interval_bounds``.
                series.extend([0.0] * (emitted - len(series)))
            sink = self.stacks[flow.destination]
            total = sink.delivered.get(flow_id, 0)
            delta = total - counts.get(flow_id, 0)
            counts[flow_id] = total
            series.append(delta / elapsed)
        self.interval_bounds.append(now)

    # --- status reads -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def events_processed(self) -> int:
        return self.sim.events_processed

    @property
    def queue_depth(self) -> int:
        return self.sim.pending_events

    def run_info(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.name,
            "protocol": self.protocol,
            "substrate": self.substrate,
            "duration": self.duration,
            "warmup": self.warmup,
            "seed": self.seed,
            "rate_interval": self.rate_interval,
        }

    # --- measurement (live and final) -------------------------------------------

    def lifetimes(self) -> dict[int, tuple[float, float]]:
        """Per-flow (arrival, departure) windows of dynamic flows so far."""
        return self.engine.live_lifetimes() if self.engine is not None else {}

    def flow_rates(self) -> dict[int, float]:
        """Delivered rate per flow over its measurement window *so far*
        (at the end of the run: the run's end-to-end rates)."""
        now = self.sim.now
        warmup = self.warmup
        lifetimes = self.lifetimes()
        rates: dict[int, float] = {}
        for flow_id in sorted(self.all_flows):
            flow = self.all_flows[flow_id]
            total = self.stacks[flow.destination].delivered.get(flow_id, 0)
            # Static flows measure over [warmup, now] as always; a
            # churned flow measures over its own lifetime (no warmup
            # subtraction once it arrived after warmup, no post-departure
            # window once it left early).
            start, end = lifetimes.get(flow_id, (0.0, now))
            end = min(end, now)
            if start < warmup < end:
                delivered = total - self._warm_counts.get(flow_id, 0)
                window = end - warmup
            else:
                delivered = total
                window = end - start
            rates[flow_id] = delivered / window if window > 0 else 0.0
        return rates

    def flows_summary(self) -> list[dict[str, Any]]:
        """One dict per flow that ever existed this run (live flows are
        flagged), with live measured rate and the GMP rate limit."""
        rates = self.flow_rates()
        lifetimes = self.lifetimes()
        limits = self.gmp.rate_limits() if self.gmp is not None else {}
        live_ids = {flow.flow_id for flow in self.flows}
        summary = []
        for flow_id in sorted(self.all_flows):
            flow = self.all_flows[flow_id]
            start, end = lifetimes.get(flow_id, (0.0, self.duration))
            summary.append(
                {
                    "flow_id": flow_id,
                    "source": flow.source,
                    "destination": flow.destination,
                    "weight": flow.weight,
                    "desired_rate": flow.desired_rate,
                    "live": flow_id in live_ids,
                    "arrived": start,
                    "departed": None if flow_id in live_ids else end,
                    "rate": rates.get(flow_id, 0.0),
                    "rate_limit": limits.get(flow_id),
                    "hops": self.routes.hop_count(flow.source, flow.destination),
                }
            )
        return summary

    def _reference_extras(self) -> dict[str, Any]:
        """The centralized maxmin solution over the *current* flow set,
        plus the clique list and capacity the per-flow rate explainer
        (:mod:`repro.fidelity.explain`) reads next to it.  Solved only
        when asked and cached until the live flow set changes."""
        key = tuple(sorted(flow.flow_id for flow in self.flows))
        cached = self._reference
        if cached is None or cached[0] != key:
            # Clique ids label one generation of the system: the list
            # solved over is kept with the solution that names them.
            cliques = self.system.cliques
            if key:
                solution = weighted_maxmin_rates(
                    self.flows, self.routes, cliques, self.capacity_pps
                )
            else:
                # Churn or DELETE can empty the live set; the public
                # solver rejects that, the reference of no flows is empty.
                solution = MaxminSolution({}, {}, {}, {})
            cached = self._reference = (key, solution, cliques)
        _key, solution, cliques = cached
        return {
            "maxmin_reference": dict(solution.rates),
            # The full solution: bottleneck clique per flow, clique usage.
            "maxmin_solution": solution,
            "cliques": cliques,
            "capacity_pps": self.capacity_pps,
        }

    def partial_result(self) -> RunResult:
        """A :class:`RunResult` of the run *so far*: the snapshot the
        health monitor scans each tick and ``/flows/<id>`` explains
        (rates, interval series and lifetimes as measured now, paths,
        weights, rate limits and — for GMP — the maxmin reference)."""
        result = self._measure({})
        if self.gmp is not None:
            result.extras.update(self._reference_extras())
        return result

    def _measure(self, extras: dict[str, Any]) -> RunResult:
        flows = sorted(self.all_flows.items())
        if self.telemetry is not None:
            extras["telemetry"] = self.telemetry
        extras["flow_paths"] = {
            flow_id: list(self.routes.path_links(flow.source, flow.destination))
            for flow_id, flow in flows
        }
        extras["flow_weights"] = {flow_id: flow.weight for flow_id, flow in flows}
        if self.gmp is not None:
            extras["rate_limits"] = self.gmp.rate_limits()
        # duration is the *planned* duration, not sim.now: the health
        # detectors derive their warmup cutoffs and window grids from
        # it, and a fixed grid keeps mid-run findings a prefix of the
        # end-of-run scan instead of a drifting-window superset (which
        # false-positives on clean runs).
        return RunResult(
            **self.run_info(),
            flow_rates=self.flow_rates(),
            hop_counts={
                flow_id: self.routes.hop_count(flow.source, flow.destination)
                for flow_id, flow in flows
            },
            effective_throughput=0.0,
            interval_rates=self.interval_rates,
            interval_bounds=self.interval_bounds,
            flow_lifetimes=self.lifetimes(),
            extras=extras,
        )

    # --- mutations (kernel context only) ----------------------------------------

    def add_flow(
        self,
        source: int,
        destination: int,
        *,
        flow_id: int | None = None,
        **fields: Any,
    ) -> Flow:
        """Graft a new flow into the run right now; returns the flow
        (with the smallest never-used id when ``flow_id`` was omitted).
        ``fields`` are the other :class:`~repro.flows.flow.Flow` fields
        (``weight``, ``desired_rate``, ``packet_bytes``)."""
        if flow_id is None:
            flow_id = max(self.all_flows, default=0) + 1
        if flow_id in self.all_flows:
            raise ConfigError(f"flow id {flow_id} was already used this run")
        flow = Flow(flow_id, source, destination, **fields)
        self.engine.inject_arrival(flow)
        return flow

    def remove_flow(self, flow_id: int) -> None:
        """Retire a live flow right now."""
        self.engine.inject_departure(flow_id)

    def inject_fault(self, event: FaultEvent) -> str:
        """Apply one fault now, scheduled or live; returns its log line.
        Its checks against this run come first, so a refused fault
        raises :class:`~repro.errors.FaultError` before any layer
        changes."""
        event.check(self)
        text = event.apply(self)
        self.fault_log.append((self.sim.now, text))
        return text

    def stop(self) -> None:
        """Stop the run after the in-flight event (graceful shutdown)."""
        self.sim.stop()

    # --- stage 5: collect -------------------------------------------------------

    def _observables(self, rates: dict[int, float]) -> str:
        """Digest of what the run measured (L1), read once at its end.
        Offers a source made (``generated``, ``rejected``, ``limited``)
        describe its tick schedule, not the run's behaviour: left out."""
        held = {n: (p.flow_id, p.seq) for n, p in self.mac.packets_in_flight().items()}
        flows = [
            (flow_id, rates[flow_id], self.sources[flow_id].admitted,
             sink.delivered.get(flow_id, 0), sink.delay_sum.get(flow_id, 0.0))
            for flow_id, flow in sorted(self.all_flows.items())
            for sink in (self.stacks[flow.destination],)
        ]
        nodes = [
            (node_id, sorted(stack.forwards.items()),
             sorted((p.flow_id, p.seq) for p in stack.buffer.queued_packets()),
             held.get(node_id), stack.buffer.drops, stack.mac_drops,
             sorted(stack.crash_losses.items()))
            for node_id, stack in sorted(self.stacks.items())
        ]
        record = (flows, nodes, self.extras.get("limit_history"))
        return hashlib.sha256(repr(record).encode()).hexdigest()

    def _collect(self) -> RunResult:
        sim, gmp, telemetry = self.sim, self.gmp, self.telemetry
        extras = self.extras
        extras["events_processed"] = sim.events_processed
        if telemetry is not None:
            telemetry.finalize(sim.now)
            # The exported run header names the run, not its sampling.
            header = self.run_info()
            del header["rate_interval"]
            telemetry.run_info.update(header)
            if gmp is not None:
                extras.update(self._reference_extras())
        # After telemetry.finalize and the run_info update, so a
        # stream's header and snapshot block are final.
        for monitor in self._monitors:
            monitor.close(self)

        result = self._measure(extras)
        flow_rates = result.flow_rates
        if self.engine is not None:
            churn_report = self.engine.finalize()
            key = "churn" if self.churn is not None else "control_report"
            extras[key] = churn_report
            if self.rate_interval and self.interval_rates:
                # A flow grafted moments before the run ended (e.g. via a
                # served session's shutdown) may have no completed
                # measurement window; it cannot be convergence-scored.
                arrivals_only = {
                    flow_id: life
                    for flow_id, life in churn_report.lifetimes.items()
                    if life[0] > 0.0 and flow_id in self.interval_rates
                }
                extras["per_arrival_convergence"] = per_arrival_convergence(
                    self.interval_rates,
                    self.rate_interval,
                    lifetimes=arrivals_only,
                    bounds=self.interval_bounds,
                )

        if gmp is not None:
            # Solved only when read: the sweep summary reads it.
            extras["solve_reference"] = lambda: self._reference_extras()["maxmin_reference"]
            extras["limit_history"] = {
                flow_id: gmp.limit_history(flow_id)
                for flow_id in sorted(self.all_flows)
            }
            extras["requests_issued"] = len(gmp.requests_issued)
            extras["violations_found"] = gmp.violations_found
            extras["control_requests_dropped"] = gmp.control_requests_dropped
        if self.sanitizer is not None:
            extras["replay_digest"] = self.sanitizer.hexdigest()
            extras["observable_digest"] = self.sanitizer.observable = (
                self._observables(flow_rates)
            )

        if self.faults is not None or self.control is not None:
            extras["faults"] = list(self.fault_log)
            extras["crash_losses"] = {
                node_id: dict(stack.crash_losses)
                for node_id, stack in self.stacks.items()
                if stack.crash_losses
            }

        report = audit_run(
            flows=self.flows,
            sources=self.sources,
            stacks=self.stacks,
            mac=self.mac,
            rates=flow_rates,
            strict=self.check_invariants,
        )
        extras["invariants"] = report
        if self.check_invariants:
            report.check()

        result.effective_throughput = effective_network_throughput(
            flow_rates, FlowSet(list(self.all_flows.values())), self.routes
        )
        result.buffer_drops = sum(s.buffer.drops for s in self.stacks.values())
        result.mac_drops = sum(s.mac_drops for s in self.stacks.values())
        return result


def run_scenario(scenario: Scenario, **inputs: Any) -> RunResult:
    """Simulate one session and measure end-to-end flow rates over its
    last two thirds.

    The body of :meth:`~repro.scenarios.spec.RunSpec.run`, which checks
    every run input first; describe a run with a ``RunSpec`` rather
    than calling this directly.

    Args:
        scenario: topology + flows (see :mod:`repro.scenarios.figures`).
        inputs: the other fields of :class:`Session`, by name, below;
            ``protocol``, ``substrate``, ``duration`` and ``seed`` have
            no default.
        protocol / substrate / duration / seed / traffic / routing /
            capacity_pps: as the :class:`~repro.scenarios.spec.RunSpec`
            fields of the same names.
        gmp_config: GMP parameters (default: the paper's).
        faults / churn: the parsed fault schedule and churn spec, or
            None.  The applied-fault log lands in ``extras["faults"]``;
            the :class:`~repro.churn.engine.ChurnReport` in
            ``extras["churn"]``, per-flow (arrival, departure) windows
            in ``RunResult.flow_lifetimes`` and per-arrival convergence
            times in ``extras["per_arrival_convergence"]``.  A churn
            run copies the scenario's flow set instead of mutating it.
        rate_interval: if set, record per-flow delivered rates over
            consecutive windows of this many seconds (the time series
            the resilience metrics consume).  A fault, churn or control
            run defaults it to 1.0 s (the whole run, when that is shorter).
        check_invariants: run the end-of-run packet-conservation audit
            and raise :class:`~repro.errors.InvariantError` on any
            violation.  ``None`` (default) enables the strict audit on
            the fluid substrate only — the packet-level DCF can
            legitimately duplicate a delivery on ACK loss, so there
            only a relaxed (sign-check) audit is stored in
            ``extras["invariants"]``.
        max_events: optional kernel watchdog — hard event budget.
        stall_limit: kernel watchdog — maximum events dispatched
            without simulated time advancing (default one million;
            None disables).
        wall_deadline: kernel watchdog — real seconds the run may take.
        telemetry: optional :class:`~repro.telemetry.Telemetry`
            instance.  When given, the whole stack instruments itself
            through it; the same instance (finalized) lands in
            ``extras["telemetry"]`` and, for GMP runs, the centralized
            maxmin reference rates land in ``extras["maxmin_reference"]``
            for the per-flow rate explainer
            (:mod:`repro.fidelity.explain`).  Telemetry is passive — it
            never schedules events — so enabling it does not change what
            the simulation does.
        sanitizer: optional :class:`~repro.sim.replay.ReplaySanitizer`
            attached to the kernel.  Every dispatched event is folded
            into its rolling digest (passively — observation never
            schedules); the final digest lands in
            ``extras["replay_digest"]``.
        monitors / control: the run's :class:`RunMonitor` observers,
            in order — in practice a
            :class:`repro.obs.stream.StreamPublisher` (the
            ``--metrics-out`` file, written while the run is in flight)
            and a :class:`repro.obs.health.HealthMonitor` (whose alerts
            the caller reads) — and the one that steers it, a
            :class:`repro.obs.serve.ServeController`.  Each is bound
            after assembly, ticked by the kernel between dispatches,
            told of an error the run raises, and closed after telemetry
            is finalized; ``control`` comes last.  Observers neither
            schedule events nor draw randomness, so the event sequence
            (and the replay digest) is the same with or without them.
            ``control`` changes assembly (a command-driven churn engine,
            whose report lands in ``extras["control_report"]``; the
            faults it applies live join ``extras["faults"]``) and steers
            only from tick context, so the same command journal replays
            the same run (:mod:`repro.obs.serve`).

    Raises:
        ConfigError: on 2PP under ``control``, or a rate-capped
            scenario on the DCF.
        FaultError: if ``faults`` targets unknown nodes or needs hooks
            the substrate or protocol lacks.
        InvariantError: if the end-of-run audit fails.
        SimulationError: when a kernel watchdog trips.
        Whatever a monitor's ``bind`` raises: a stream whose file
            cannot be written raises ConfigError before the first event.
    """
    return Session(scenario=scenario, **inputs).run()

