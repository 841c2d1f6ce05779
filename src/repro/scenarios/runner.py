"""Scenario runner: assemble a full stack and simulate a session.

``run_scenario`` is the library's main entry point.  It builds routing
tables, the chosen MAC substrate, one node stack per node with the
protocol's buffer policy, CBR traffic sources at the paper's desirable
rate, and (for GMP) the protocol engine; runs the session; and returns
a :class:`~repro.scenarios.results.RunResult` with warmup-excluded
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

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Any

from repro.analysis.maxmin_reference import MaxminSolution, weighted_maxmin_rates
from repro.analysis.resilience import per_arrival_convergence
from repro.analysis.throughput import effective_network_throughput
from repro.baselines.dcf_plain import plain_dcf_buffer
from repro.baselines.two_phase import two_phase_rates
from repro.buffers.backpressure import OracleGate, OverhearingGate
from repro.buffers.queues import (
    BufferPolicy,
    PerDestinationBuffer,
    PerFlowBuffer,
    SharedBackpressureBuffer,
)
from repro.churn.engine import ChurnEngine
from repro.churn.spec import ChurnSpec
from repro.core.config import GmpConfig
from repro.core.protocol import GmpProtocol
from repro.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.invariants import audit_run
from repro.faults.schedule import FaultSchedule
from repro.flows.flow import Flow, FlowSet
from repro.flows.traffic import (
    CbrSource,
    OnOffSource,
    ParetoOnOffSource,
    PoissonSource,
    TrafficSource,
)
from repro.mac.dcf import DcfConfig, DcfMac
from repro.mac.fluid import FluidMac
from repro.mac.phy import DEFAULT_PHY, PhyProfile
from repro.routing.distance_vector import distance_vector_routes
from repro.routing.geographic import greedy_geographic_routes
from repro.routing.link_state import link_state_routes
from repro.routing.validate import assert_acyclic
from repro.scenarios.figures import Scenario
from repro.scenarios.results import RunResult
from repro.sim.kernel import Simulator
from repro.sim.replay import ReplayReport, ReplaySanitizer, diff_sanitizers
from repro.sim.trace import TraceCollector
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


@dataclass(eq=False)
class Session:
    """One :func:`run_scenario` call as an object, built in five stages.

    *Validate* (construction) rejects bad input and resolves defaults;
    *assemble* builds the stack; *attach* schedules the measurement
    events and binds the stream / health / control monitors; *run*
    drives the kernel; *collect* turns live state into the returned
    :class:`~repro.scenarios.results.RunResult`.  What is assembled
    once lives on the instance, so the three consumers of "rates so far
    against the maxmin reference" — the health tick, the HTTP plane and
    the end-of-run collection — read one measurement, one cached
    reference and one snapshot.

    A ``control`` monitor receives the session itself via
    ``control.bind(sim, session)``.  Mutating methods
    (:meth:`add_flow`, :meth:`remove_flow`, :meth:`inject_fault`,
    :meth:`stop`) steer the simulation and must only be called from
    kernel context — a callback or a monitor tick on the simulation
    thread; the service layer guarantees that by queueing commands and
    applying them at ticks.  Read methods are safe to call from other
    threads (they only read live state), with the usual monitoring
    caveat that a concurrent mutation can surface as a transient
    ``RuntimeError`` the reader should retry.
    """

    scenario: Scenario
    protocol: str
    substrate: str
    duration: float
    warmup: float | None
    seed: int
    gmp_config: GmpConfig | None
    phy: PhyProfile
    dcf_config: DcfConfig | None
    capacity_pps: float | None
    fluid_round: float
    traffic: str
    routing: str
    faults: FaultSchedule | None
    churn: ChurnSpec | None
    rate_interval: float | None
    check_invariants: bool | None
    max_events: int | None
    stall_limit: int | None
    wall_deadline: float | None
    telemetry: Telemetry | None
    trace: TraceCollector | None
    sanitizer: ReplaySanitizer | None
    stream: Any
    health: Any
    control: Any
    pace: float | None

    # --- stage 1: validate ------------------------------------------------------

    def __post_init__(self) -> None:
        duration = self.duration
        for what, name, choices in (
            ("protocol", self.protocol, PROTOCOLS),
            ("traffic model", self.traffic, tuple(TRAFFIC_MODELS)),
            ("routing", self.routing, tuple(ROUTING_PROTOCOLS)),
            ("substrate", self.substrate, SUBSTRATES),
        ):
            if name not in choices:
                raise ConfigError(f"unknown {what} {name!r}; pick from {choices}")
        if duration <= 0:
            raise ConfigError(f"duration must be positive: {duration}")
        if self.warmup is None:
            self.warmup = duration / 3.0
        if not 0 <= self.warmup < duration:
            raise ConfigError(f"warmup {self.warmup} must lie within [0, {duration})")
        # A dynamic run's flow set changes while it runs.
        self.dynamic = self.churn is not None or self.control is not None
        if self.dynamic and self.protocol == "2pp":
            raise ConfigError(
                "2pp enforces a static precomputed allocation; it cannot "
                "take a dynamic workload (churn or live control)"
            )
        if self.rate_interval is None and (self.faults is not None or self.dynamic):
            self.rate_interval = min(1.0, duration)
        if self.rate_interval is not None and not 0 < self.rate_interval <= duration:
            raise ConfigError(
                f"rate_interval {self.rate_interval} must lie within (0, {duration}]"
            )
        if self.check_invariants is None:
            self.check_invariants = self.substrate == "fluid"
        self.gmp_config = self.gmp_config or GmpConfig()

    def run(self) -> RunResult:
        """Assemble, attach instrumentation, run the kernel, collect."""
        self._assemble()
        self._attach()
        self.sim.run(
            until=self.duration,
            max_events=self.max_events,
            stall_limit=self.stall_limit,
            wall_deadline=self.wall_deadline,
            pace=self.pace,
        )
        return self._collect()

    # --- stage 2: assemble ------------------------------------------------------

    def _assemble(self) -> None:
        scenario, gmp_config, duration = self.scenario, self.gmp_config, self.duration
        topology = scenario.topology
        flows = scenario.flows
        if self.dynamic:
            # The engine mutates the flow set as flows come and go; work on
            # a copy so the Scenario object itself replays byte-identically
            # (replay_check runs it twice).
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
            seed=self.seed, trace=self.trace, telemetry=self.telemetry,
            sanitizer=self.sanitizer,
        )
        if self.capacity_pps is None:
            # A dynamic run may start with no flows: Flow's own default
            # packet size (the dataclass default) stands in.
            packet_bytes = max(
                (flow.packet_bytes for flow in flows), default=Flow.packet_bytes
            )
            self.capacity_pps = self.phy.clique_capacity(packet_bytes)
        # The run's one clique system, over the routed links: read by the
        # fluid MAC, GMP and the maxmin reference; grown by flows grafted
        # over links it has not seen.
        paths = (routes.path_links(flow.source, flow.destination) for flow in flows)
        self.system = CliqueSystem(topology, chain.from_iterable(paths))
        self._reference: tuple[tuple[int, ...], Any, Any] | None = None

        if self.substrate == "dcf":
            mac = DcfMac(
                sim, topology, phy=self.phy, config=self.dcf_config or DcfConfig()
            )
        else:
            mac = FluidMac(
                sim,
                topology,
                round_interval=self.fluid_round,
                capacity_pps=self.capacity_pps,
                rate_caps=scenario.rate_caps,
                system=self.system,
            )
        self.mac = mac

        self.stacks: dict[int, NodeStack] = {}
        stacks = self.stacks
        for node_id in topology.node_ids:
            stack = NodeStack(
                sim,
                node_id,
                self._make_buffer(node_id),
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

        self.injector: FaultInjector | None = None
        faults = self.faults
        if faults is not None or self.control is not None:
            # A controlled run gets an injector even with no schedule (an
            # empty one arms nothing): the control plane applies faults
            # live through it.
            schedule = faults if faults is not None else FaultSchedule()
            schedule.validate_within(duration)
            self.injector = FaultInjector(
                sim, schedule, mac=mac, stacks=stacks, sources=sources, gmp=gmp
            )
            self.injector.arm()

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
        on-generate wiring — initial, churned and grafted flows alike."""
        return TRAFFIC_MODELS[model](
            self.sim,
            flow,
            self.stacks[flow.source].admit_local,
            on_generate=self.gmp.stamp if self.gmp is not None else None,
        )

    def _oracle_lookup(self, neighbor: int, dest: int) -> bool:
        buffer = self.stacks[neighbor].buffer
        return buffer.has_free(dest)  # type: ignore[attr-defined]

    def _make_gate(self) -> Any:
        if self.substrate == "fluid":
            return OracleGate(self._oracle_lookup)
        return OverhearingGate(stale_timeout=self.gmp_config.stale_timeout)

    def _make_buffer(self, node_id: int) -> BufferPolicy:
        routes, queue_capacity = self.routes, self.gmp_config.queue_capacity

        def next_hop(dest: int) -> int:
            return routes.next_hop(node_id, dest)

        if self.protocol == "802.11":
            return plain_dcf_buffer(node_id, next_hop)
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

        if self.stream is not None:
            self.stream.bind(sim)
        if self.health is not None:
            # The monitor scans a *partial* result each tick.  Everything
            # the snapshot touches is plain live state — no RNG, no event
            # scheduling — so health checks cannot perturb the run.
            self.health.bind(sim, self.partial_result)
        if self.control is not None:
            self.control.bind(sim, self)

    def _mark_warmup(self) -> None:
        for flow_id, flow in self.all_flows.items():
            sink = self.stacks[flow.destination]
            self._warm_counts[flow_id] = sink.delivered.get(flow_id, 0)

    # The replay digest folds each handler's qualified name.  These two
    # keep the names they were recorded under (the golden figure3 digest,
    # served-session journals), so becoming methods changes no digest.
    _mark_warmup.__qualname__ = "run_scenario.<locals>.snapshot"

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

    _sample.__qualname__ = "run_scenario.<locals>.sample"

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
        if self.telemetry is not None and self.telemetry.enabled:
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

    def inject_fault(self, event: Any) -> str:
        """Apply one :class:`~repro.faults.schedule.FaultEvent` now."""
        return self.injector.inject(event)

    def stop(self) -> None:
        """Stop the run after the in-flight event (graceful shutdown)."""
        self.sim.stop()

    # --- stage 5: collect -------------------------------------------------------

    def _collect(self) -> RunResult:
        sim, gmp, telemetry = self.sim, self.gmp, self.telemetry
        extras = self.extras
        if self.control is not None:
            self.control.finalize(sim.now)

        extras["events_processed"] = sim.events_processed
        if self.sanitizer is not None:
            extras["replay_digest"] = self.sanitizer.hexdigest()
        if telemetry is not None and telemetry.enabled:
            telemetry.finalize(sim.now)
            # The exported run header names the run, not its sampling.
            header = self.run_info()
            del header["rate_interval"]
            telemetry.run_info.update(header)
            if gmp is not None:
                extras.update(self._reference_extras())
        if self.trace is not None:
            extras["trace"] = self.trace
        if self.stream is not None:
            # After telemetry.finalize and the run_info update, so the
            # streamed header and snapshot block carry exactly what the
            # end-of-run JSONL export would.
            self.stream.close(sim.now)
        if self.health is not None:
            extras["health"] = self.health.finalize(sim.now)

        result = self._measure(extras)
        flow_rates = result.flow_rates
        flow_delays: dict[int, float] = {}
        for flow_id, flow in sorted(self.all_flows.items()):
            sink = self.stacks[flow.destination]
            total = sink.delivered.get(flow_id, 0)
            flow_delays[flow_id] = (
                sink.delay_sum.get(flow_id, 0.0) / total if total else float("nan")
            )
        extras["flow_delays"] = flow_delays
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
            extras["limit_history"] = {
                flow_id: gmp.limit_history(flow_id)
                for flow_id in sorted(self.all_flows)
            }
            extras["requests_issued"] = len(gmp.requests_issued)
            extras["violations_found"] = gmp.violations_found
            extras["control_broadcast_cost"] = (
                gmp.scope.link_state_broadcasts + gmp.scope.notice_broadcasts
            )
            extras["control_requests_dropped"] = gmp.control_requests_dropped

        if self.injector is not None:
            extras["faults"] = list(self.injector.fault_log)
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


def run_scenario(
    scenario: Scenario,
    *,
    protocol: str = "gmp",
    substrate: str = "dcf",
    duration: float = 60.0,
    warmup: float | None = None,
    seed: int = 0,
    gmp_config: GmpConfig | None = None,
    phy: PhyProfile = DEFAULT_PHY,
    dcf_config: DcfConfig | None = None,
    capacity_pps: float | None = None,
    fluid_round: float = 0.02,
    traffic: str = "cbr",
    routing: str = "link_state",
    faults: FaultSchedule | None = None,
    churn: ChurnSpec | None = None,
    rate_interval: float | None = None,
    check_invariants: bool | None = None,
    max_events: int | None = None,
    stall_limit: int | None = 1_000_000,
    wall_deadline: float | None = None,
    telemetry: Telemetry | None = None,
    trace: TraceCollector | None = None,
    sanitizer: ReplaySanitizer | None = None,
    stream: Any = None,
    health: Any = None,
    control: Any = None,
    pace: float | None = None,
) -> RunResult:
    """Simulate one session and measure end-to-end flow rates.

    Args:
        scenario: topology + flows (see :mod:`repro.scenarios.figures`).
        protocol: one of :data:`PROTOCOLS`.
        substrate: "dcf" (packet-level 802.11) or "fluid".
        duration: simulated seconds.
        warmup: seconds excluded from rate measurement; defaults to
            ``duration / 3``.
        seed: RNG seed (runs are fully deterministic given it).
        gmp_config: GMP parameters (default: the paper's).
        phy: PHY profile (timing + capacity estimates).
        dcf_config: DCF tunables (EIFS ablation etc.).
        capacity_pps: clique capacity for the fluid substrate and the
            2PP allocation; defaults to the PHY saturation estimate.
        fluid_round: fluid substrate round interval.
        traffic: arrival process at the sources — "cbr" (the paper's
            workload), "poisson", "onoff", or "pareto-onoff"
            (heavy-tailed phase switching).
        routing: how routing tables are built — "link_state" (default),
            "distance_vector", or "geographic" (GPSR-style greedy).
        faults: optional fault schedule (node churn, link degradation,
            control-plane loss) armed on the assembled stack; the
            applied-fault log lands in ``extras["faults"]``.
        churn: optional dynamic-workload spec
            (:class:`~repro.churn.spec.ChurnSpec`): flows arrive and
            depart mid-run, driven by deterministic RNG streams.  The
            scenario's static flow set is copied, not mutated, so the
            same :class:`Scenario` object replays identically.  The
            :class:`~repro.churn.engine.ChurnReport` lands in
            ``extras["churn"]``; per-flow (arrival, departure) windows
            in ``RunResult.flow_lifetimes``; per-arrival convergence
            times in ``extras["per_arrival_convergence"]``.  Not
            supported with the static 2PP allocation.
        rate_interval: if set, record per-flow delivered rates over
            consecutive windows of this many seconds (the time series
            the resilience metrics consume).  A fault or churn run
            defaults it to 1.0 s (the whole run, when that is shorter).
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
            instance.  When enabled, the whole stack instruments itself
            through it; the same instance (finalized) lands in
            ``extras["telemetry"]`` and, for GMP runs, the centralized
            maxmin reference rates land in ``extras["maxmin_reference"]``
            for the convergence inspector.  Telemetry is passive — it
            never schedules events — so enabling it does not change
            what the simulation does.
        trace: optional :class:`~repro.sim.trace.TraceCollector`
            attached to the kernel; stored in ``extras["trace"]``.
        sanitizer: optional :class:`~repro.sim.replay.ReplaySanitizer`
            attached to the kernel.  Every dispatched event is folded
            into its rolling digest (passively — observation never
            schedules); the final digest lands in
            ``extras["replay_digest"]``.  :func:`replay_check` runs a
            scenario twice and diffs two sanitizers.
        stream: optional streaming publisher (duck-typed to avoid a
            layering cycle — :class:`repro.obs.stream.StreamPublisher`
            in practice; it must wrap the same ``telemetry`` instance).
            Bound to the kernel as a passive run monitor before the
            run and closed after telemetry is finalized, so killed or
            wedged runs leave their telemetry in the stream's sinks.
        health: optional in-run health monitor (duck-typed —
            :class:`repro.obs.health.HealthMonitor` in practice).
            Ticked by the kernel on its own cadence, it runs an
            event-rate stall probe and the anomaly detectors up to the
            current time over a partial result snapshot; the final
            :class:`~repro.obs.health.AlertLog` lands in
            ``extras["health"]``.  Neither hook schedules events or
            draws randomness: the dispatched event sequence (and the
            replay digest) is identical with or without them.
        control: optional service-mode controller (duck-typed —
            :class:`repro.obs.serve.ServeController` in practice).  The
            runner assembles a command-driven churn engine and a live
            fault injector, which (plus live measurement and the
            explainer inputs) the run's :class:`Session` exposes, and calls
            ``control.bind(sim, session)`` before the run.  The
            controller is a kernel run monitor: commands it applies at
            monitor ticks (flow arrivals/departures, faults, stop) *do*
            steer the simulation — but only from tick context, so an
            identical command sequence applied at identical tick times
            reproduces the identical run (the replay story of
            :mod:`repro.obs.serve`).  The engine's report lands in
            ``extras["control_report"]``; a fault or control run
            defaults ``rate_interval`` to 1.0 s.  Not supported with
            the static 2PP allocation.
        pace: ceiling on simulated seconds per wall-clock second
            (forwarded to :meth:`~repro.sim.kernel.Simulator.run`);
            ``None`` is free-running.  Pacing only sleeps — it never
            changes what the simulation does.

    Raises:
        ConfigError: on unknown protocol/substrate names, inconsistent
            durations, or a bad ``rate_interval``.
        FaultError: if ``faults`` targets unknown nodes or needs hooks
            the substrate lacks.
        InvariantError: if the end-of-run audit fails.
        SimulationError: when a kernel watchdog trips.
    """
    # Session's fields are exactly these parameters, by name.
    return Session(**locals()).run()


def replay_check(
    scenario: Scenario,
    *,
    journal_limit: int | None = None,
    **kwargs: object,
) -> tuple[ReplayReport, RunResult, RunResult]:
    """Run ``scenario`` twice with identical arguments and diff the
    replay digests.

    A matched report proves the two runs dispatched the identical
    event sequence; a mismatch names the first divergent event (index,
    timestamp, tag) — the symptom of an unseeded draw, a wall-clock
    read, or hash-order iteration feeding the schedule.

    Args:
        scenario: the scenario to run (twice).
        journal_limit: per-run event journal cap (None: sanitizer
            default).
        **kwargs: forwarded verbatim to both :func:`run_scenario`
            calls.  ``telemetry``/``trace`` instances accumulate per
            run, so pass factories' products only when you know they
            tolerate two runs; plain deterministic kwargs (protocol,
            substrate, duration, seed, ...) are the intended use.

    Returns:
        ``(report, first_result, second_result)``.
    """
    if "sanitizer" in kwargs:
        raise ConfigError("replay_check manages its own sanitizers")
    limits = (
        {"journal_limit": journal_limit} if journal_limit is not None else {}
    )
    first = ReplaySanitizer(**limits)
    second = ReplaySanitizer(**limits)
    result_first = run_scenario(scenario, sanitizer=first, **kwargs)  # type: ignore[arg-type]
    result_second = run_scenario(scenario, sanitizer=second, **kwargs)  # type: ignore[arg-type]
    return diff_sanitizers(first, second), result_first, result_second
