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

from typing import Any

from repro.analysis.maxmin_reference import weighted_maxmin_rates
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
from repro.topology.cliques import maximal_cliques
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


class LiveRunHandle:
    """The live-control surface of one in-flight :func:`run_scenario`.

    Built by the runner when a ``control`` monitor is attached and
    handed to it via ``control.bind(sim, handle)``.  Mutating methods
    (:meth:`add_flow`, :meth:`remove_flow`, :meth:`inject_fault`,
    :meth:`stop`) steer the simulation and must only be called from
    kernel context — a callback or a monitor tick on the simulation
    thread; the service layer guarantees that by queueing commands and
    applying them at ticks.  Read methods are safe to call from other
    threads (they only read live state), with the usual monitoring
    caveat that a concurrent mutation can surface as a transient
    ``RuntimeError`` the reader should retry.
    """

    def __init__(
        self,
        *,
        sim: Simulator,
        scenario: Scenario,
        protocol: str,
        substrate: str,
        duration: float,
        warmup: float,
        seed: int,
        rate_interval: float | None,
        flows: FlowSet,
        all_flows: dict[int, Flow],
        stacks: dict[int, NodeStack],
        routes: Any,
        engine: ChurnEngine,
        injector: FaultInjector,
        gmp: GmpProtocol | None,
        telemetry: Telemetry | None,
        stream: Any,
        health: Any,
        capacity_pps: float,
        cliques: Any,
        warm_counts: dict[int, int],
        interval_rates: dict[int, list[float]],
        interval_bounds: list[float],
    ) -> None:
        self.sim = sim
        self.scenario = scenario
        self.protocol = protocol
        self.substrate = substrate
        self.duration = duration
        self.warmup = warmup
        self.seed = seed
        self.rate_interval = rate_interval
        self.flows = flows
        self.all_flows = all_flows
        self.stacks = stacks
        self.routes = routes
        self.engine = engine
        self.injector = injector
        self.gmp = gmp
        self.telemetry = telemetry
        self.stream = stream
        self.health = health
        self.capacity_pps = capacity_pps
        self._cliques = cliques  # zero-arg callable (lazy shared cache)
        self._warm_counts = warm_counts
        self._interval_rates = interval_rates
        self._interval_bounds = interval_bounds
        self._maxmin_cache: dict[str, Any] = {}

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

    # --- live measurement -------------------------------------------------------

    def live_flow_rates(self) -> dict[int, float]:
        """Delivered rate per flow measured exactly like the end-of-run
        rates, but over each flow's lifetime *so far*."""
        now = self.sim.now
        lifetimes = self.engine.live_lifetimes()
        rates: dict[int, float] = {}
        for flow_id in sorted(self.all_flows):
            flow = self.all_flows[flow_id]
            sink = self.stacks[flow.destination]
            total = sink.delivered.get(flow_id, 0)
            start, end = lifetimes.get(flow_id, (0.0, now))
            end = min(end, now)
            if start < self.warmup < end:
                delivered = total - self._warm_counts.get(flow_id, 0)
                window = end - self.warmup
            else:
                delivered = total
                window = end - start
            rates[flow_id] = delivered / window if window > 0 else 0.0
        return rates

    def flows_summary(self) -> list[dict[str, Any]]:
        """One dict per flow that ever existed this run (live flows are
        flagged), with live measured rate and the GMP rate limit."""
        rates = self.live_flow_rates()
        lifetimes = self.engine.live_lifetimes()
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

    def partial_result(self) -> RunResult:
        """A mid-run :class:`RunResult` carrying everything the
        per-flow explainer (:func:`repro.fidelity.explain.explain_flow`)
        needs: live rates, the maxmin solution over the *current* flow
        set, cliques, capacity, paths, weights, and rate limits."""
        extras: dict[str, Any] = {}
        if self.telemetry is not None and self.telemetry.enabled:
            extras["telemetry"] = self.telemetry
        extras["flow_paths"] = {
            flow_id: list(
                self.routes.path_links(flow.source, flow.destination)
            )
            for flow_id, flow in sorted(self.all_flows.items())
        }
        extras["flow_weights"] = {
            flow_id: flow.weight
            for flow_id, flow in sorted(self.all_flows.items())
        }
        if self.gmp is not None:
            key = tuple(sorted(flow.flow_id for flow in self.flows))
            if self._maxmin_cache.get("key") != key:
                solution = weighted_maxmin_rates(
                    self.flows, self.routes, self._cliques(), self.capacity_pps
                )
                self._maxmin_cache["key"] = key
                self._maxmin_cache["solution"] = solution
            extras["maxmin_solution"] = self._maxmin_cache["solution"]
            extras["maxmin_reference"] = dict(
                self._maxmin_cache["solution"].rates
            )
            extras["rate_limits"] = self.gmp.rate_limits()
        extras["cliques"] = self._cliques()
        extras["capacity_pps"] = self.capacity_pps
        return RunResult(
            scenario=self.scenario.name,
            protocol=self.protocol,
            substrate=self.substrate,
            duration=self.duration,
            warmup=self.warmup,
            seed=self.seed,
            flow_rates=self.live_flow_rates(),
            hop_counts={
                flow_id: self.routes.hop_count(flow.source, flow.destination)
                for flow_id, flow in sorted(self.all_flows.items())
            },
            effective_throughput=0.0,
            rate_interval=self.rate_interval,
            interval_rates=self._interval_rates,
            interval_bounds=self._interval_bounds,
            flow_lifetimes=self.engine.live_lifetimes(),
            extras=extras,
        )

    # --- mutations (kernel context only) ----------------------------------------

    def next_flow_id(self) -> int:
        """The smallest id never used by any flow of this run."""
        return max(self.all_flows, default=0) + 1

    def add_flow(
        self,
        source: int,
        destination: int,
        *,
        flow_id: int | None = None,
        weight: float = 1.0,
        desired_rate: float = 800.0,
        packet_bytes: int = 1024,
    ) -> Flow:
        """Graft a new flow into the run right now; returns the flow
        (with its assigned id when ``flow_id`` was omitted)."""
        if flow_id is None:
            flow_id = self.next_flow_id()
        if flow_id in self.all_flows:
            raise ConfigError(
                f"flow id {flow_id} was already used this run"
            )
        flow = Flow(
            flow_id=flow_id,
            source=source,
            destination=destination,
            weight=weight,
            desired_rate=desired_rate,
            packet_bytes=packet_bytes,
        )
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
            defaults it to 1.0 s.
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
            Ticked by the kernel on its own cadence, it evaluates
            liveness probes and the anomaly detectors over a partial
            result snapshot mid-run; the final
            :class:`~repro.obs.health.AlertLog` lands in
            ``extras["health"]``.  Neither hook schedules events or
            draws randomness: the dispatched event sequence (and the
            replay digest) is identical with or without them.
        control: optional service-mode controller (duck-typed —
            :class:`repro.obs.serve.ServeController` in practice).  The
            runner assembles a command-driven churn engine and a live
            fault injector, wraps them (plus live measurement and the
            explainer inputs) in a :class:`LiveRunHandle`, and calls
            ``control.bind(sim, handle)`` before the run.  The
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
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}; pick from {PROTOCOLS}")
    if traffic not in TRAFFIC_MODELS:
        raise ConfigError(
            f"unknown traffic model {traffic!r}; pick from {tuple(TRAFFIC_MODELS)}"
        )
    if routing not in ROUTING_PROTOCOLS:
        raise ConfigError(
            f"unknown routing {routing!r}; pick from {tuple(ROUTING_PROTOCOLS)}"
        )
    if substrate not in SUBSTRATES:
        raise ConfigError(f"unknown substrate {substrate!r}; pick from {SUBSTRATES}")
    if duration <= 0:
        raise ConfigError(f"duration must be positive: {duration}")
    if warmup is None:
        warmup = duration / 3.0
    if not 0 <= warmup < duration:
        raise ConfigError(f"warmup {warmup} must lie within [0, {duration})")
    if (churn is not None or control is not None) and protocol == "2pp":
        raise ConfigError(
            "2pp enforces a static precomputed allocation; it cannot "
            "take a dynamic workload (churn or live control)"
        )
    if rate_interval is None and (
        faults is not None or churn is not None or control is not None
    ):
        rate_interval = 1.0
    if rate_interval is not None and not 0 < rate_interval <= duration:
        raise ConfigError(
            f"rate_interval {rate_interval} must lie within (0, {duration}]"
        )
    if check_invariants is None:
        check_invariants = substrate == "fluid"

    gmp_config = gmp_config or GmpConfig()
    topology = scenario.topology
    flows = scenario.flows
    if churn is not None or control is not None:
        # The engine mutates the flow set as flows come and go; work on
        # a copy so the Scenario object itself replays byte-identically
        # (replay_check runs it twice).
        flows = FlowSet(list(scenario.flows))
    routes = ROUTING_PROTOCOLS[routing](topology)
    assert_acyclic(routes, flows.destinations())
    if churn is not None or control is not None:
        # Any routable node can become a dynamic flow's destination.
        assert_acyclic(routes, sorted(topology.node_ids))
    # Every flow that ever existed this run, static or churned; the
    # measurement/sampling paths read it because departed flows leave
    # the live set.
    all_flows: dict[int, Flow] = {flow.flow_id: flow for flow in flows}

    sim = Simulator(
        seed=seed, trace=trace, telemetry=telemetry, sanitizer=sanitizer
    )
    if capacity_pps is None:
        packet_bytes = max(flow.packet_bytes for flow in flows)
        capacity_pps = phy.saturation_rate(packet_bytes, contenders=3)

    # The contention graph and its maximal-clique enumeration are shared
    # by every consumer of the clique-capacity model (fluid MAC, GMP,
    # 2PP, maxmin reference) and computed lazily at most once per run.
    contention_cache: list = []

    def topology_contention():
        if not contention_cache:
            graph = ContentionGraph(topology)
            contention_cache.append((graph, maximal_cliques(graph)))
        return contention_cache[0]

    def topology_cliques():
        return topology_contention()[1]

    if substrate == "dcf":
        mac = DcfMac(sim, topology, phy=phy, config=dcf_config or DcfConfig())
    else:
        mac = FluidMac(
            sim,
            topology,
            round_interval=fluid_round,
            capacity_pps=capacity_pps,
            rate_caps=scenario.rate_caps,
            cliques=topology_cliques(),
        )

    stacks: dict[int, NodeStack] = {}

    def oracle_lookup(neighbor: int, dest: int) -> bool:
        buffer = stacks[neighbor].buffer
        return buffer.has_free(dest)  # type: ignore[attr-defined]

    def make_gate():
        if substrate == "fluid":
            return OracleGate(oracle_lookup)
        return OverhearingGate(stale_timeout=gmp_config.stale_timeout)

    def make_buffer(node_id: int) -> BufferPolicy:
        def next_hop(dest: int, node_id=node_id) -> int:
            return routes.next_hop(node_id, dest)

        if protocol == "802.11":
            return plain_dcf_buffer(node_id, next_hop)
        if protocol == "2pp":
            return PerFlowBuffer(node_id, next_hop, per_flow_capacity=10)
        if protocol == "backpressure-shared":
            return SharedBackpressureBuffer(
                node_id, next_hop, make_gate(), capacity=gmp_config.queue_capacity
            )
        # gmp and backpressure-perdest
        return PerDestinationBuffer(
            node_id,
            next_hop,
            make_gate(),
            per_dest_capacity=gmp_config.queue_capacity,
            telemetry=telemetry,
        )

    for node_id in topology.node_ids:
        stack = NodeStack(
            sim,
            node_id,
            make_buffer(node_id),
            mac,
            stale_retry=gmp_config.stale_timeout,
        )
        stack.attach()
        stacks[node_id] = stack

    gmp: GmpProtocol | None = None
    if protocol == "gmp":
        graph, cliques = topology_contention()
        gmp = GmpProtocol(
            sim, topology, routes, flows, mac, stacks,
            config=gmp_config, graph=graph, cliques=cliques,
        )
        for stack in stacks.values():
            stack.observer = gmp.observer()

    sources: dict[int, TrafficSource] = {}
    source_cls = TRAFFIC_MODELS[traffic]
    for flow in flows:
        stack = stacks[flow.source]
        on_generate = gmp.stamp if gmp is not None else None
        source = source_cls(sim, flow, stack.admit_local, on_generate=on_generate)
        sources[flow.flow_id] = source
        if gmp is not None:
            gmp.register_source(flow.flow_id, source)

    extras: dict[str, object] = {}
    if protocol == "2pp":
        allocation = two_phase_rates(flows, routes, topology_cliques(), capacity_pps)
        for flow_id, rate in allocation.rates.items():
            sources[flow_id].set_rate_limit(max(rate, 1.0))
        extras["two_phase"] = allocation

    injector: FaultInjector | None = None
    if faults is not None or control is not None:
        # A controlled run gets an injector even with no schedule: the
        # control plane applies faults live through it.
        schedule = faults if faults is not None else FaultSchedule()
        if faults is not None:
            faults.validate_within(duration)
        injector = FaultInjector(
            sim, schedule, mac=mac, stacks=stacks, sources=sources, gmp=gmp
        )
        if faults is not None:
            injector.arm()

    def make_dynamic_source(model: str):
        def factory(flow: Flow) -> TrafficSource:
            stack = stacks[flow.source]
            on_generate = gmp.stamp if gmp is not None else None
            return TRAFFIC_MODELS[model](
                sim, flow, stack.admit_local, on_generate=on_generate
            )

        return factory

    churn_engine: ChurnEngine | None = None
    if churn is not None:
        churn_engine = ChurnEngine(
            sim,
            churn,
            routes=routes,
            flows=flows,
            all_flows=all_flows,
            stacks=stacks,
            sources=sources,
            make_source=make_dynamic_source(churn.traffic),
            gmp=gmp,
            period=gmp_config.period,
        )
        churn_engine.arm(duration)

    # Live-control flow arrivals/departures go through the same engine
    # machinery as trace churn; with no churn spec, a command-driven
    # engine (spec=None) carries them alone.
    dynamic_engine: ChurnEngine | None = churn_engine
    if control is not None and dynamic_engine is None:
        dynamic_engine = ChurnEngine(
            sim,
            None,
            routes=routes,
            flows=flows,
            all_flows=all_flows,
            stacks=stacks,
            sources=sources,
            make_source=make_dynamic_source(traffic),
            gmp=gmp,
            period=gmp_config.period,
            duration=duration,
        )

    mac.start()
    if gmp is not None:
        gmp.start()
    jitter = sim.rng.stream("runner.start_jitter")
    for flow_id in sorted(sources):
        flow = flows.get(flow_id)
        offset = float(jitter.uniform(0.0, 1.0 / flow.desired_rate))
        sources[flow_id].start(offset=offset)

    # Snapshot deliveries at the end of warmup, measure until the end.
    warm_counts: dict[int, int] = {}

    def snapshot() -> None:
        for flow_id, flow in all_flows.items():
            sink = stacks[flow.destination]
            warm_counts[flow_id] = sink.delivered.get(flow_id, 0)

    sim.call_at(warmup, snapshot, tag="runner.warmup")

    # Per-interval delivered-rate series (fault-transient resolution).
    # Each sample divides by the *actual* window width, so the final
    # partial window (duration not a multiple of rate_interval) is not
    # understated; the window edges land in ``interval_bounds``.
    interval_rates: dict[int, list[float]] = {}
    interval_bounds: list[float] = []
    if rate_interval is not None:
        interval_rates = {flow_id: [] for flow_id in all_flows}
        counts: dict[int, int] = {flow_id: 0 for flow_id in all_flows}
        sample_state = {"time": 0.0}

        def sample() -> None:
            now = sim.now
            elapsed = now - sample_state["time"]
            if elapsed <= 0:
                return
            emitted = len(interval_bounds)
            for flow_id in sorted(all_flows):
                flow = all_flows[flow_id]
                series = interval_rates.setdefault(flow_id, [])
                if len(series) < emitted:
                    # The flow arrived mid-run: zero-pad the windows
                    # from before its arrival so every series aligns
                    # with ``interval_bounds``.
                    series.extend([0.0] * (emitted - len(series)))
                sink = stacks[flow.destination]
                total = sink.delivered.get(flow_id, 0)
                delta = total - counts.get(flow_id, 0)
                counts[flow_id] = total
                series.append(delta / elapsed)
            sample_state["time"] = now
            interval_bounds.append(now)

        # Multiply instead of accumulating so float drift cannot merge
        # or split the final window.
        index = 1
        while index * rate_interval < duration - 1e-9:
            sim.call_at(index * rate_interval, sample, tag="runner.sample")
            index += 1
        sim.call_at(duration, sample, tag="runner.sample")

    if stream is not None:
        stream.bind(sim)
    if health is not None:
        # The monitor scans a *partial* result each tick.  Everything
        # the snapshot touches is plain live state — no RNG, no event
        # scheduling — so health checks cannot perturb the run.
        reference_cache: dict[str, Any] = {}

        def health_snapshot() -> RunResult:
            snapshot_extras: dict[str, Any] = {}
            if telemetry is not None and telemetry.enabled:
                snapshot_extras["telemetry"] = telemetry
            if gmp is not None:
                key = tuple(sorted(flow.flow_id for flow in flows))
                if reference_cache.get("key") != key:
                    reference_cache["key"] = key
                    reference_cache["rates"] = dict(
                        weighted_maxmin_rates(
                            flows, routes, topology_cliques(), capacity_pps
                        ).rates
                    )
                snapshot_extras["maxmin_reference"] = reference_cache["rates"]
            # duration is the *planned* duration, not sim.now: the
            # detectors derive their warmup cutoffs and window grids
            # from it, and a fixed grid keeps mid-run findings a prefix
            # of the end-of-run scan instead of a drifting-window
            # superset (which false-positives on clean runs).
            return RunResult(
                scenario=scenario.name,
                protocol=protocol,
                substrate=substrate,
                duration=duration,
                warmup=warmup,
                seed=seed,
                flow_rates={},
                hop_counts={},
                effective_throughput=0.0,
                rate_interval=rate_interval,
                interval_rates=interval_rates,
                interval_bounds=interval_bounds,
                flow_lifetimes=(
                    dynamic_engine.live_lifetimes()
                    if dynamic_engine is not None
                    else {}
                ),
                extras=snapshot_extras,
            )

        health.bind(sim, health_snapshot)

    if control is not None:
        handle = LiveRunHandle(
            sim=sim,
            scenario=scenario,
            protocol=protocol,
            substrate=substrate,
            duration=duration,
            warmup=warmup,
            seed=seed,
            rate_interval=rate_interval,
            flows=flows,
            all_flows=all_flows,
            stacks=stacks,
            routes=routes,
            engine=dynamic_engine,
            injector=injector,
            gmp=gmp,
            telemetry=telemetry,
            stream=stream,
            health=health,
            capacity_pps=capacity_pps,
            cliques=topology_cliques,
            warm_counts=warm_counts,
            interval_rates=interval_rates,
            interval_bounds=interval_bounds,
        )
        control.bind(sim, handle)

    sim.run(
        until=duration,
        max_events=max_events,
        stall_limit=stall_limit,
        wall_deadline=wall_deadline,
        pace=pace,
    )
    if control is not None:
        finalize_control = getattr(control, "finalize", None)
        if finalize_control is not None:
            finalize_control(sim.now)

    extras["events_processed"] = sim.events_processed
    if sanitizer is not None:
        extras["replay_digest"] = sanitizer.hexdigest()
    if telemetry is not None and telemetry.enabled:
        telemetry.finalize(sim.now)
        telemetry.run_info.update(
            {
                "scenario": scenario.name,
                "protocol": protocol,
                "substrate": substrate,
                "duration": duration,
                "warmup": warmup,
                "seed": seed,
            }
        )
        extras["telemetry"] = telemetry
        if gmp is not None:
            reference = weighted_maxmin_rates(
                flows,
                routes,
                topology_cliques(),
                capacity_pps,
            )
            extras["maxmin_reference"] = dict(reference.rates)
            # The full solution (bottleneck clique per flow, clique
            # usage) plus the clique list and capacity feed the
            # per-flow rate explainer (repro.fidelity.explain).
            extras["maxmin_solution"] = reference
            extras["cliques"] = topology_cliques()
            extras["capacity_pps"] = capacity_pps
    if trace is not None:
        extras["trace"] = trace
    if stream is not None:
        # After telemetry.finalize and the run_info update, so the
        # streamed header and snapshot block carry exactly what the
        # end-of-run JSONL export would.
        stream.close(sim.now)
    if health is not None:
        extras["health"] = health.finalize(sim.now)

    churn_report = (
        dynamic_engine.finalize() if dynamic_engine is not None else None
    )
    lifetimes: dict[int, tuple[float, float]] = (
        dict(churn_report.lifetimes) if churn_report is not None else {}
    )

    flow_rates: dict[int, float] = {}
    hop_counts: dict[int, int] = {}
    flow_delays: dict[int, float] = {}
    flow_paths: dict[int, list] = {}
    for flow_id in sorted(all_flows):
        flow = all_flows[flow_id]
        flow_paths[flow_id] = list(
            routes.path_links(flow.source, flow.destination)
        )
        sink = stacks[flow.destination]
        total = sink.delivered.get(flow_id, 0)
        # Static flows measure over [warmup, duration] as always; a
        # churned flow measures over its own lifetime (no warmup
        # subtraction once it arrived after warmup, no post-departure
        # window once it left early).
        start, end = lifetimes.get(flow_id, (0.0, duration))
        if start < warmup < end:
            delivered = total - warm_counts.get(flow_id, 0)
            window = end - warmup
        else:
            delivered = total
            window = end - start
        flow_rates[flow_id] = delivered / window if window > 0 else 0.0
        hop_counts[flow_id] = routes.hop_count(flow.source, flow.destination)
        flow_delays[flow_id] = (
            sink.delay_sum.get(flow_id, 0.0) / total if total else float("nan")
        )
    extras["flow_delays"] = flow_delays
    extras["flow_paths"] = flow_paths
    extras["flow_weights"] = {
        flow_id: flow.weight for flow_id, flow in sorted(all_flows.items())
    }
    if churn_report is not None:
        if churn is not None:
            extras["churn"] = churn_report
        else:
            extras["control_report"] = churn_report
        if rate_interval and interval_rates:
            # A flow grafted moments before the run ended (e.g. via a
            # served session's shutdown) may have no completed
            # measurement window; it cannot be convergence-scored.
            arrivals_only = {
                flow_id: life
                for flow_id, life in lifetimes.items()
                if life[0] > 0.0 and flow_id in interval_rates
            }
            extras["per_arrival_convergence"] = per_arrival_convergence(
                interval_rates,
                rate_interval,
                lifetimes=arrivals_only,
                bounds=interval_bounds,
            )

    buffer_drops = sum(stack.buffer.drops for stack in stacks.values())
    mac_drops = sum(stack.mac_drops for stack in stacks.values())

    if gmp is not None:
        extras["rate_limits"] = gmp.rate_limits()
        extras["limit_history"] = {
            flow_id: gmp.limit_history(flow_id) for flow_id in sorted(all_flows)
        }
        extras["requests_issued"] = len(gmp.requests_issued)
        extras["violations_found"] = gmp.violations_found
        extras["control_broadcast_cost"] = (
            gmp.scope.link_state_broadcasts + gmp.scope.notice_broadcasts
        )
        extras["control_requests_dropped"] = gmp.control_requests_dropped

    if injector is not None:
        extras["faults"] = list(injector.fault_log)
        extras["crash_losses"] = {
            node_id: dict(stack.crash_losses)
            for node_id, stack in stacks.items()
            if stack.crash_losses
        }

    report = audit_run(
        flows=flows,
        sources=sources,
        stacks=stacks,
        mac=mac,
        rates=flow_rates,
        strict=check_invariants,
    )
    extras["invariants"] = report
    if check_invariants:
        report.check()

    measured_flows = (
        FlowSet(list(all_flows.values()))
        if churn is not None or control is not None
        else flows
    )
    return RunResult(
        scenario=scenario.name,
        protocol=protocol,
        substrate=substrate,
        duration=duration,
        warmup=warmup,
        seed=seed,
        flow_rates=flow_rates,
        hop_counts=hop_counts,
        effective_throughput=effective_network_throughput(
            flow_rates, measured_flows, routes
        ),
        buffer_drops=buffer_drops,
        mac_drops=mac_drops,
        rate_interval=rate_interval,
        interval_rates=interval_rates,
        interval_bounds=interval_bounds,
        flow_lifetimes=lifetimes,
        extras=extras,
    )


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
