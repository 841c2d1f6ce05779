"""The churn engine: drive a trace against a live scenario.

The engine is armed by the scenario runner after the full stack is
assembled (sources, fault injector, protocol).  It expands the spec
into a trace and schedules one kernel event per arrival/departure:

* **arrival** — build the traffic source (through a runner-supplied
  factory so churned flows get the same admit/on-generate wiring as
  static ones), register the flow with GMP (grand-virtual-network
  graft + source registration) or plainly with the flow set, and start
  offering packets.  A flow arriving at a crashed node starts paused;
  the fault injector resumes it on recovery because it shares the
  engine's ``sources`` dict.
* **departure** — permanently stop the source, tear the flow out of
  GMP, and run the post-departure state audit.  Any residue the audit
  reports is collected into the :class:`ChurnReport` — the
  ``gmp_residue`` fuzz oracle fails on a nonempty collection.

Departed sources stay in the shared ``sources`` dict with frozen
counters: the end-of-run packet-conservation audit seeds its ledgers
from that dict, so a departed flow's packets remain accounted for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.churn.spec import ChurnSpec, ChurnTrace, FlowArrival, build_trace
from repro.core.protocol import GmpProtocol
from repro.errors import ChurnError
from repro.flows.flow import Flow, FlowSet
from repro.flows.traffic import TrafficSource
from repro.routing.table import RouteSet
from repro.sim.kernel import Simulator
from repro.stack import NodeStack


@dataclass
class ChurnReport:
    """What the churn engine did during one run.

    Attributes:
        spec_text: the compact textual form of the churn spec.
        arrivals: flows that actually joined mid-run.
        departures: flows that left before the run ended.
        skipped_at_cap: arrivals suppressed by ``max_flows``.
        lifetimes: flow id → (arrival time, departure-or-end time) for
            every flow the engine touched (churned arrivals, plus
            static flows it retired under ``include_static``).
        residues: flow id → post-departure audit findings; empty for a
            clean run, nonempty exactly when GMP state leaked.
    """

    spec_text: str
    arrivals: int = 0
    departures: int = 0
    skipped_at_cap: int = 0
    lifetimes: dict[int, tuple[float, float]] = field(default_factory=dict)
    residues: dict[int, list[str]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when no departure left state behind."""
        return not self.residues


class ChurnEngine:
    """Schedules and executes one churn trace on an assembled stack.

    Args:
        sim: simulation kernel.
        spec: the churn process, or ``None`` for a command-driven
            engine (service mode): no trace is built and :meth:`arm`
            is forbidden; arrivals/departures come exclusively through
            :meth:`inject_arrival` / :meth:`inject_departure`.
        routes: routing tables (trace candidate pairs).
        flows: the run's *live* flow set (shared with GMP).
        all_flows: registry of every flow that ever existed this run;
            the runner measures/samples from it because departed flows
            leave the live set.
        stacks: node stacks by id (crash-awareness at arrival).
        sources: the run's traffic sources by flow id — the same dict
            the fault injector holds, so recovery resumes churned
            sources too.  The engine only ever adds entries.
        make_source: factory building a started-but-unstarted source
            for a churned flow with the run's admit/on-generate wiring.
        gmp: the GMP engine when the run uses it; None for baselines.
        period: GMP measurement period (adversary phase lock).
    """

    def __init__(
        self,
        sim: Simulator,
        spec: ChurnSpec | None,
        *,
        routes: RouteSet,
        flows: FlowSet,
        all_flows: dict[int, Flow],
        stacks: dict[int, NodeStack],
        sources: dict[int, TrafficSource],
        make_source: Callable[[Flow], TrafficSource],
        gmp: GmpProtocol | None = None,
        period: float = 2.0,
        duration: float = 0.0,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.routes = routes
        self.flows = flows
        self.all_flows = all_flows
        self.stacks = stacks
        self.sources = sources
        self.make_source = make_source
        self.gmp = gmp
        self.period = period
        self.trace: ChurnTrace | None = None
        self._duration = duration
        self._arrivals = 0
        self._departures = 0
        self._lifetimes: dict[int, list[float]] = {}
        self._residues: dict[int, list[str]] = {}

    def arm(self, duration: float) -> ChurnTrace:
        """Build the trace for ``duration`` and schedule its events.

        Raises:
            ChurnError: when armed twice, when the engine is
                command-driven (no spec), or the spec cannot produce a
                trace on this topology.
        """
        if self.spec is None:
            raise ChurnError("command-driven churn engine has no trace to arm")
        if self.trace is not None:
            raise ChurnError("churn engine already armed")
        self._duration = duration
        self.trace = build_trace(
            self.spec,
            routes=self.routes,
            flows=self.flows,
            duration=duration,
            rng=self.sim.rng,
            period=self.period,
        )
        for event in self.trace.events:
            if isinstance(event, FlowArrival):
                self.sim.call_at(
                    event.at,
                    lambda flow=event.flow: self.inject_arrival(flow),
                    tag="churn.arrive",
                )
            else:
                self.sim.call_at(
                    event.at,
                    lambda flow_id=event.flow_id: self.inject_departure(flow_id),
                    tag="churn.depart",
                )
        return self.trace

    # --- event handlers ---------------------------------------------------------
    # Public on purpose: the service-mode control plane grafts live
    # flow arrivals/departures through the exact same code path the
    # churn trace uses, so command-driven and trace-driven flows are
    # indistinguishable to GMP, the audits, and the measurements.

    def inject_arrival(self, flow: Flow) -> None:
        """Graft ``flow`` into the live run right now.

        Raises:
            ChurnError: when the flow id is already live or the flow's
                endpoints have no stack in this scenario.
        """
        if flow.flow_id in self.sources:
            raise ChurnError(f"flow {flow.flow_id} already exists in this run")
        if flow.source not in self.stacks or flow.destination not in self.stacks:
            raise ChurnError(
                f"flow {flow.flow_id} endpoints {flow.source}->{flow.destination} "
                "are not nodes of this scenario"
            )
        source = self.make_source(flow)
        if self.gmp is not None:
            self.gmp.add_flow(flow, source)
        else:
            self.flows.add(flow)
        self.sources[flow.flow_id] = source
        self.all_flows[flow.flow_id] = flow
        self._lifetimes[flow.flow_id] = [self.sim.now, self._duration]
        self._arrivals += 1
        jitter = self.sim.rng.stream("churn.start_jitter")
        source.start(offset=float(jitter.uniform(0.0, 1.0 / flow.desired_rate)))
        if not self.stacks[flow.source].alive:
            # Born on a crashed node: wait for recovery (the injector
            # resumes every paused source at the node).
            source.pause()

    def inject_departure(self, flow_id: int) -> None:
        """Retire ``flow_id`` from the live run right now.

        Raises:
            ChurnError: when no such flow was ever offered traffic, or
                it already departed.
        """
        if flow_id not in self.sources:
            raise ChurnError(f"unknown flow {flow_id}")
        if flow_id in self._lifetimes and self._lifetimes[flow_id][1] < self._duration:
            raise ChurnError(f"flow {flow_id} already departed")
        source = self.sources.get(flow_id)
        if source is not None:
            source.stop()
        life = self._lifetimes.setdefault(flow_id, [0.0, self._duration])
        life[1] = self.sim.now
        if self.gmp is not None:
            if self.spec is None or not self.spec.leak_departed_state:
                self.gmp.remove_flow(flow_id)
            residue = self.gmp.departure_audit(flow_id)
            if residue:
                self._residues[flow_id] = residue
        else:
            self.flows.remove(flow_id)
        self._departures += 1

    # --- reporting --------------------------------------------------------------

    def live_lifetimes(self) -> dict[int, tuple[float, float]]:
        """Per-flow (arrival, departure) windows *as of now* — flows
        still alive report their armed duration as the end.  Read-only
        mid-run view for in-flight health checks; the authoritative
        end-of-run map is in :meth:`finalize`'s report."""
        return {
            flow_id: (start, end)
            for flow_id, (start, end) in sorted(self._lifetimes.items())
        }

    def finalize(self) -> ChurnReport:
        """Summarize the run (call after ``sim.run`` returns)."""
        return ChurnReport(
            spec_text=(
                self.spec.to_text() if self.spec is not None else "command-driven"
            ),
            arrivals=self._arrivals,
            departures=self._departures,
            skipped_at_cap=self.trace.skipped_at_cap if self.trace else 0,
            lifetimes=self.live_lifetimes(),
            residues={k: list(v) for k, v in sorted(self._residues.items())},
        )
