"""The GMP protocol engine (§6).

Drives the measurement/adjustment cycle over a set of node stacks:

* mid-period: measure each flow's rate at its source (first half of
  the period) and begin stamping outgoing packets with the flow's
  normalized rate;
* period boundary: summarize buffer Ω, virtual-link rates, carried
  normalized rates, and channel occupancies; classify links; test the
  source / buffer-saturated / bandwidth-saturated conditions; collect
  the resulting rate-adjustment requests per flow (control-packet
  aggregation); apply them at the sources; apply the rate-limit
  condition (additive increase) and remove unnecessary limits.

Locality discipline: every decision consults only the deciding node's
own measurements plus state that the two-hop dissemination scope
entitles it to.  The control plane itself is out-of-band (instant
delivery at the boundary), standing in for the paper's piggybacked
bits, dominating-set rebroadcasts, and per-flow control packets whose
cost is accounted in :class:`~repro.core.dissemination.DisseminationScope`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.buffers.queues import PerDestinationBuffer
from repro.core.classification import LinkType, buffer_is_saturated, classify_link
from repro.core.conditions import (
    AdjacentVirtualLinkView,
    BandwidthViolation,
    UpstreamView,
    VirtualNodeView,
    beta_equal,
    evaluate_source_and_buffer_conditions,
    find_bandwidth_violation,
    respond_to_bandwidth_violation,
)
from repro.core.config import GmpConfig
from repro.core.dissemination import DisseminationScope
from repro.core.measurement import MuTracker, combine_occupancy
from repro.core.requests import RateRequest, RequestKind, aggregate_requests
from repro.core.virtual import GrandVirtualNetwork
from repro.errors import ProtocolError
from repro.flows.flow import Flow, FlowSet
from repro.flows.packet import Packet
from repro.flows.traffic import TrafficSource
from repro.mac.base import MacLayer
from repro.routing.table import RouteSet
from repro.sim.kernel import Simulator
from repro.stack import NodeStack
from repro.topology.cliques import CliqueSystem
from repro.topology.contention import ContentionGraph
from repro.topology.network import Link, Topology, canonical


@dataclass
class _SourceState:
    flow: Flow
    traffic: TrafficSource
    mu: float | None = None  # normalized rate over the last full period
    rate: float | None = None  # measured rate over the last full period
    stamp_mu: float | None = None  # first-half measurement, piggybacked
    admitted_snapshot: int = 0
    admitted_snapshot_mid: int = 0
    below_limit_periods: int = 0  # consecutive periods rate << limit
    limit_history: list[float | None] = field(default_factory=list)


class _Observer:
    """StackObserver fanning packet events into the protocol's trackers."""

    def __init__(self, protocol: "GmpProtocol") -> None:
        self._protocol = protocol

    def on_forward(self, node_id: int, packet: Packet, next_hop: int) -> None:
        self._protocol._trackers[node_id].observe(
            (node_id, next_hop), packet.destination, packet
        )
        self._protocol._note_activity(node_id)

    def on_receive(self, node_id: int, packet: Packet, from_node: int) -> None:
        self._protocol._trackers[node_id].observe(
            (from_node, node_id), packet.destination, packet
        )
        # Receiving proves both endpoints of the hop are alive.
        self._protocol._note_activity(node_id, from_node)


class GmpProtocol:
    """Distributed global-maxmin rate adaptation over node stacks.

    Construction order in a scenario: topology/routes/flows → MAC →
    stacks (with :meth:`observer` attached) → traffic sources (with
    :meth:`stamp` as their ``on_generate`` hook) → ``register_source``
    for each flow → :meth:`start`.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        routes: RouteSet,
        flows: FlowSet,
        mac: MacLayer,
        stacks: dict[int, NodeStack],
        *,
        config: GmpConfig | None = None,
        system: CliqueSystem | None = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.flows = flows
        self.mac = mac
        self.stacks = stacks
        self.config = config or GmpConfig()
        self.gvn = GrandVirtualNetwork(routes, flows)
        # A violation is disseminated to the endpoints of every link
        # contending with it, routed or not: the scope reads the whole
        # contention graph (whose rows are formed on demand).
        self.scope = DisseminationScope(topology, ContentionGraph(topology))
        # The bandwidth-saturated condition reads the cliques among the
        # routed links.  The scenario runner passes the run's system
        # (shared with the MAC and the reference); standalone use starts
        # one over the flows' paths.
        if system is None:
            system = CliqueSystem(
                topology, (a_link for a_link, _dest in self.gvn.all_virtual_links())
            )
        self.system = system

        self._trackers: dict[int, MuTracker] = {
            node: MuTracker() for node in stacks
        }
        self._arrival_snapshots: dict[int, dict[tuple[int, int], int]] = {
            node: {} for node in stacks
        }
        self._sources: dict[int, _SourceState] = {}
        # Archive of departed flows' states (limit history etc.): pure
        # record keeping, never consulted by decision code.
        self._departed: dict[int, _SourceState] = {}
        self._observer = _Observer(self)
        self._violation_streak: dict[Link, int] = {}
        self._pending_adjustments: list[dict[int, list[RateRequest]]] = []
        self._last_link_state: dict[Link, tuple[float, float]] = {}
        self._started = False

        # Fault tolerance: per-node liveness and control-plane loss.
        self._last_heard: dict[int, float] = {}
        self._known_down: set[int] = set()
        self._control_drop_prob = 0.0
        self._control_drop_until = float("-inf")
        self._control_rng = None

        # Introspection / statistics.
        self.periods_completed = 0
        self.requests_issued: list[RateRequest] = []
        self.violations_found = 0
        self.control_requests_dropped = 0
        self.stale_overrides = 0  # (node, dest) saturations vetoed for staleness

        # Telemetry (None when the subsystem is disabled).
        self._tm = sim.telemetry if sim.telemetry.enabled else None
        self._last_condition: dict[tuple[Link, int], LinkType] = {}

    # --- wiring ------------------------------------------------------------------

    def observer(self) -> _Observer:
        """The StackObserver to attach to every node stack."""
        return self._observer

    def register_source(self, flow_id: int, traffic: TrafficSource) -> None:
        """Associate a flow's traffic source with the protocol."""
        flow = self.flows.get(flow_id)
        if flow_id in self._sources:
            raise ProtocolError(f"source for flow {flow_id} already registered")
        state = _SourceState(flow=flow, traffic=traffic)
        state.admitted_snapshot = traffic.admitted
        state.admitted_snapshot_mid = traffic.admitted
        self._sources[flow_id] = state
        # A flow routed over links the clique system has not seen grows
        # it (a membership test per link otherwise).
        self.system.add_links(self.gvn.flow_links(flow_id))

    # --- dynamic workloads (flow churn) ------------------------------------------

    def add_flow(self, flow: Flow, traffic: TrafficSource) -> None:
        """Register a flow arriving mid-run.

        Adds the flow to the shared :class:`FlowSet`, grafts its path
        into the grand virtual network, and registers its traffic
        source; the next period boundary measures it like any other
        flow (its first period understates the rate if it arrived
        mid-period — one period of noise, exactly like start-up).

        Raises:
            ProtocolError: on duplicate ids or an unroutable flow.
        """
        self.flows.add(flow)
        try:
            self.gvn.add_flow(flow)
        except ProtocolError:
            self.flows.remove(flow.flow_id)
            raise
        self.register_source(flow.flow_id, traffic)
        self._departed.pop(flow.flow_id, None)
        if self._tm is not None:
            self._tm.event(self.sim.now, "gmp.flow_arrived", flow=flow.flow_id)

    def remove_flow(self, flow_id: int) -> None:
        """Tear down every trace of a departing flow.

        Releases the source registration and its rate limit, removes
        the flow from the :class:`FlowSet` and the grand virtual
        network, and garbage-collects per-virtual-link decision state
        (condition memory, violation streaks) plus any in-flight
        control requests addressed to the flow — a departed flow must
        not influence surviving flows.  The state is archived so
        :meth:`limit_history` keeps answering for it.

        Raises:
            ProtocolError: for unknown flow ids.
        """
        state = self._sources.pop(flow_id, None)
        if state is None:
            raise ProtocolError(f"unknown flow {flow_id}")
        state.traffic.set_rate_limit(None)
        state.limit_history.append(None)
        self._departed[flow_id] = state
        self.flows.remove(flow_id)
        vanished = self.gvn.remove_flow(state.flow)
        for vlink in vanished:
            self._last_condition.pop(vlink, None)
        live_links = {a_link for a_link, _dest in self.gvn.all_virtual_links()}
        for a_link in [
            a_link for a_link in self._violation_streak if a_link not in live_links
        ]:
            del self._violation_streak[a_link]
        # Control packets still in flight toward the departed source
        # (control_delay_periods > 0) die with it.
        for pending in self._pending_adjustments:
            pending.pop(flow_id, None)
        if self._tm is not None:
            self._tm.event(self.sim.now, "gmp.flow_departed", flow=flow_id)

    def departure_audit(self, flow_id: int) -> list[str]:
        """Post-departure state audit: anything still referencing a
        departed flow, as human-readable findings (empty when clean).

        The churn engine runs this after every departure (and the fuzz
        oracles at end of run); a non-empty result means per-flow state
        leaked and may still be steering surviving flows.
        """
        residue: list[str] = []
        if flow_id in self._sources:
            residue.append(f"flow {flow_id}: source state still registered")
        if flow_id in self.flows:
            residue.append(f"flow {flow_id}: still present in the flow set")
        residue.extend(self.gvn.flow_residue(flow_id))
        for index, pending in enumerate(self._pending_adjustments):
            if flow_id in pending:
                residue.append(
                    f"flow {flow_id}: pending rate adjustment retained "
                    f"(slot {index})"
                )
        state = self._departed.get(flow_id)
        if state is not None and state.traffic.rate_limit is not None:
            residue.append(
                f"flow {flow_id}: rate limit "
                f"{state.traffic.rate_limit:g} still installed on its source"
            )
        live_vlinks = set(self.gvn.all_virtual_links())
        for vlink in sorted(self._last_condition):
            if vlink not in live_vlinks:
                residue.append(
                    f"stale condition entry for defunct virtual link {vlink}"
                )
        live_links = {a_link for a_link, _dest in live_vlinks}
        for a_link in sorted(self._violation_streak):
            if a_link not in live_links:
                residue.append(
                    f"stale violation streak for defunct link {a_link}"
                )
        return residue

    def stamp(self, packet: Packet) -> None:
        """``on_generate`` hook: piggyback the flow's normalized rate.

        The paper stamps packets during the second half of each
        measurement period, once the rate measured over the first half
        is available; ``stamp_all_packets`` extends this to the whole
        period (same information, denser sampling).
        """
        state = self._sources.get(packet.flow_id)
        if state is None or state.stamp_mu is None:
            return
        period = self.config.period
        in_second_half = (self.sim.now % period) >= period / 2
        if self.config.stamp_all_packets or in_second_half:
            packet.carried_mu = state.stamp_mu

    def start(self) -> None:
        """Schedule the periodic protocol machinery."""
        if self._started:
            raise ProtocolError("GmpProtocol already started")
        missing = [flow.flow_id for flow in self.flows if flow.flow_id not in self._sources]
        if missing:
            raise ProtocolError(f"flows without registered sources: {missing}")
        self._started = True
        period = self.config.period
        self._last_heard = {node: self.sim.now for node in self.stacks}
        self.sim.every(period, self._on_boundary, start_at=period, tag="gmp.boundary")
        self.sim.every(
            period, self._on_midpoint, start_at=period / 2, tag="gmp.midpoint"
        )

    # --- fault tolerance ----------------------------------------------------------

    def _note_activity(self, *nodes: int) -> None:
        now = self.sim.now
        for node in nodes:
            if node not in self._known_down:
                self._last_heard[node] = now

    def on_node_down(self, node: int) -> None:
        """Explicit crash notification (fault injector): immediately
        treat the node's measurements as stale rather than waiting for
        ``neighbor_timeout`` to expire."""
        if node not in self.stacks:
            raise ProtocolError(f"unknown node {node}")
        self._known_down.add(node)
        self._purge_node_state(node)

    def on_node_up(self, node: int) -> None:
        """The node recovered; trust its measurements again."""
        if node not in self.stacks:
            raise ProtocolError(f"unknown node {node}")
        self._known_down.discard(node)
        self._last_heard[node] = self.sim.now

    def set_control_loss(self, drop_prob: float, until: float) -> None:
        """Drop each computed rate-adjustment request with probability
        ``drop_prob`` while ``sim.now < until`` (lossy control plane).

        Raises:
            ProtocolError: if ``drop_prob`` is outside [0, 1].
        """
        if not 0.0 <= drop_prob <= 1.0:
            raise ProtocolError(f"drop probability must be in [0, 1]: {drop_prob}")
        self._control_drop_prob = drop_prob
        self._control_drop_until = until
        if self._control_rng is None:
            self._control_rng = self.sim.rng.stream("gmp.control")

    def stale_nodes(self) -> set[int]:
        """Nodes whose measurements the protocol currently distrusts:
        explicitly reported down, or silent past ``neighbor_timeout``."""
        stale = set(self._known_down)
        timeout = self.config.neighbor_timeout
        if timeout is not None:
            now = self.sim.now
            for node, heard in self._last_heard.items():
                if now - heard > timeout:
                    stale.add(node)
        return stale

    def _purge_node_state(self, node: int) -> None:
        """Forget accumulated per-link state touching ``node``: a
        crashed node's history must not feed future decisions."""
        for a_link in [
            a_link for a_link in self._violation_streak if node in a_link
        ]:
            del self._violation_streak[a_link]
        for a_link in [
            a_link for a_link in self._last_link_state if node in a_link
        ]:
            del self._last_link_state[a_link]
        self._trackers[node] = MuTracker()

    def _control_request_lost(self) -> bool:
        if self._control_drop_prob <= 0.0 or self.sim.now >= self._control_drop_until:
            return False
        assert self._control_rng is not None
        return float(self._control_rng.random()) < self._control_drop_prob

    # --- mid-period: source rate measurement ------------------------------------------

    def _on_midpoint(self) -> None:
        """Measure each flow's rate over the first half of the period;
        this is the value piggybacked on packets during the second half
        (paper §6.2, *Normalized Rate*)."""
        half = self.config.period / 2
        for state in self._sources.values():
            delta = state.traffic.admitted - state.admitted_snapshot_mid
            state.stamp_mu = state.flow.normalized(delta / half)

    # --- period boundary ----------------------------------------------------------

    def _on_boundary(self) -> None:
        now = self.sim.now
        period = self.config.period

        # Decision-grade flow rates: measured over the whole period
        # (the half-period stamp measurement is too noisy for rate
        # adjustment decisions).
        for state in self._sources.values():
            delta = state.traffic.admitted - state.admitted_snapshot
            state.rate = delta / period
            state.mu = state.flow.normalized(state.rate)

        saturated = self._measure_buffer_saturation(now)
        # Graceful degradation: a node nothing has been heard from
        # (crashed, or silent past neighbor_timeout) contributes no
        # saturation claims — its virtual nodes fall back to the
        # *unsaturated* classification instead of freezing the last
        # pre-failure measurement into every future decision.
        stale = self.stale_nodes()
        if stale:
            for key, value in saturated.items():
                if value and key[0] in stale:
                    saturated[key] = False
                    self.stale_overrides += 1
            for a_link in [
                a_link
                for a_link in self._violation_streak
                if a_link[0] in stale or a_link[1] in stale
            ]:
                del self._violation_streak[a_link]
        vlink_rates = self._measure_vlink_rates(period)
        occupancy = self._measure_occupancy(period)
        mu_by_vlink, primaries_by_vlink = self._summarize_mus()
        types_by_vlink = self._classify_vlinks(saturated, vlink_rates, mu_by_vlink)
        wlink_mu = self._wireless_link_mus(mu_by_vlink)
        self._account_link_state_broadcasts(occupancy, wlink_mu)

        requests: dict[int, list[RateRequest]] = {}

        for request in self._evaluate_node_conditions(
            saturated, mu_by_vlink, primaries_by_vlink, types_by_vlink
        ):
            requests.setdefault(request.flow_id, []).append(request)

        for request in self._evaluate_bandwidth_conditions(
            types_by_vlink, mu_by_vlink, primaries_by_vlink, occupancy, wlink_mu
        ):
            requests.setdefault(request.flow_id, []).append(request)

        if self._tm is not None:
            self._record_boundary(now, period, types_by_vlink, requests)

        # Control-plane latency: requests computed this period take
        # effect `control_delay_periods` boundaries later (0 = now).
        self._pending_adjustments.append(requests)
        if len(self._pending_adjustments) > self.config.control_delay_periods:
            self._apply_adjustments(self._pending_adjustments.pop(0))

        for tracker in self._trackers.values():
            tracker.reset()
        for state in self._sources.values():
            state.admitted_snapshot = state.traffic.admitted
            state.admitted_snapshot_mid = state.traffic.admitted
            state.limit_history.append(state.traffic.rate_limit)
        self.periods_completed += 1

    # --- telemetry ---------------------------------------------------------------------

    def _record_boundary(
        self,
        now: float,
        period: float,
        types_by_vlink: dict[tuple[Link, int], LinkType],
        requests: dict[int, list[RateRequest]],
    ) -> None:
        """Record per-period telemetry (enabled runs only): flow rate /
        μ / limit trajectories, link-condition dwell and transitions,
        and the requests computed this period."""
        assert self._tm is not None
        registry = self._tm.registry
        for flow_id, state in sorted(self._sources.items()):
            if state.rate is not None:
                registry.series("gmp.flow_rate", flow=flow_id).record(
                    now, state.rate
                )
            if state.mu is not None:
                registry.series("gmp.flow_mu", flow=flow_id).record(now, state.mu)
            limit = state.traffic.rate_limit
            if limit is not None:
                registry.series("gmp.flow_limit", flow=flow_id).record_changed(
                    now, limit
                )
        for (a_link, dest), link_type in types_by_vlink.items():
            label = f"{a_link[0]}->{a_link[1]}"
            registry.counter(
                "gmp.condition_seconds",
                link=label,
                dest=dest,
                state=link_type.name.lower(),
            ).inc(period)
            previous = self._last_condition.get((a_link, dest))
            if previous is not link_type:
                self._tm.event(
                    now,
                    "gmp.condition_change",
                    link=label,
                    dest=dest,
                    old=previous.name.lower() if previous else "none",
                    new=link_type.name.lower(),
                )
                self._last_condition[(a_link, dest)] = link_type
        for flow_requests in requests.values():
            for request in flow_requests:
                registry.counter(
                    "gmp.requests",
                    kind=request.kind.name.lower(),
                    reason=request.reason,
                ).inc()

    # --- measurement helpers -----------------------------------------------------------

    def _measure_buffer_saturation(self, now: float) -> dict[tuple[int, int], bool]:
        """Ω-threshold saturation per virtual node (node, dest)."""
        result: dict[tuple[int, int], bool] = {}
        for node, stack in self.stacks.items():
            buffer = stack.buffer
            if not isinstance(buffer, PerDestinationBuffer):
                raise ProtocolError(
                    f"GMP requires per-destination buffers; node {node} has "
                    f"{type(buffer).__name__}"
                )
            for dest in self.gvn.served_destinations(node):
                if dest == node:
                    continue
                omega = buffer.fullness(dest, now)
                result[(node, dest)] = buffer_is_saturated(
                    omega, self.config.omega_threshold
                )
            buffer.reset_meters(now)
        return result

    def _measure_vlink_rates(self, period: float) -> dict[tuple[Link, int], float]:
        """Receiver-side packets/second per virtual link."""
        rates: dict[tuple[Link, int], float] = {}
        for node, stack in self.stacks.items():
            snapshot = self._arrival_snapshots[node]
            for (upstream, dest), count in stack.arrivals.items():
                delta = count - snapshot.get((upstream, dest), 0)
                snapshot[(upstream, dest)] = count
                rates[((upstream, node), dest)] = delta / period
        return rates

    def _measure_occupancy(self, period: float) -> dict[Link, float]:
        """Channel occupancy fraction per canonical wireless link."""
        halves: dict[Link, float] = {}
        for node in self.stacks:
            for a_link, airtime in self.mac.occupancy_snapshot(node).items():
                canon = canonical(a_link)
                halves[canon] = halves.get(canon, 0.0) + airtime
            self.mac.reset_occupancy(node)
        return {
            a_link: combine_occupancy(total, 0.0, period)
            for a_link, total in halves.items()
        }

    def _account_link_state_broadcasts(
        self, occupancy: dict[Link, float], wlink_mu: dict[Link, float]
    ) -> None:
        """Charge the in-band dissemination cost for every wireless
        link whose state changed since the last period (§6.2: only
        changed states are re-broadcast, through dominating sets).
        State comparisons use the protocol's β-equality so jitter below
        the decision resolution does not count as a change."""
        beta = self.config.beta
        for a_link in sorted(set(occupancy) | set(wlink_mu)):
            state = (occupancy.get(a_link, 0.0), wlink_mu.get(a_link, 0.0))
            previous = self._last_link_state.get(a_link)
            changed = previous is None or not (
                beta_equal(previous[0], state[0], beta)
                and beta_equal(previous[1], state[1], beta)
            )
            if changed:
                self.scope.record_link_state_change(a_link)
                self._last_link_state[a_link] = state

    def _summarize_mus(
        self,
    ) -> tuple[
        dict[tuple[Link, int], float], dict[tuple[Link, int], frozenset[int]]
    ]:
        """Merge both endpoints' trackers per virtual link."""
        beta = self.config.beta
        merged: dict[tuple[Link, int], dict[int, float]] = {}
        for tracker in self._trackers.values():
            for a_link, dest in tracker.tracked_vlinks():
                mu, primaries = tracker.summarize(a_link, dest, beta=beta)
                if mu is None:
                    continue
                flows = merged.setdefault((a_link, dest), {})
                for flow in primaries:
                    flows[flow] = max(flows.get(flow, 0.0), mu)
        # A source knows the normalized rates of its own flows without
        # any piggybacking; merge them into the first-hop virtual link.
        # This keeps a *completely starved* link visible (it would
        # otherwise carry no stamped packets, hiding the victim from
        # the bandwidth-saturated condition).
        for flow_id, state in self._sources.items():
            if state.mu is None:
                continue
            first_link = self.gvn.flow_links(flow_id)[0]
            key = (first_link, state.flow.destination)
            flows = merged.setdefault(key, {})
            flows[flow_id] = max(flows.get(flow_id, 0.0), state.mu)
        mu_by_vlink: dict[tuple[Link, int], float] = {}
        primaries_by_vlink: dict[tuple[Link, int], frozenset[int]] = {}
        for key, flows in merged.items():
            top = max(flows.values())
            mu_by_vlink[key] = top
            primaries_by_vlink[key] = frozenset(
                flow
                for flow, mu in flows.items()
                if mu >= top * (1.0 - beta)
            )
        return mu_by_vlink, primaries_by_vlink

    def _classify_vlinks(
        self,
        saturated: dict[tuple[int, int], bool],
        vlink_rates: dict[tuple[Link, int], float],
        mu_by_vlink: dict[tuple[Link, int], float],
    ) -> dict[tuple[Link, int], LinkType]:
        """Link types for every virtual link seen this period."""
        keys = set(vlink_rates) | set(mu_by_vlink)
        for dest in self.gvn.destinations():
            for a_link in self.gvn.virtual_links(dest):
                keys.add((a_link, dest))
        types: dict[tuple[Link, int], LinkType] = {}
        for (a_link, dest) in keys:
            i, j = a_link
            up = saturated.get((i, dest), False)
            down = False if j == dest else saturated.get((j, dest), False)
            types[(a_link, dest)] = classify_link(up, down)
        return types

    def _wireless_link_mus(
        self, mu_by_vlink: dict[tuple[Link, int], float]
    ) -> dict[Link, float]:
        """Largest virtual-link μ per canonical wireless link."""
        result: dict[Link, float] = {}
        for (a_link, _dest), mu in mu_by_vlink.items():
            canon = canonical(a_link)
            if mu > result.get(canon, float("-inf")):
                result[canon] = mu
        return result

    # --- condition evaluation ---------------------------------------------------------

    def _evaluate_node_conditions(
        self,
        saturated: dict[tuple[int, int], bool],
        mu_by_vlink: dict[tuple[Link, int], float],
        primaries_by_vlink: dict[tuple[Link, int], frozenset[int]],
        types_by_vlink: dict[tuple[Link, int], LinkType],
    ) -> list[RateRequest]:
        """Source + buffer-saturated conditions at every saturated
        virtual node."""
        requests: list[RateRequest] = []
        for (node, dest), is_saturated in sorted(saturated.items()):
            if not is_saturated:
                continue
            upstream_views = []
            for upstream in sorted(self.gvn.upstream_neighbors(node, dest)):
                vlink = ((upstream, node), dest)
                upstream_views.append(
                    UpstreamView(
                        link=(upstream, node),
                        mu=mu_by_vlink.get(vlink),
                        link_type=types_by_vlink.get(
                            vlink, LinkType.UNSATURATED
                        ),
                        primaries=primaries_by_vlink.get(vlink, frozenset()),
                    )
                )
            local_mus: dict[int, float] = {}
            limited: set[int] = set()
            for flow_id in self.gvn.local_flows(node, dest):
                state = self._sources[flow_id]
                if state.mu is not None:
                    local_mus[flow_id] = state.mu
                if state.traffic.rate_limit is not None:
                    limited.add(flow_id)
            view = VirtualNodeView(
                node=node,
                dest=dest,
                local_flow_mus=local_mus,
                limited_flows=frozenset(limited),
                upstream=tuple(upstream_views),
            )
            requests.extend(
                evaluate_source_and_buffer_conditions(
                    view,
                    beta=self.config.beta,
                    big_gap_factor=self.config.big_gap_factor,
                )
            )
        return requests

    def _evaluate_bandwidth_conditions(
        self,
        types_by_vlink: dict[tuple[Link, int], LinkType],
        mu_by_vlink: dict[tuple[Link, int], float],
        primaries_by_vlink: dict[tuple[Link, int], frozenset[int]],
        occupancy: dict[Link, float],
        wlink_mu: dict[Link, float],
    ) -> list[RateRequest]:
        """Bandwidth-saturated condition: find violations at each
        transmitting node, disseminate, and let contending neighbors
        respond.

        Clique channel occupancy is the sum of the member links'
        measured frame airtime (§6.2) — crucially *not* the sensed
        busy fraction: a clique held below capacity by rate limits has
        an idle channel yet may still throttle a victim link through
        receiver-side interference, and it must stay eligible for
        saturation so its flows can be asked to yield.
        """
        beta = self.config.beta
        requests: list[RateRequest] = []
        system = self.system
        generation = system.generation

        # Group bandwidth-saturated virtual links by directed wireless link.
        bw_by_link: dict[Link, dict[int, float]] = {}
        for (a_link, dest), link_type in types_by_vlink.items():
            if link_type is not LinkType.BANDWIDTH_SATURATED:
                continue
            mu = mu_by_vlink.get((a_link, dest))
            if mu is None:
                continue
            bw_by_link.setdefault(a_link, {})[dest] = mu

        violations: list[BandwidthViolation] = []
        for a_link in sorted(bw_by_link):
            cliques = system.cliques_of(a_link)
            clique_occ = {
                clique.clique_id: sum(
                    occupancy.get(member, 0.0) for member in clique.links
                )
                for clique in cliques
            }
            clique_mus = {
                clique.clique_id: {
                    member: wlink_mu[member]
                    for member in clique.links
                    if member in wlink_mu
                }
                for clique in cliques
            }
            violation = find_bandwidth_violation(
                link=a_link,
                bw_saturated_vlink_mus=bw_by_link[a_link],
                clique_occupancies=clique_occ,
                clique_link_mus=clique_mus,
                beta=beta,
            )
            if violation is None:
                self._violation_streak.pop(a_link, None)
                continue
            streak = self._violation_streak.get(a_link, 0) + 1
            self._violation_streak[a_link] = streak
            if streak >= self.config.violation_persistence:
                violations.append(violation)
                self.violations_found += 1
                self.scope.record_notice(a_link[0])
                if self._tm is not None:
                    self._tm.event(
                        self.sim.now,
                        "gmp.violation",
                        link=f"{a_link[0]}->{a_link[1]}",
                        streak=streak,
                    )

        for violation in violations:
            audience = self.scope.audience_of_link(violation.origin_link)
            for node in sorted(audience):
                if node not in self.stacks:
                    continue
                adjacent = self._adjacent_vlink_views(
                    node, types_by_vlink, mu_by_vlink, primaries_by_vlink
                )
                requests.extend(
                    respond_to_bandwidth_violation(
                        node, violation, adjacent, beta=beta
                    )
                )
        # Clique ids label one generation of the system; every id above
        # was read and compared within this one evaluation.
        assert system.generation == generation
        return requests

    def _adjacent_vlink_views(
        self,
        node: int,
        types_by_vlink: dict[tuple[Link, int], LinkType],
        mu_by_vlink: dict[tuple[Link, int], float],
        primaries_by_vlink: dict[tuple[Link, int], frozenset[int]],
    ) -> list[AdjacentVirtualLinkView]:
        """Views of node's outgoing virtual links (it transmits on them)."""
        views: list[AdjacentVirtualLinkView] = []
        for dest in self.gvn.served_destinations(node):
            next_hop = self.gvn.downstream_neighbor(node, dest)
            if next_hop is None:
                continue
            a_link = (node, next_hop)
            vlink = (a_link, dest)
            clique_ids = frozenset(
                clique.clique_id for clique in self.system.cliques_of(a_link)
            )
            views.append(
                AdjacentVirtualLinkView(
                    link=a_link,
                    dest=dest,
                    mu=mu_by_vlink.get(vlink),
                    link_type=types_by_vlink.get(vlink, LinkType.UNSATURATED),
                    primaries=primaries_by_vlink.get(vlink, frozenset()),
                    clique_ids=clique_ids,
                )
            )
        return views

    # --- applying adjustments ------------------------------------------------------

    def _apply_adjustments(self, requests: dict[int, list[RateRequest]]) -> None:
        beta = self.config.beta
        for flow_id, state in sorted(self._sources.items()):
            traffic = state.traffic
            # Removing unnecessary rate limits (§6.3, first step).  A
            # limit is unnecessary when the flow persistently achieves
            # materially less than it — one-period dips are measurement
            # noise and removing on them causes flood/re-clamp cycles.
            limit = traffic.rate_limit
            if (
                limit is not None
                and state.rate is not None
                and flow_id not in requests
                and (limit - state.rate) > beta * limit
            ):
                state.below_limit_periods += 1
            else:
                state.below_limit_periods = 0
            if (
                self.config.removal_persistence is not None
                and state.below_limit_periods >= self.config.removal_persistence
            ):
                traffic.set_rate_limit(None)
                state.below_limit_periods = 0
                if self._tm is not None:
                    self._tm.event(
                        self.sim.now,
                        "gmp.limit_removed",
                        flow=flow_id,
                        old_limit=limit,
                    )
                limit = None

            chosen = aggregate_requests(requests.get(flow_id, []))
            if chosen is not None and self._control_request_lost():
                # The aggregated control packet never reached the
                # source; it behaves exactly as if no request existed
                # this period (the rate-limit condition below still
                # runs on purely local knowledge).
                self.control_requests_dropped += 1
                if self._tm is not None:
                    self._tm.registry.counter("gmp.requests_dropped").inc()
                    self._tm.event(
                        self.sim.now, "gmp.request_dropped", flow=flow_id
                    )
                chosen = None
            if chosen is not None:
                self.requests_issued.append(chosen)
            if chosen is None:
                # Rate-limit condition: probe upward, but only from an
                # *achieved* operating point — raising a limit the flow
                # is not reaching just manufactures slack that later
                # reads as an unnecessary limit.
                achieving = (
                    state.rate is None
                    or traffic.rate_limit is None
                    or state.rate >= traffic.rate_limit * (1.0 - 2.0 * beta)
                )
                if traffic.rate_limit is not None and achieving:
                    old_limit = traffic.rate_limit
                    traffic.set_rate_limit(
                        traffic.rate_limit + self.config.additive_increase
                    )
                    if self._tm is not None:
                        self._tm.event(
                            self.sim.now,
                            "gmp.limit_probe",
                            flow=flow_id,
                            old_limit=old_limit,
                            new_limit=traffic.rate_limit,
                        )
                continue
            old_limit = traffic.rate_limit
            if chosen.kind is RequestKind.DECREASE:
                base = state.rate
                if base is None:
                    base = traffic.rate_limit or state.flow.desired_rate
                if traffic.rate_limit is not None:
                    # A transient flood can measure above the standing
                    # limit; never let a *decrease* raise the limit.
                    base = min(base, traffic.rate_limit)
                new_limit = max(self.config.min_rate, base * chosen.multiplier)
                traffic.set_rate_limit(new_limit)
            else:
                if traffic.rate_limit is not None:
                    traffic.set_rate_limit(
                        min(
                            state.flow.desired_rate,
                            traffic.rate_limit * chosen.multiplier,
                        )
                    )
            if self._tm is not None:
                self._tm.registry.counter(
                    "gmp.requests_applied", kind=chosen.kind.name.lower()
                ).inc()
                self._tm.event(
                    self.sim.now,
                    "gmp.adjust",
                    flow=flow_id,
                    kind=chosen.kind.name.lower(),
                    reason=chosen.reason,
                    origin=chosen.origin,
                    multiplier=chosen.multiplier,
                    old_limit=old_limit,
                    new_limit=traffic.rate_limit,
                )

    # --- introspection ----------------------------------------------------------------

    def rate_limits(self) -> dict[int, float | None]:
        """Current rate limit of every flow."""
        return {
            flow_id: state.traffic.rate_limit
            for flow_id, state in self._sources.items()
        }

    def limit_history(self, flow_id: int) -> list[float | None]:
        """Per-period rate-limit trajectory of a flow (departed flows
        answer from the archive)."""
        state = self._sources.get(flow_id) or self._departed.get(flow_id)
        if state is None:
            raise ProtocolError(f"unknown flow {flow_id}")
        return list(state.limit_history)
