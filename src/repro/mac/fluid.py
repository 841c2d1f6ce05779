"""Fluid MAC: deterministic clique-capacity sharing.

A fast substitute for the packet-level DCF.  Time advances in fixed
rounds; in each round every *backlogged* directed link receives a rate
by equal-share water-filling subject to the constraint that the links
of each contention clique jointly serialize on one channel of
``capacity_pps`` packet exchanges per second — the idealization of DCF
the paper itself uses ("IEEE 802.11 DCF allocates channel capacity
equally between the two links", §4.1).

The model preserves what the upper layers care about: backpressure
dynamics (transfers stop when the downstream queue refuses packets),
per-link channel occupancy, and clique saturation.  It deliberately
omits collisions, hidden-terminal asymmetry, and EIFS effects — use
:class:`~repro.mac.dcf.DcfMac` to observe those.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError, MacError
from repro.mac.base import MacLayer, NodeServices
from repro.mac.phy import DEFAULT_PHY
from repro.sim.kernel import Simulator
from repro.topology.cliques import (
    Clique,
    CliqueSystem,
    clique_index_positions,
    progressive_fill,
)
from repro.topology.network import Link, Topology

_EPSILON = 1e-9

#: Cached demand→allocation entries kept per FluidMac before the cache
#: is dropped wholesale.  A run's working set is small (figure3 at 600 s
#: revisits 21 demand vectors); a run whose demands rarely repeat (the
#: city-scale scenarios) would otherwise keep every miss it ever solved.
_ALLOC_CACHE_LIMIT = 64


def waterfill_links(
    demands: dict[Link, float],
    cliques: list[Clique],
    capacity: float,
    *,
    rate_caps: dict[Link, float] | None = None,
) -> dict[Link, float]:
    """Equal-share maxmin allocation of link rates under clique capacity.

    Args:
        demands: offered rate per *directed* link (only backlogged links).
        cliques: maximal contention cliques (over canonical links).
        capacity: packets/second a clique can serialize.
        rate_caps: optional hard per-link rate ceilings (used to model
            artificially slow links in experiments).

    Returns:
        Allocated rate per directed link; never exceeds the demand, the
        cap, or any clique's capacity.
    """
    rate_caps = rate_caps or {}
    active = [a_link for a_link, demand in demands.items() if demand > _EPSILON]
    if not active:
        return {}
    limits = [
        min(demands[a_link], rate_caps.get(a_link, math.inf)) for a_link in active
    ]
    # One linear pass over the clique members replaces the per-link
    # O(cliques) rescan; lookups canonicalize exactly as Clique's
    # membership test does, so the tuples are identical.
    positions = clique_index_positions(cliques)
    memberships = [
        positions.get((i, j) if i <= j else (j, i), ())
        for i, j in active
    ]
    rates, _, _ = progressive_fill(
        limits, [1.0] * len(active), memberships, [capacity] * len(cliques)
    )
    return dict(zip(active, rates))


class FluidMac(MacLayer):
    """The fluid substrate.

    Clique constraints come from the run's
    :class:`~repro.topology.cliques.CliqueSystem`: the cliques among
    the links routed to carry traffic (the contention graph induced on
    them), never those of the whole topology.  A backlogged link the
    system has not seen is admitted to it before the solve.

    Args:
        sim: simulation kernel.
        topology: the wireless network.
        round_interval: seconds between allocation/transfer rounds.
        capacity_pps: packet exchanges per second a clique serializes;
            defaults to the PHY's estimate for 1024-byte packets.
        rate_caps: optional per-directed-link rate ceilings.
        system: the run's clique system, shared with its other readers;
            a standalone MAC starts an empty one of its own.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        *,
        round_interval: float = 0.02,
        capacity_pps: float | None = None,
        rate_caps: dict[Link, float] | None = None,
        system: CliqueSystem | None = None,
    ) -> None:
        if round_interval <= 0:
            raise ConfigError(f"round interval must be positive: {round_interval}")
        self.sim = sim
        self.topology = topology
        self.round_interval = round_interval
        if capacity_pps is None:
            capacity_pps = DEFAULT_PHY.clique_capacity(1024)
        if capacity_pps <= 0:
            raise ConfigError(f"capacity must be positive: {capacity_pps}")
        self.capacity_pps = capacity_pps
        self.rate_caps = dict(rate_caps or {})
        self._services: dict[int, NodeServices] = {}
        # Nodes that may hold a packet: the only ones a round polls.  A
        # node enters on notify_backlog (every admission path calls it)
        # and leaves when a round proves its buffer empty.
        self._backlogged: set[int] = set()
        self._poll_order: list[int] | None = None  # sorted; None = stale
        self._credit: dict[Link, float] = {}
        self._occupancy: dict[int, dict[Link, float]] = {}
        self._started = False
        self.packets_transferred = 0
        # Fault-injection state.
        self._down: set[int] = set()
        self._fault_caps: dict[Link, float] = {}
        self._link_loss: dict[Link, float] = {}
        self._loss_rng = sim.rng.stream("fluid.loss")
        # Telemetry: resolved once so disabled runs pay one None check
        # per round; per-link instruments are cached on first use.
        self._tm = sim.telemetry if sim.telemetry.enabled else None
        self._rate_series: dict[Link, object] = {}
        self._active_links: set[Link] = set()
        # Incremental allocation machinery: the clique system the solver
        # sees, a demand→allocation memo, and a dirty/idle pair that lets
        # fully quiescent rounds return immediately (see
        # docs/PERFORMANCE.md for the exactness argument).
        self.system = system if system is not None else CliqueSystem(topology)
        self._published_generation = -1
        # The capacity of each of the system's cliques, by position: one
        # generation's worth.
        self._capacities: list[float] = []
        self._capacities_generation = -1
        self._alloc_cache: dict[object, dict[Link, float]] = {}
        self.alloc_cache_hits = 0
        self.alloc_cache_misses = 0
        self.rounds_skipped = 0
        self._dirty = True
        self._idle = False
        if self._tm is not None:
            registry = self._tm.registry
            self._hit_counter = registry.counter("mac.alloc_cache_hits")
            self._miss_counter = registry.counter("mac.alloc_cache_misses")
            self._skip_counter = registry.counter("mac.rounds_skipped")
        else:
            self._hit_counter = None
            self._miss_counter = None
            self._skip_counter = None

    # --- MacLayer interface -----------------------------------------------------

    def attach_node(self, node_id: int, services: NodeServices) -> None:
        if node_id in self._services:
            raise MacError(f"node {node_id} already attached")
        if services.eligible_links is None or services.dequeue_for is None:
            raise MacError(
                "FluidMac requires NodeServices.eligible_links and "
                "dequeue_for (batch accessors)"
            )
        self.topology.node(node_id)
        self._services[node_id] = services
        self._occupancy[node_id] = {}
        # Its buffer state is unknown until a round has looked.
        self.notify_backlog(node_id)

    def start(self) -> None:
        if self._started:
            raise MacError("FluidMac already started")
        self._started = True
        self.sim.every(self.round_interval, self._round, tag="fluid.round")

    def notify_backlog(self, node_id: int) -> None:
        # Rounds poll the backlogged nodes; note that this one may now
        # hold a packet, which also wakes an idle-skipping round.
        self._dirty = True
        if node_id not in self._backlogged:
            self._backlogged.add(node_id)
            self._poll_order = None

    def occupancy_snapshot(self, node_id: int) -> dict[Link, float]:
        try:
            return dict(self._occupancy[node_id])
        except KeyError:
            raise MacError(f"node {node_id} not attached") from None

    def reset_occupancy(self, node_id: int) -> None:
        try:
            self._occupancy[node_id].clear()
        except KeyError:
            raise MacError(f"node {node_id} not attached") from None

    # --- fault injection hooks ----------------------------------------------------

    def set_node_down(self, node_id: int, down: bool) -> list:
        """Gate a node out of (or back into) the allocation rounds.

        Links touching a down node carry nothing.  The fluid MAC holds
        no packets between rounds, so a crash loses nothing here;
        queued packets are the stack's to drain.
        """
        if node_id not in self._services:
            raise MacError(f"node {node_id} not attached")
        if down:
            self._down.add(node_id)
        else:
            self._down.discard(node_id)
        self._dirty = True
        return []

    def set_link_loss(self, sender: int, receiver: int, rate: float) -> None:
        """Loss probability applied to each packet transferred on the
        directed link ``sender -> receiver``; 0 removes it."""
        if not 0.0 <= rate <= 1.0:
            raise MacError(f"loss rate must be in [0, 1]: {rate}")
        if rate == 0.0:
            self._link_loss.pop((sender, receiver), None)
        else:
            self._link_loss[(sender, receiver)] = rate
        self._dirty = True

    def set_link_capacity(self, sender: int, receiver: int, capacity: float | None) -> None:
        """Fault-injected rate ceiling on a directed link (packets per
        second); ``None`` restores the link's configured cap."""
        a_link = (sender, receiver)
        self._dirty = True
        if capacity is None:
            self._fault_caps.pop(a_link, None)
            return
        if capacity <= 0:
            raise MacError(f"link capacity must be positive: {capacity}")
        self._fault_caps[a_link] = capacity

    def _effective_caps(self) -> dict[Link, float]:
        if not self._fault_caps:
            return self.rate_caps
        caps = dict(self.rate_caps)
        for a_link, cap in self._fault_caps.items():
            caps[a_link] = min(cap, caps.get(a_link, math.inf))
        return caps

    # --- round machinery ------------------------------------------------------------

    def _allocate_quantized(
        self, quantized: list[tuple[Link, float]]
    ) -> dict[Link, float]:
        """Solve (or recall) the allocation for an already-clamped
        ``(link, demand)`` vector — the round loop builds the vector
        inline while polling eligibility, so it lands here directly.

        Demands of clique-member links are clamped at ``capacity_pps``
        before keying/solving: any demand at or above the clique
        capacity yields the identical allocation (the link's limit term
        can never undercut its clique's share term), so deep queues that
        only differ in backlog depth collapse onto one cache entry.
        Links outside every clique are never clamped — their limit is
        the only thing bounding them.
        """
        caps = self._effective_caps()
        caps_key = tuple(sorted(caps.items())) if caps else ()
        key = (tuple(quantized), caps_key)
        cached = self._alloc_cache.get(key)
        if cached is not None:
            self.alloc_cache_hits += 1
            if self._hit_counter is not None:
                self._hit_counter.inc()
            return cached
        self.alloc_cache_misses += 1
        if self._miss_counter is not None:
            self._miss_counter.inc()
        active: list[Link] = []
        limits: list[float] = []
        for a_link, demand in quantized:
            if demand > _EPSILON:
                active.append(a_link)
                limits.append(min(demand, caps.get(a_link, math.inf)))
        # The system's cliques are exactly the constraints the full
        # clique list puts on any active set inside it, so allocations
        # are bit-identical to solving over every clique (argument in
        # docs/PERFORMANCE.md).  It only grows: links toggling in and
        # out of backlog never re-enumerate.
        system = self.system
        system.add_links(active)
        if self._capacities_generation != system.generation:
            self._capacities_generation = system.generation
            self._capacities = [self.capacity_pps] * len(system.cliques)
        link_cliques = system.memberships
        rates, _, _ = progressive_fill(
            limits,
            [1.0] * len(active),
            [link_cliques[a_link] for a_link in active],
            self._capacities,
        )
        alloc = dict(zip(active, rates))
        if len(self._alloc_cache) >= _ALLOC_CACHE_LIMIT:
            self._alloc_cache.clear()
        self._alloc_cache[key] = alloc
        return alloc

    def _round(self) -> None:
        if self._idle and not self._dirty:
            # Nothing changed since a round that saw an empty network:
            # the allocation would be empty again; skip the node polls.
            self.rounds_skipped += 1
            if self._skip_counter is not None:
                self._skip_counter.inc()
            return
        self._dirty = False
        interval = self.round_interval
        down = self._down
        capacity = self.capacity_pps
        # The clamp reads the map the solver reads (clamping is a pure
        # cache-key normalization, so a link the system has yet to see
        # may go unclamped: same allocation).
        memberships_map = self.system.memberships
        # One fused pass over the nodes that may hold a packet: poll
        # each one's eligibility and emit the clamped (link, demand)
        # vector the allocator keys on.  Nodes report disjoint link sets
        # (their own outgoing links), so the list is duplicate-free in
        # deterministic node order.  Down nodes and links into them
        # carry nothing.
        backlogged = self._backlogged
        order = self._poll_order
        if order is None:
            order = self._poll_order = sorted(backlogged)
        quantized: list[tuple[Link, float]] = []
        append = quantized.append
        for node_id in order:
            services = self._services[node_id]
            emitted = len(quantized)
            if node_id not in down:
                for a_link, count in services.eligible_links().items():
                    if count > 0 and a_link[1] not in down:
                        demand = count / interval
                        if demand > capacity and memberships_map.get(a_link):
                            demand = capacity
                        append((a_link, demand))
            if len(quantized) == emitted:
                # Offered nothing: drop it once its buffer is proven
                # empty (eligible or not — gates and backpressure cannot
                # conjure demand out of an empty buffer, and every way a
                # packet enters one calls notify_backlog).  A node
                # without the probe is polled forever.
                has_pending = services.has_pending
                if has_pending is not None and not has_pending():
                    backlogged.discard(node_id)
                    self._poll_order = None

        # Future rounds are skipped only while *no* buffer holds any
        # packet.
        self._idle = not backlogged

        alloc = self._allocate_quantized(quantized)

        # Per-link packet budgets for this round (fractional credit
        # carries over between rounds).
        budgets: dict[Link, int] = {}
        credits = self._credit
        for a_link, rate in alloc.items():
            credit = credits.get(a_link, 0.0) + rate * interval
            whole = int(credit + _EPSILON)
            budgets[a_link] = whole
            credits[a_link] = credit - whole

        # Transfer in repeated passes until no link makes progress: a
        # downstream queue drained late in a pass can unblock an
        # upstream link's backpressure gate within the same round,
        # which mirrors the per-packet interleaving of the real MAC.
        # Links with a zero budget can never send this round, so only
        # the positive-budget links enter the passes (and the sent map);
        # a link drops out once its budget is exhausted.  Pass order
        # over the survivors is the same sorted order as before.  Each
        # link's pull, delivery and loss rate are resolved once per
        # round: no transfer attaches a node or changes a loss rate.
        services = self._services
        link_loss = self._link_loss
        lanes = []
        for a_link in sorted(a_link for a_link, b in budgets.items() if b > 0):
            sender, receiver = a_link
            source = services[sender]
            sink = services.get(receiver)
            assert source.dequeue_for is not None
            lanes.append(
                (
                    a_link,
                    sender,
                    receiver,
                    source.dequeue_for,
                    sink.on_data_received if sink is not None else None,
                    source.on_packet_dropped,
                    link_loss.get(a_link),
                    budgets[a_link],
                )
            )
        sent_per_link: dict[Link, int] = {lane[0]: 0 for lane in lanes}
        progress = True
        while progress and lanes:
            progress = False
            survivors = []
            for lane in lanes:
                a_link, sender, receiver, pull, deliver, drop, loss, budget = lane
                packet = pull(receiver)
                if packet is None:
                    # Blocked (gated or empty) — may unblock in a later
                    # pass when a downstream queue drains.
                    survivors.append(lane)
                    continue
                if loss is not None and float(self._loss_rng.random()) < loss:
                    # The exchange consumed airtime but the packet is
                    # destroyed; report it as a MAC drop so packet
                    # conservation still balances.
                    drop(packet, receiver)
                elif deliver is not None:
                    deliver(packet, sender)
                sent = sent_per_link[a_link] + 1
                sent_per_link[a_link] = sent
                progress = True
                if sent < budget:
                    survivors.append(lane)
            lanes = survivors

        for a_link, sent in sent_per_link.items():
            if not sent:
                # Unused whole-packet budget is discarded (airtime
                # cannot be banked across a blocked round).
                continue
            self.packets_transferred += sent
            airtime = sent / self.capacity_pps
            sender, receiver = a_link
            node_occ = self._occupancy[sender]
            node_occ[a_link] = node_occ.get(a_link, 0.0) + airtime
            if receiver in self._occupancy:
                # Receiver-side accumulator stays zero (the sender holds
                # the full exchange airtime); create the key so
                # snapshots list the link.
                self._occupancy[receiver].setdefault(a_link, 0.0)

        if self._tm is not None:
            self._record_round(alloc, sent_per_link)

    def _record_round(
        self, alloc: dict[Link, float], sent_per_link: dict[Link, int]
    ) -> None:
        """Record per-link telemetry after a round (enabled runs only)."""
        assert self._tm is not None
        now = self.sim.now
        registry = self._tm.registry
        system = self.system
        if self._published_generation != system.generation:
            self._published_generation = system.generation
            registry.gauge("mac.solver_links").set(len(system.links))
            registry.gauge("mac.solver_cliques").set(len(system.cliques))

        def series_for(a_link: Link):
            series = self._rate_series.get(a_link)
            if series is None:
                series = registry.series(
                    "mac.link_rate", link=f"{a_link[0]}->{a_link[1]}"
                )
                self._rate_series[a_link] = series
            return series

        for a_link, rate in alloc.items():
            series_for(a_link).record_changed(now, rate)
        # A link that fell out of the allocation has rate 0 now; record
        # the drop so the trajectory does not hold its last value.
        for a_link in sorted(self._active_links - set(alloc)):
            series_for(a_link).record_changed(now, 0.0)
        self._active_links = set(alloc)

        for a_link, sent in sent_per_link.items():
            if not sent:
                continue
            label = f"{a_link[0]}->{a_link[1]}"
            registry.counter("mac.transfers", link=label).inc(sent)
            registry.counter("mac.airtime_seconds", link=label).inc(
                sent / self.capacity_pps
            )
