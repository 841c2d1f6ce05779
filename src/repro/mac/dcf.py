"""Packet-level IEEE 802.11 DCF.

Implements the distributed coordination function per node:

* physical carrier sense (channel busy within ``cs_range``) and
  virtual carrier sense (NAV from decoded RTS/CTS/DATA);
* DIFS/EIFS deferral — EIFS after any sensed frame that could not be
  decoded, the mechanism behind the chain-topology unfairness the
  paper's Table 3 shows for plain 802.11;
* slotted binary exponential backoff, frozen while the medium is
  busy and resumed after a fresh DIFS;
* RTS/CTS/DATA/ACK exchanges with retry limits and CW doubling;
* best-effort control broadcasts (no RTS/ACK), used when in-band
  dissemination is enabled.

The MAC holds at most one packet; it *pulls* from the upper layer via
``NodeServices.dequeue`` whenever its transmitter frees up, so all
queueing policy (per-destination queues, backpressure gating, tail
overwrite) lives above the MAC.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from repro.errors import MacError
from repro.flows.packet import Packet
from repro.mac.base import MacLayer, NodeServices
from repro.mac.channel import Channel
from repro.mac.frames import Frame, FrameKind
from repro.mac.phy import DEFAULT_PHY, PhyProfile
from repro.sim.kernel import Simulator
from repro.topology.network import Link, Topology


@dataclass(frozen=True)
class DcfConfig:
    """Tunables of the DCF implementation.

    Attributes:
        use_eifs: defer EIFS after sensed-but-undecodable frames
            (standard behavior; switchable for ablation studies).
        timeout_slack_slots: extra slots added to CTS/ACK timeouts.
        broadcast_bytes: payload size charged for control broadcasts.
    """

    use_eifs: bool = True
    timeout_slack_slots: int = 2
    broadcast_bytes: int = 64


class _State(enum.Enum):
    IDLE = "idle"
    DEFER = "defer"
    BACKOFF = "backoff"
    TX_RTS = "tx_rts"
    WAIT_CTS = "wait_cts"
    TX_DATA = "tx_data"
    WAIT_ACK = "wait_ack"
    TX_CTS = "tx_cts"
    TX_ACK = "tx_ack"
    TX_BCAST = "tx_bcast"
    SIFS_WAIT = "sifs_wait"


class _DcfNode:
    """DCF state machine of a single node."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        channel: Channel,
        phy: PhyProfile,
        config: DcfConfig,
        services: NodeServices,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.channel = channel
        self.phy = phy
        self.config = config
        self.services = services
        self._rng = sim.rng.stream(f"mac.dcf.{node_id}")

        self._state = _State.IDLE
        self._busy = 0  # sensed transmissions in progress
        self._nav_until = 0.0
        self._use_eifs = False
        self.down = False  # crashed by fault injection

        self._current: tuple[Packet, int] | None = None
        self._retries = 0
        self._cw = phy.cw_min
        self._backoff_slots: int | None = None
        self._backoff_started = 0.0

        self._pending_frame: Frame | None = None
        self._pending_state: _State | None = None
        self._response_peer: int | None = None

        self._bcast_queue: deque[object] = deque()

        self._defer_timer = sim.timer(self._on_defer_done, tag=f"dcf.defer.{node_id}")
        self._backoff_timer = sim.timer(
            self._on_backoff_done, tag=f"dcf.backoff.{node_id}"
        )
        self._sifs_timer = sim.timer(self._on_sifs_done, tag=f"dcf.sifs.{node_id}")
        self._cts_timer = sim.timer(self._on_cts_timeout, tag=f"dcf.ctsto.{node_id}")
        self._ack_timer = sim.timer(self._on_ack_timeout, tag=f"dcf.ackto.{node_id}")
        self._nav_timer = sim.timer(self._on_nav_expired, tag=f"dcf.nav.{node_id}")
        self._nav_reset_timer = sim.timer(
            self._on_nav_reset_check, tag=f"dcf.navreset.{node_id}"
        )
        self._last_busy_start = -1.0

        # Telemetry: resolved once at construction so the hot paths pay
        # a single None check when the subsystem is disabled.
        self._tm = sim.telemetry if sim.telemetry.enabled else None
        self._airtime_counters: dict[Link, object] = {}

        # Measurement accumulators and statistics.
        self.occupancy: dict[Link, float] = {}
        self.busy_accum = 0.0
        self._busy_since: float | None = None
        self.data_sent = 0
        self.data_received = 0
        self.drops = 0
        self.rts_attempts = 0

    # --- helpers ----------------------------------------------------------------

    def _medium_idle(self) -> bool:
        return (
            self._busy == 0
            and not self.channel.is_transmitting(self.node_id)
            and self.sim.now >= self._nav_until
        )

    def _add_occupancy(self, a_link: Link, duration: float) -> None:
        self.occupancy[a_link] = self.occupancy.get(a_link, 0.0) + duration
        if self._tm is not None:
            counter = self._airtime_counters.get(a_link)
            if counter is None:
                counter = self._tm.registry.counter(
                    "mac.airtime_seconds", link=f"{a_link[0]}->{a_link[1]}"
                )
                self._airtime_counters[a_link] = counter
            counter.inc(duration)

    def _update_busy_meter(self) -> None:
        """Track time with perceivable channel activity (sensed energy
        or own transmission)."""
        busy_now = self._busy > 0 or self.channel.is_transmitting(self.node_id)
        if busy_now and self._busy_since is None:
            self._busy_since = self.sim.now
        elif not busy_now and self._busy_since is not None:
            self.busy_accum += self.sim.now - self._busy_since
            self._busy_since = None

    def busy_seconds(self) -> float:
        """Accumulated busy time since the last reset."""
        if self._busy_since is not None:
            return self.busy_accum + (self.sim.now - self._busy_since)
        return self.busy_accum

    def reset_busy_meter(self) -> None:
        """Start a new busy-time accumulation window."""
        self.busy_accum = 0.0
        if self._busy_since is not None:
            self._busy_since = self.sim.now

    # --- channel access -------------------------------------------------------------

    def attempt_access(self) -> None:
        """Start contending if idle and something is ready to send."""
        if self.down or self._state is not _State.IDLE:
            return
        if self._current is None and not self._bcast_queue:
            self._current = self.services.dequeue()
            if self._current is not None:
                self._retries = 0
        if self._current is None and not self._bcast_queue:
            return
        if not self._medium_idle():
            return
        ifs = self.phy.eifs if (self._use_eifs and self.config.use_eifs) else self.phy.difs
        self._state = _State.DEFER
        self._defer_timer.start(ifs)

    def _on_defer_done(self) -> None:
        if self._state is not _State.DEFER:
            return  # stale timer: contention was abandoned meanwhile
        if self._backoff_slots is None:
            self._backoff_slots = int(self._rng.integers(0, self._cw + 1))
        if self._backoff_slots == 0:
            self._backoff_slots = None
            self._transmit_current()
            return
        self._state = _State.BACKOFF
        self._backoff_started = self.sim.now
        self._backoff_timer.start(self._backoff_slots * self.phy.slot_time)

    def _on_backoff_done(self) -> None:
        if self._state is not _State.BACKOFF:
            return  # stale timer: contention was abandoned meanwhile
        self._backoff_slots = None
        self._transmit_current()

    def _interrupt_contention(self) -> None:
        """Freeze DEFER/BACKOFF when the medium turns busy."""
        if self._state is _State.DEFER:
            self._defer_timer.cancel()
            self._state = _State.IDLE
        elif self._state is _State.BACKOFF:
            elapsed = self.sim.now - self._backoff_started
            completed = int(elapsed / self.phy.slot_time + 1e-9)
            assert self._backoff_slots is not None
            self._backoff_slots = max(0, self._backoff_slots - completed)
            self._backoff_timer.cancel()
            self._state = _State.IDLE
            if self._tm is not None:
                self._tm.registry.counter(
                    "mac.backoff_stalls", node=self.node_id
                ).inc()

    def _transmit_current(self) -> None:
        if self._bcast_queue:
            payload = self._bcast_queue.popleft()
            frame = Frame(
                kind=FrameKind.BROADCAST,
                sender=self.node_id,
                receiver=None,
                duration=self.phy.data_duration(self.config.broadcast_bytes),
                payload=payload,
                piggyback=self.services.make_piggyback(),
            )
            self._state = _State.TX_BCAST
            self.channel.transmit(self.node_id, frame)
            self._update_busy_meter()
            return

        assert self._current is not None
        packet, next_hop = self._current
        data_duration = self.phy.data_duration(packet.size_bytes)
        nav = (
            self.phy.cts_duration
            + data_duration
            + self.phy.ack_duration
            + 3 * self.phy.sifs
        )
        frame = Frame(
            kind=FrameKind.RTS,
            sender=self.node_id,
            receiver=next_hop,
            duration=self.phy.rts_duration,
            nav=nav,
            piggyback=self.services.make_piggyback(),
        )
        self._state = _State.TX_RTS
        self.rts_attempts += 1
        self.channel.transmit(self.node_id, frame)
        self._update_busy_meter()

    # --- channel callbacks (Radio protocol) ------------------------------------------

    def on_busy_start(self) -> None:
        self._busy += 1
        self._last_busy_start = self.sim.now
        self._update_busy_meter()
        self._interrupt_contention()

    def on_busy_end(self) -> None:
        if self._busy <= 0:
            raise MacError(f"node {self.node_id}: unbalanced busy_end")
        self._busy -= 1
        self._update_busy_meter()
        if self._busy == 0:
            self.attempt_access()

    def on_frame_corrupted(self) -> None:
        if self.down:
            return
        self._use_eifs = True
        if self._tm is not None:
            self._tm.registry.counter(
                "mac.corrupted_frames", node=self.node_id
            ).inc()

    def on_frame_received(self, frame: Frame) -> None:
        if self.down:
            return
        self._use_eifs = False
        self.services.on_overhear(frame.sender, dict(frame.piggyback))

        if frame.is_broadcast:
            self.services.on_broadcast_received(frame.payload, frame.sender)
            return
        if not frame.addressed_to(self.node_id):
            if frame.nav > 0:
                self._set_nav(self.sim.now + frame.nav)
                if frame.kind is FrameKind.RTS:
                    # Standard NAV-reset rule: if the medium stays idle
                    # past the point where the answering CTS should
                    # have appeared, the overheard RTS failed and its
                    # reservation is cancelled.
                    self._nav_reset_timer.start(
                        2 * self.phy.sifs
                        + self.phy.cts_duration
                        + 2 * self.phy.slot_time
                    )
            return

        if frame.kind is FrameKind.RTS:
            self._handle_rts(frame)
        elif frame.kind is FrameKind.CTS:
            self._handle_cts(frame)
        elif frame.kind is FrameKind.DATA:
            self._handle_data(frame)
        elif frame.kind is FrameKind.ACK:
            self._handle_ack(frame)

    def on_tx_end(self, frame: Frame) -> None:
        if self.down:
            return  # aborted ghost frames produce no completion
        self._update_busy_meter()
        if frame.kind is FrameKind.RTS:
            self._add_occupancy((self.node_id, frame.receiver), frame.duration)
            self._state = _State.WAIT_CTS
            timeout = (
                self.phy.sifs
                + self.phy.cts_duration
                + self.config.timeout_slack_slots * self.phy.slot_time
            )
            self._cts_timer.start(timeout)
        elif frame.kind is FrameKind.DATA:
            self._add_occupancy((self.node_id, frame.receiver), frame.duration)
            self._state = _State.WAIT_ACK
            timeout = (
                self.phy.sifs
                + self.phy.ack_duration
                + self.config.timeout_slack_slots * self.phy.slot_time
            )
            self._ack_timer.start(timeout)
        elif frame.kind is FrameKind.CTS:
            assert self._response_peer is not None
            self._add_occupancy((self._response_peer, self.node_id), frame.duration)
            self._response_peer = None
            self._state = _State.IDLE
            self.attempt_access()
        elif frame.kind is FrameKind.ACK:
            assert self._response_peer is not None
            self._add_occupancy((self._response_peer, self.node_id), frame.duration)
            self._response_peer = None
            self._state = _State.IDLE
            self.attempt_access()
        elif frame.kind is FrameKind.BROADCAST:
            self._state = _State.IDLE
            self.attempt_access()

    # --- frame handlers ----------------------------------------------------------

    def _handle_rts(self, frame: Frame) -> None:
        if self._state not in (_State.IDLE, _State.DEFER, _State.BACKOFF):
            return
        if self.sim.now < self._nav_until:
            return  # virtual carrier sense forbids responding
        self._interrupt_contention()
        cts_nav = max(0.0, frame.nav - self.phy.sifs - self.phy.cts_duration)
        cts = Frame(
            kind=FrameKind.CTS,
            sender=self.node_id,
            receiver=frame.sender,
            duration=self.phy.cts_duration,
            nav=cts_nav,
            piggyback=self.services.make_piggyback(),
        )
        self._response_peer = frame.sender
        self._schedule_after_sifs(cts, _State.TX_CTS)

    def _handle_cts(self, frame: Frame) -> None:
        if self._state is not _State.WAIT_CTS or self._current is None:
            return
        packet, next_hop = self._current
        if frame.sender != next_hop:
            return
        self._cts_timer.cancel()
        data_duration = self.phy.data_duration(packet.size_bytes)
        data = Frame(
            kind=FrameKind.DATA,
            sender=self.node_id,
            receiver=next_hop,
            duration=data_duration,
            nav=self.phy.sifs + self.phy.ack_duration,
            packet=packet,
            piggyback=self.services.make_piggyback(),
        )
        self._schedule_after_sifs(data, _State.TX_DATA)

    def _handle_data(self, frame: Frame) -> None:
        if self._state not in (_State.IDLE, _State.DEFER, _State.BACKOFF):
            return
        self._interrupt_contention()
        assert frame.packet is not None
        self.data_received += 1
        # Commit to the response before delivering: the delivery callback
        # may re-enter attempt_access, which must not start contending.
        self._state = _State.SIFS_WAIT
        self.services.on_data_received(frame.packet, frame.sender)
        # Built after delivery so the piggybacked buffer state reflects
        # the packet that just arrived (paper §2.2: the ACK immediately
        # informs neighbors of the new buffer state).
        ack = Frame(
            kind=FrameKind.ACK,
            sender=self.node_id,
            receiver=frame.sender,
            duration=self.phy.ack_duration,
            piggyback=self.services.make_piggyback(),
        )
        self._response_peer = frame.sender
        self._schedule_after_sifs(ack, _State.TX_ACK)

    def _handle_ack(self, frame: Frame) -> None:
        if self._state is not _State.WAIT_ACK:
            return
        self._ack_timer.cancel()
        self.data_sent += 1
        self._complete_exchange()

    # --- SIFS-spaced responses ---------------------------------------------------

    def _schedule_after_sifs(self, frame: Frame, next_state: _State) -> None:
        # Abandon any contention in progress: delivery callbacks between
        # the interrupt and this point may have re-armed a defer timer.
        self._interrupt_contention()
        self._defer_timer.cancel()
        self._backoff_timer.cancel()
        self._pending_frame = frame
        self._pending_state = next_state
        self._state = _State.SIFS_WAIT
        self._sifs_timer.start(self.phy.sifs)

    def _on_sifs_done(self) -> None:
        assert self._pending_frame is not None and self._pending_state is not None
        frame = self._pending_frame
        next_state = self._pending_state
        self._pending_frame = None
        self._pending_state = None
        self._state = next_state
        self.channel.transmit(self.node_id, frame)
        self._update_busy_meter()

    # --- timeouts and completion ------------------------------------------------------

    def _on_cts_timeout(self) -> None:
        if self._state is not _State.WAIT_CTS:
            return
        self._retries += 1
        if self._tm is not None:
            self._tm.registry.counter(
                "mac.retries", node=self.node_id, kind="cts_timeout"
            ).inc()
        if self._retries > self.phy.short_retry_limit:
            self._drop_current()
        else:
            self._cw = self.phy.cw_after_retries(self._retries)
            self._backoff_slots = None
            self._state = _State.IDLE
            self.attempt_access()

    def _on_ack_timeout(self) -> None:
        if self._state is not _State.WAIT_ACK:
            return
        self._retries += 1
        if self._tm is not None:
            self._tm.registry.counter(
                "mac.retries", node=self.node_id, kind="ack_timeout"
            ).inc()
        if self._retries > self.phy.short_retry_limit:
            self._drop_current()
        else:
            self._cw = self.phy.cw_after_retries(self._retries)
            self._backoff_slots = None
            self._state = _State.IDLE
            self.attempt_access()

    def _drop_current(self) -> None:
        assert self._current is not None
        packet, next_hop = self._current
        self.drops += 1
        if self._tm is not None:
            self._tm.registry.counter("mac.drops", node=self.node_id).inc()
            self._tm.event(
                self.sim.now,
                "mac.drop",
                node=self.node_id,
                flow=packet.flow_id,
                next_hop=next_hop,
            )
        self.services.on_packet_dropped(packet, next_hop)
        self._complete_exchange()

    def _complete_exchange(self) -> None:
        self._current = None
        self._retries = 0
        self._cw = self.phy.cw_min
        self._backoff_slots = None
        self._state = _State.IDLE
        self.attempt_access()

    # --- NAV ----------------------------------------------------------------------

    def _set_nav(self, until: float) -> None:
        if until > self._nav_until:
            self._nav_until = until
            self._nav_timer.start(until - self.sim.now)
        self._interrupt_contention()

    def _on_nav_expired(self) -> None:
        self.attempt_access()

    def _on_nav_reset_check(self) -> None:
        window = (
            2 * self.phy.sifs + self.phy.cts_duration + 2 * self.phy.slot_time
        )
        heard_since = self._last_busy_start >= self.sim.now - window
        if not heard_since and self._busy == 0 and self._nav_until > self.sim.now:
            self._nav_until = self.sim.now
            self._nav_timer.cancel()
            self.attempt_access()

    # --- upper-layer API -----------------------------------------------------------

    def queue_broadcast(self, payload: object) -> None:
        """Enqueue a control broadcast (sent before data packets)."""
        self._bcast_queue.append(payload)
        self.attempt_access()

    # --- fault injection ------------------------------------------------------------

    def crash(self) -> list[Packet]:
        """Power off the state machine; returns the packets it loses.

        The sensed-energy counter (``_busy``) is deliberately left
        alone: the channel keeps delivering busy start/end pairs to a
        down radio so the counter is balanced when the node recovers.
        """
        self.down = True
        self.channel.abort_transmissions(self.node_id)
        for timer in (
            self._defer_timer,
            self._backoff_timer,
            self._sifs_timer,
            self._cts_timer,
            self._ack_timer,
            self._nav_timer,
            self._nav_reset_timer,
        ):
            timer.cancel()
        lost: list[Packet] = []
        if self._current is not None:
            # A pending DATA frame carries this same packet object, so
            # only the held exchange is counted once.
            lost.append(self._current[0])
            self._current = None
        self._pending_frame = None
        self._pending_state = None
        self._response_peer = None
        self._bcast_queue.clear()
        self._retries = 0
        self._cw = self.phy.cw_min
        self._backoff_slots = None
        self._state = _State.IDLE
        self._update_busy_meter()
        return lost

    def recover(self) -> None:
        """Bring a crashed node back with a fresh state machine."""
        if not self.down:
            raise MacError(f"node {self.node_id} is not down")
        self.down = False
        self._state = _State.IDLE
        self._use_eifs = False
        self._nav_until = self.sim.now
        self._update_busy_meter()
        self.attempt_access()

    def held_packet(self) -> Packet | None:
        """The packet currently owned by the MAC exchange, if any."""
        return self._current[0] if self._current is not None else None


class DcfMac(MacLayer):
    """The DCF substrate: one :class:`_DcfNode` per attached node over
    a shared :class:`~repro.mac.channel.Channel`."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        *,
        phy: PhyProfile = DEFAULT_PHY,
        config: DcfConfig | None = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.phy = phy
        self.config = config or DcfConfig()
        self.channel = Channel(sim, topology)
        self._nodes: dict[int, _DcfNode] = {}

    def attach_node(self, node_id: int, services: NodeServices) -> None:
        if node_id in self._nodes:
            raise MacError(f"node {node_id} already attached")
        node = _DcfNode(
            self.sim, node_id, self.channel, self.phy, self.config, services
        )
        self.channel.register(node_id, node)
        self._nodes[node_id] = node

    def start(self) -> None:
        for node in self._nodes.values():
            node.attempt_access()

    def notify_backlog(self, node_id: int) -> None:
        self._node(node_id).attempt_access()

    def occupancy_snapshot(self, node_id: int) -> dict[Link, float]:
        return dict(self._node(node_id).occupancy)

    def reset_occupancy(self, node_id: int) -> None:
        self._node(node_id).occupancy.clear()

    def busy_snapshot(self, node_id: int) -> float:
        return self._node(node_id).busy_seconds()

    def reset_busy(self, node_id: int) -> None:
        self._node(node_id).reset_busy_meter()

    def send_broadcast(self, node_id: int, payload: object) -> None:
        self._node(node_id).queue_broadcast(payload)

    # --- fault injection hooks ----------------------------------------------------

    def set_node_down(self, node_id: int, down: bool) -> list[Packet]:
        """Crash or recover a node's radio + state machine.

        Returns the packets the MAC loses on a crash (the in-flight
        exchange); empty on recovery.
        """
        node = self._node(node_id)
        if down:
            lost = node.crash()
            self.channel.set_node_down(node_id, True)
            return lost
        self.channel.set_node_down(node_id, False)
        node.recover()
        return []

    def set_link_loss(self, sender: int, receiver: int, rate: float) -> None:
        """Decode-loss probability on the directed link ``sender -> receiver``."""
        self.channel.set_link_loss(sender, receiver, rate)

    def packets_in_flight(self) -> list[Packet]:
        """Packets currently owned by MAC exchanges (for audits)."""
        return [
            packet
            for node in self._nodes.values()
            if (packet := node.held_packet()) is not None
        ]

    def node_stats(self, node_id: int) -> dict[str, int]:
        """MAC counters of one node (sent/received/drops/attempts)."""
        node = self._node(node_id)
        return {
            "data_sent": node.data_sent,
            "data_received": node.data_received,
            "drops": node.drops,
            "rts_attempts": node.rts_attempts,
        }

    def _node(self, node_id: int) -> _DcfNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise MacError(f"node {node_id} not attached") from None
