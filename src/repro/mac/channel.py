"""The shared radio medium.

The channel implements the protocol interference model on top of the
topology's geometry:

* every node within ``cs_range`` of a transmitter senses energy for
  the frame's whole airtime (physical carrier sense);
* a frame is decoded by a node within ``tx_range`` of the sender iff
  no *other* transmission from a node within ``cs_range`` of the
  receiver overlapped it in time and the receiver was not itself
  transmitting;
* a sensed-but-not-decoded frame (out of decode range, or collided)
  is reported as *corrupted*, which makes the listener defer EIFS —
  the asymmetry responsible for 802.11's hidden/exposed terminal
  unfairness that the paper's Table 3 exhibits.

Propagation delay is neglected (sub-microsecond at these ranges).
Collisions are tracked incrementally: when a transmission starts it
corruption-marks every overlapping transmission (and is marked by
them), so no airtime scanning is needed at frame end.

The geometry never changes during a run, so each sender's fan-out is
resolved once into a *delivery plan* — its sensing radios in
registration order, each with its decode verdict — and every frame
replays it.  What can change per frame (downed nodes, injected link
loss, collisions) is still checked per frame.

Fault injection (:mod:`repro.faults`) hooks in at this layer:

* per-directed-link loss rates (:meth:`Channel.set_link_loss`) turn a
  would-be-clean decode into a corrupted sense, modeling a degraded
  radio link;
* downed nodes (:meth:`Channel.set_node_down`) neither decode nor
  sense anything while down — but busy start/end callbacks are still
  delivered so the carrier-sense counters stay balanced across a
  crash/recover cycle;
* :meth:`Channel.abort_transmissions` cancels a crashed sender's
  in-flight frame: the energy stays on the air (it keeps corrupting
  overlapping receptions) but nobody decodes it and the sender gets no
  ``on_tx_end``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import MacError
from repro.mac.frames import Frame
from repro.sim.kernel import Simulator
from repro.topology.network import Topology


class Radio(Protocol):
    """Callbacks a node's radio registers with the channel."""

    def on_busy_start(self) -> None:
        """Some transmission within carrier-sense range began."""

    def on_busy_end(self) -> None:
        """A sensed transmission ended."""

    def on_frame_received(self, frame: Frame) -> None:
        """A frame was decoded successfully (any addressee)."""

    def on_frame_corrupted(self) -> None:
        """A sensed frame ended but could not be decoded."""

    def on_tx_end(self, frame: Frame) -> None:
        """This node's own transmission finished."""


@dataclass(slots=True)
class _Transmission:
    frame: Frame
    sender: int
    start: float
    end: float
    corrupted_at: set[int] = field(default_factory=set)
    aborted: bool = False


#: One sender's fan-out: ``(node id, radio, decodes)`` per sensing
#: radio, in registration order.
_Plan = list[tuple[int, Radio, bool]]


class Channel:
    """Event-driven broadcast medium over a :class:`Topology`."""

    def __init__(self, sim: Simulator, topology: Topology) -> None:
        self.sim = sim
        self.topology = topology
        self._radios: dict[int, Radio] = {}
        self._sensers: dict[int, list[int]] = {}
        self._plans: dict[int, _Plan] = {}
        self._active: list[_Transmission] = []
        self._transmitting: set[int] = set()
        self._down: set[int] = set()
        self._link_loss: dict[tuple[int, int], float] = {}
        self._loss_rng = sim.rng.stream("channel.loss")
        # One channel.tx telemetry event per frame, when the run asks.
        tm = sim.telemetry
        self._tm = tm if tm is not None and tm.wants("channel.tx") else None
        # Statistics.
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_corrupted = 0

    # --- fault injection hooks -----------------------------------------------

    def set_link_loss(self, sender: int, receiver: int, rate: float) -> None:
        """Install a decode-loss probability on the directed link
        ``sender -> receiver``; ``rate`` 0 removes it.

        Raises:
            MacError: if ``rate`` is outside [0, 1].
        """
        if not 0.0 <= rate <= 1.0:
            raise MacError(f"loss rate must be in [0, 1]: {rate}")
        if rate == 0.0:
            self._link_loss.pop((sender, receiver), None)
        else:
            self._link_loss[(sender, receiver)] = rate

    def set_node_down(self, node_id: int, down: bool) -> None:
        """Mark a node's radio as crashed (no decode, no sense) or back up."""
        self.topology.node(node_id)
        if down:
            self._down.add(node_id)
        else:
            self._down.discard(node_id)

    def abort_transmissions(self, node_id: int) -> None:
        """Cancel the in-flight transmissions of a crashed sender.

        The frame's energy stays on the air until its scheduled end
        (overlapping receptions remain corrupted) but nothing decodes
        it and the sender receives no ``on_tx_end`` — the sender may
        transmit again after recovery without waiting for the ghost
        frame to clear.
        """
        for transmission in self._active:
            if transmission.sender == node_id and not transmission.aborted:
                transmission.aborted = True
        self._transmitting.discard(node_id)

    def register(self, node_id: int, radio: Radio) -> None:
        """Attach a node's radio callbacks.

        Raises:
            MacError: if the node is already registered.
        """
        if node_id in self._radios:
            raise MacError(f"radio for node {node_id} already registered")
        self.topology.node(node_id)
        self._radios[node_id] = radio
        self._sensers.clear()
        self._plans.clear()

    def is_transmitting(self, node_id: int) -> bool:
        """True while ``node_id`` has a frame on the air."""
        return node_id in self._transmitting

    def _sensing_radios(self, sender: int) -> list[int]:
        """Registered nodes that sense (equivalently: whose receptions
        are corrupted by) ``sender``'s transmissions, in registration
        order — the order busy/decode callbacks fire in, so it is part
        of the replay digest and must not change.  Cached per sender
        (cleared on :meth:`register`): this runs for every frame on
        the air, and used to rescan every registered radio."""
        cached = self._sensers.get(sender)
        if cached is None:
            members = self.topology.sensing_nodes(sender)
            cached = [node_id for node_id in self._radios if node_id in members]
            self._sensers[sender] = cached
        return cached

    def _plan(self, sender: int) -> _Plan:
        """``sender``'s delivery plan: :meth:`_sensing_radios` with each
        radio and its decode verdict resolved (cleared on
        :meth:`register`)."""
        plan = self._plans.get(sender)
        if plan is None:
            decoders = self.topology.neighbors(sender)
            plan = [
                (node_id, self._radios[node_id], node_id in decoders)
                for node_id in self._sensing_radios(sender)
            ]
            self._plans[sender] = plan
        return plan

    def transmit(self, sender: int, frame: Frame) -> None:
        """Put ``frame`` on the air from ``sender``.

        Raises:
            MacError: if the sender is unregistered or already
                transmitting.
        """
        if sender not in self._radios:
            raise MacError(f"node {sender} has no registered radio")
        if sender in self._down:
            raise MacError(f"node {sender} is down and cannot transmit")
        if sender in self._transmitting:
            raise MacError(f"node {sender} is already transmitting")
        if frame.duration <= 0:
            raise MacError(f"frame duration must be positive: {frame.duration}")

        now = self.sim.now
        transmission = _Transmission(
            frame=frame, sender=sender, start=now, end=now + frame.duration
        )
        # Mutual corruption marking with every overlapping transmission.
        for other in self._active:
            # The new transmission corrupts receptions of `other` at all
            # nodes the new sender interferes with, and vice versa.
            other.corrupted_at.update(self._sensing_radios(sender))
            transmission.corrupted_at.update(self._sensing_radios(other.sender))
            # A transmitting node cannot receive.
            other.corrupted_at.add(sender)
            transmission.corrupted_at.add(other.sender)

        self._active.append(transmission)
        self._transmitting.add(sender)
        self.frames_sent += 1
        if self._tm is not None:
            self._tm.event(now, "channel.tx", frame=frame.describe())

        # Down nodes still appear in the sensing list: busy start/end
        # pairs must stay balanced even when the node crashes or
        # recovers mid-frame, so gating on `down` happens at decode
        # time, not here.
        plan = self._plan(sender)
        for _, radio, _ in plan:
            radio.on_busy_start()
        self.sim.call_at(
            transmission.end,
            lambda: self._finish(transmission, plan),
            tag="channel.end",
        )

    def _finish(self, transmission: _Transmission, plan: _Plan) -> None:
        self._active.remove(transmission)
        aborted = transmission.aborted
        if not aborted:
            # An aborted sender was already cleared — and may have
            # recovered and started a *new* transmission meanwhile,
            # whose flag must not be clobbered by the ghost's end.
            self._transmitting.discard(transmission.sender)
        sender = transmission.sender
        frame = transmission.frame

        for _, radio, _ in plan:
            radio.on_busy_end()

        down = self._down
        corrupted_at = transmission.corrupted_at
        for node_id, radio, decodable in plan:
            if node_id in down:
                continue  # a crashed radio decodes nothing
            clean = decodable and not aborted and node_id not in corrupted_at
            if clean and self._link_loss and self._lost(sender, node_id):
                clean = False
            if clean:
                self.frames_delivered += 1
                radio.on_frame_received(frame)
            else:
                self.frames_corrupted += 1
                radio.on_frame_corrupted()

        if not transmission.aborted:
            self._radios[sender].on_tx_end(frame)

    def _lost(self, sender: int, receiver: int) -> bool:
        rate = self._link_loss.get((sender, receiver))
        return rate is not None and float(self._loss_rng.random()) < rate
