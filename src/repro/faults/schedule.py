"""Fault event types and the validated schedule container.

All events are frozen dataclasses keyed by an absolute simulation time
``at``.  A :class:`FaultSchedule` validates the combination — times,
probability ranges, and crash/recover pairing per node — once at
construction, so a malformed scenario fails before the simulation
starts rather than mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultError
from repro.topology.network import Link, canonical


@dataclass(frozen=True)
class FaultEvent:
    """Base: something happens at simulation time ``at``."""

    at: float


@dataclass(frozen=True)
class NodeCrash(FaultEvent):
    """Node ``node`` fails: radio dies mid-frame, buffered packets are
    lost, its traffic sources stop offering."""

    node: int


@dataclass(frozen=True)
class NodeRecover(FaultEvent):
    """Node ``node`` reboots with empty queues and resumes service."""

    node: int


@dataclass(frozen=True)
class LinkDegrade(FaultEvent):
    """The wireless link ``link`` degrades in both directions.

    At least one of ``loss_rate`` (per-packet loss probability) and
    ``capacity_pps`` (rate ceiling, honored only by rate-based
    substrates) must be given.
    """

    link: Link
    loss_rate: float | None = None
    capacity_pps: float | None = None


@dataclass(frozen=True)
class LinkRestore(FaultEvent):
    """Remove every injected impairment from ``link`` (both directions)."""

    link: Link


@dataclass(frozen=True)
class ControlLoss(FaultEvent):
    """Between ``at`` and ``until``, each GMP rate-adjustment request
    is lost in transit with probability ``drop_prob``."""

    until: float = 0.0
    drop_prob: float = 0.0


@dataclass(frozen=True)
class PacketLossBurst(FaultEvent):
    """Transient loss burst on ``link`` (both directions) from ``at``
    to ``until``; the link is restored to lossless afterwards."""

    until: float = 0.0
    link: Link = (0, 0)
    loss_rate: float = 0.0


class FaultSchedule:
    """An immutable, validated collection of fault events.

    Iteration yields events in time order (ties broken by declaration
    order, so a crash listed before a recovery at the same instant is
    applied first).

    Raises:
        FaultError: on negative times, probabilities outside [0, 1],
            empty windows, a `LinkDegrade` with nothing to degrade,
            unbalanced crash/recover sequences for a node, or two
            windowed faults (control loss, loss bursts on one link)
            whose windows overlap.
    """

    def __init__(self, events: list[FaultEvent] | tuple[FaultEvent, ...] = ()) -> None:
        self._events = tuple(events)
        for event in self._events:
            self._validate_event(event)
        self._validate_crash_pairing()
        self._validate_window_overlap()

    @staticmethod
    def _validate_event(event: FaultEvent) -> None:
        if not isinstance(event, FaultEvent):
            raise FaultError(f"not a FaultEvent: {event!r}")
        if event.at < 0:
            raise FaultError(f"fault time must be >= 0: {event}")
        if isinstance(event, LinkDegrade):
            if event.loss_rate is None and event.capacity_pps is None:
                raise FaultError(
                    f"LinkDegrade needs loss_rate and/or capacity_pps: {event}"
                )
            if event.loss_rate is not None and not 0.0 <= event.loss_rate <= 1.0:
                raise FaultError(f"loss_rate must be in [0, 1]: {event}")
            if event.capacity_pps is not None and event.capacity_pps <= 0:
                raise FaultError(f"capacity_pps must be positive: {event}")
        if isinstance(event, ControlLoss):
            if not 0.0 <= event.drop_prob <= 1.0:
                raise FaultError(f"drop_prob must be in [0, 1]: {event}")
            if event.until <= event.at:
                raise FaultError(f"empty control-loss window: {event}")
        if isinstance(event, PacketLossBurst):
            if not 0.0 <= event.loss_rate <= 1.0:
                raise FaultError(f"loss_rate must be in [0, 1]: {event}")
            if event.until <= event.at:
                raise FaultError(f"empty loss-burst window: {event}")

    def _validate_crash_pairing(self) -> None:
        down: set[int] = set()
        for event in self.in_order():
            if isinstance(event, NodeCrash):
                if event.node in down:
                    raise FaultError(
                        f"node {event.node} crashes at t={event.at:g} while "
                        "already down (overlapping crash windows)"
                    )
                down.add(event.node)
            elif isinstance(event, NodeRecover):
                if event.node not in down:
                    raise FaultError(
                        f"node {event.node} recovers at t={event.at:g} "
                        "without a preceding crash"
                    )
                down.discard(event.node)

    def _validate_window_overlap(self) -> None:
        """Reject windowed faults whose windows overlap on one target.

        The injector applies each window by setting state at ``at`` and
        clearing it at ``until``; two overlapping windows on the same
        target would silently clobber each other (the first ``until``
        clears the second window's effect), so the combination is a
        spec error, not a workload.
        """
        control: list[ControlLoss] = []
        bursts: dict[Link, list[PacketLossBurst]] = {}
        for event in self.in_order():
            if isinstance(event, ControlLoss):
                control.append(event)
            elif isinstance(event, PacketLossBurst):
                bursts.setdefault(canonical(event.link), []).append(event)

        def check(windows: list, target: str) -> None:
            for first, second in zip(windows, windows[1:]):
                if second.at < first.until:
                    raise FaultError(
                        f"overlapping {target} windows: "
                        f"[{first.at:g}, {first.until:g}) and "
                        f"[{second.at:g}, {second.until:g})"
                    )

        check(control, "control-loss")
        for key, events in sorted(bursts.items()):
            check(events, f"loss-burst ({key[0]}-{key[1]})")

    def validate_within(self, duration: float) -> None:
        """Reject events at or windows extending past ``duration``.

        A fault scheduled beyond the run's end silently never fires —
        almost always a misconfigured scenario (e.g. a recovery the
        resilience metrics would wait for in vain) — so the scenario
        runner calls this once the run length is known.

        Raises:
            FaultError: naming the first offending event.
        """
        for event in self.in_order():
            if event.at > duration:
                raise FaultError(
                    f"fault at t={event.at:g} lies beyond the run "
                    f"duration {duration:g}: {event}"
                )
            until = getattr(event, "until", None)
            if until is not None and until > duration:
                raise FaultError(
                    f"fault window [{event.at:g}, {until:g}) extends past "
                    f"the run duration {duration:g}: {event}"
                )

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self.in_order())

    def in_order(self) -> list[FaultEvent]:
        """Events sorted by time (stable on ties)."""
        return sorted(self._events, key=lambda event: event.at)
