"""Fault kinds and the validated schedule container.

Each kind of fault is one frozen dataclass, declared once: its name
(the text entry ``kind:...``, a ``POST /faults`` body's ``"kind"`` and,
as ``fault.<kind>``, its kernel tag), the fields both spellings use,
its range checks (at construction: an event that exists is well
formed), its checks against a run and its effect on the MAC, the node
stacks, the traffic sources and GMP.  Both spellings
(:mod:`repro.faults.spec`) reach the one builder, :func:`build_fault`.
A run applies every fault, scheduled or live, through
``Session.inject_fault``.  A :class:`FaultSchedule` adds the
cross-event checks (crash/recover pairing, overlapping windows) before
the simulation starts; ``inject_fault`` runs them again on each live
fault, against the run's other faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, ClassVar

from repro.errors import FaultError
from repro.mac.base import MacLayer
from repro.topology.network import Link, canonical

#: Spelled field name -> (event attribute, smallest and largest value,
#: what the field must be).  ``for`` is a window's length: it fills
#: ``until``.  A capacity's lower bound is the smallest float above 0.
FIELDS: dict[str, tuple[str, float, float, str]] = {
    "at": ("at", 0.0, math.inf, "a time >= 0"),
    "until": ("until", 0.0, math.inf, "a time >= 0"),
    "for": ("until", 0.0, math.inf, "seconds >= 0"),
    "node": ("node", -math.inf, math.inf, "a node id"),
    "link": ("link", -math.inf, math.inf, "a link I-J or [i, j]"),
    "drop": ("drop_prob", 0.0, 1.0, "a probability in [0, 1]"),
    "loss": ("loss_rate", 0.0, 1.0, "a probability in [0, 1]"),
    "cap": ("capacity_pps", math.ulp(0.0), math.inf, "a rate > 0"),
}


def decode(name: str, value: Any) -> Any:
    """The spelled field ``name`` of ``value``, a text token or a JSON
    value alike, as its event attribute; FaultError when it is
    ill-typed or out of range."""
    _attr, low, high, expected = FIELDS[name]
    if name == "link":
        ends = value.split("-") if isinstance(value, str) else value
        if isinstance(ends, (list, tuple)) and len(ends) == 2:
            return (decode("node", ends[0]), decode("node", ends[1]))
    else:
        try:
            number = math.nan if isinstance(value, bool) else float(value)
        except (TypeError, ValueError):
            number = math.nan
        if low <= number <= high and (name != "node" or number.is_integer()):
            return int(number) if name == "node" else number
    raise FaultError(f"bad {name} {value!r} (expected {expected})")


# --- the kinds --------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class FaultEvent:
    """Base: something happens at simulation time ``at``.

    A kind declares ``kind``; ``spelling``, its fields by spelled name
    (the first is the target written before ``@`` in the text form, the
    rest ``name=value`` parameters after it; each is also a
    ``POST /faults`` key); ``optional``, the spelled fields it may omit;
    and ``windowed`` when it lasts from ``at`` to ``until`` (``T1-T2``
    in the text form, ``for`` seconds in a body).
    """

    at: float

    kind: ClassVar[str]
    spelling: ClassVar[tuple[str, ...]]
    optional: ClassVar[tuple[str, ...]] = ()
    windowed: ClassVar[bool] = False

    def __post_init__(self) -> None:
        for name in self.names():
            attr = FIELDS[name][0]
            value = getattr(self, attr)
            if value is not None:
                object.__setattr__(self, attr, decode(name, value))

    @classmethod
    def names(cls) -> tuple[str, ...]:
        """Every spelled field of the kind, times first."""
        return ("at", "until")[: 1 + cls.windowed] + cls.spelling

    @property
    def tag(self) -> str:  # the kernel tag it is applied under
        return f"fault.{self.kind}"

    def nodes(self) -> tuple[int, ...]:
        """The nodes this fault acts on: its target (the first spelled
        field), when that is a node or a link."""
        target = getattr(self, FIELDS[self.spelling[0]][0])
        return {"node": (target,), "link": target}.get(self.spelling[0], ())

    def check(self, run: Any) -> None:
        """Refuse with :class:`FaultError` what ``run`` (a ``Session``)
        cannot apply: a node it does not have, a hook its substrate or
        protocol lacks, a window already over."""
        for node in self.nodes():
            if node not in run.stacks:
                raise FaultError(f"fault targets unknown node {node}: {self}")

    def apply(self, run: Any) -> str:
        """Act on ``run`` now; returns the fault-log line.  Refuses with
        :class:`FaultError`, before any layer changes, what the run's
        current state does not admit."""
        raise NotImplementedError


@dataclass(frozen=True, kw_only=True)
class _Windowed(FaultEvent):
    """A fault that lasts from ``at`` to ``until``."""

    until: float
    windowed = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.until > self.at:
            raise FaultError(f"empty {self.kind} window: {self}")

    def check(self, run: Any) -> None:
        super().check(run)
        if self.until <= run.sim.now:
            raise FaultError(f"{self.kind} window ends in the past: {self}")


def _sources_at(run: Any, node: int) -> list[Any]:
    return [source for source in run.sources.values() if source.flow.source == node]


@dataclass(frozen=True, kw_only=True)
class NodeCrash(FaultEvent):
    """Node ``node`` fails: radio dies mid-frame, buffered packets are
    lost, its traffic sources stop offering, GMP distrusts it."""

    node: int
    kind = "crash"
    spelling = ("node",)

    def apply(self, run: Any) -> str:
        stack = run.stacks[self.node]
        if not stack.alive:
            raise FaultError(f"node {self.node} is already down: {self}")
        lost = run.mac.set_node_down(self.node, True)
        stack.crash(lost)
        for source in _sources_at(run, self.node):
            source.pause()
        if run.gmp is not None:
            run.gmp.on_node_down(self.node)
        return f"crash node {self.node} ({len(lost)} in-flight packets lost)"


@dataclass(frozen=True, kw_only=True)
class NodeRecover(FaultEvent):
    """Node ``node`` reboots with empty queues and resumes service."""

    node: int
    kind = "recover"
    spelling = ("node",)

    def apply(self, run: Any) -> str:
        stack = run.stacks[self.node]
        if stack.alive:
            raise FaultError(f"node {self.node} is not down: {self}")
        run.mac.set_node_down(self.node, False)
        stack.recover()
        for source in _sources_at(run, self.node):
            source.resume()
        if run.gmp is not None:
            run.gmp.on_node_up(self.node)
        return f"recover node {self.node}"


def _degrade(run: Any, a_link: Link, loss: float | None, capacity: float | None) -> str:
    i, j = a_link
    parts = []
    if loss is not None:
        run.mac.set_link_loss(i, j, loss)
        run.mac.set_link_loss(j, i, loss)
        parts.append(f"loss={loss:g}")
    if capacity is not None:
        run.mac.set_link_capacity(i, j, capacity)
        run.mac.set_link_capacity(j, i, capacity)
        parts.append(f"cap={capacity:g}pps")
    return f"degrade link {i}-{j} ({', '.join(parts)})"


def _caps_links(mac: MacLayer) -> bool:
    return type(mac).set_link_capacity is not MacLayer.set_link_capacity


@dataclass(frozen=True, kw_only=True)
class LinkDegrade(FaultEvent):
    """The wireless link ``link`` degrades in both directions.

    At least one of ``loss_rate`` (per-packet loss probability) and
    ``capacity_pps`` (rate ceiling, honored only by rate-based
    substrates) must be given.
    """

    link: Link
    loss_rate: float | None = None
    capacity_pps: float | None = None
    kind = "degrade"
    spelling = ("link", "loss", "cap")
    optional = ("loss", "cap")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.loss_rate is None and self.capacity_pps is None:
            raise FaultError(f"LinkDegrade needs loss_rate and/or capacity_pps: {self}")

    def check(self, run: Any) -> None:
        super().check(run)
        if self.capacity_pps is not None and not _caps_links(run.mac):
            raise FaultError(
                f"{type(run.mac).__name__} cannot degrade link capacity "
                f"(packet-level substrate); use a loss rate instead: {self}"
            )

    def apply(self, run: Any) -> str:
        return _degrade(run, self.link, self.loss_rate, self.capacity_pps)


@dataclass(frozen=True, kw_only=True)
class LinkRestore(FaultEvent):
    """Remove every injected impairment from ``link`` (both directions)."""

    link: Link
    kind = "restore"
    spelling = ("link",)

    def apply(self, run: Any) -> str:
        i, j = self.link
        run.mac.set_link_loss(i, j, 0.0)
        run.mac.set_link_loss(j, i, 0.0)
        if _caps_links(run.mac):
            run.mac.set_link_capacity(i, j, None)
            run.mac.set_link_capacity(j, i, None)
        return f"restore link {i}-{j}"


@dataclass(frozen=True, kw_only=True)
class ControlLoss(_Windowed):
    """Between ``at`` and ``until``, each GMP rate-adjustment request
    is lost in transit with probability ``drop_prob``."""

    drop_prob: float
    kind = "ctrl"
    spelling = ("drop",)

    def check(self, run: Any) -> None:
        super().check(run)
        if run.gmp is None:
            raise FaultError(f"ControlLoss requires the GMP protocol engine: {self}")

    def apply(self, run: Any) -> str:
        run.gmp.set_control_loss(self.drop_prob, self.until)
        return f"control loss p={self.drop_prob:g} until t={self.until:g}"


@dataclass(frozen=True, kw_only=True)
class PacketLossBurst(_Windowed):
    """Transient loss burst on ``link`` (both directions) from ``at``
    to ``until``; the link is restored to lossless afterwards, under
    the burst's own tag."""

    link: Link
    loss_rate: float
    kind = "burst"
    spelling = ("link", "loss")

    def apply(self, run: Any) -> str:
        text = _degrade(run, self.link, self.loss_rate, None)
        restore = LinkRestore(at=self.until, link=self.link)
        run.sim.call_at(self.until, partial(run.inject_fault, restore), tag=self.tag)
        return text


#: Every fault kind by its name.
KINDS: dict[str, type[FaultEvent]] = {
    kind.kind: kind
    for kind in (NodeCrash, NodeRecover, LinkDegrade, LinkRestore, ControlLoss, PacketLossBurst)
}


def kind_named(kind: Any) -> type[FaultEvent]:
    """The fault kind called ``kind``; FaultError for any other name."""
    event_type = KINDS.get(kind)
    if event_type is None:
        raise FaultError(f"unknown fault kind {kind!r} (expected {', '.join(KINDS)})")
    return event_type


def build_fault(kind: str, values: dict[str, Any]) -> FaultEvent:
    """The one builder: the ``kind`` fault of ``values``, keyed by
    spelled field name, as text tokens or JSON values.  A windowed kind
    takes ``until``, or ``for`` seconds after ``at``.

    Raises:
        FaultError: on an unknown kind, or a missing, ill-typed or
            out-of-range field.
    """
    event_type = kind_named(kind)
    if event_type.windowed and values.get("until") is None and values.get("for") is not None:
        values = {**values, "until": decode("at", values["at"]) + decode("for", values["for"])}
    fields = {}
    for name in event_type.names():
        if values.get(name) is not None:
            fields[FIELDS[name][0]] = values[name]
        elif name not in event_type.optional:
            raise FaultError(f"{kind} fault needs {'for' if name == 'until' else name!r}")
    return event_type(**fields)


class FaultSchedule:
    """An immutable, validated collection of fault events.

    Iteration yields events in time order (ties broken by declaration
    order, so a crash listed before a recovery at the same instant is
    applied first).  ``crash_windows`` lists each crash as ``(node,
    crash time, recovery time)``, ``inf`` for one never recovered.

    Raises:
        FaultError: on something that is not a fault event, unbalanced
            crash/recover sequences for a node, or two windowed faults
            (control loss, loss bursts on one link) whose windows
            overlap.  Each event checked its own fields when it was made.
    """

    def __init__(self, events: list[FaultEvent] | tuple[FaultEvent, ...] = ()) -> None:
        for event in events:
            if not isinstance(event, FaultEvent):
                raise FaultError(f"not a FaultEvent: {event!r}")
        self._events = sorted(events, key=lambda event: event.at)
        self.crash_windows = self._pair_crashes()
        self._validate_window_overlap()

    def _pair_crashes(self) -> list[tuple[int, float, float]]:
        windows: list[tuple[int, float, float]] = []
        down: dict[int, float] = {}
        for event in self._events:
            if isinstance(event, NodeCrash):
                if event.node in down:
                    raise FaultError(f"node {event.node} crashes at t={event.at:g} while "
                                     "already down (overlapping crash windows)")
                down[event.node] = event.at
            elif isinstance(event, NodeRecover):
                if event.node not in down:
                    raise FaultError(f"node {event.node} recovers at t={event.at:g} "
                                     "without a preceding crash")
                windows.append((event.node, down.pop(event.node), event.at))
        return windows + [(node, at, math.inf) for node, at in down.items()]

    def _validate_window_overlap(self) -> None:
        """Reject windowed faults whose windows overlap on one target.

        A window sets state at ``at`` and clears it at ``until``; two
        overlapping windows on the same target would silently clobber
        each other (the first ``until`` clears the second window's
        effect), so the combination is a spec error, not a workload.
        """
        targets: dict[str, list[_Windowed]] = {}
        for event in self._events:
            if isinstance(event, ControlLoss):
                targets.setdefault("control-loss", []).append(event)
            elif isinstance(event, PacketLossBurst):
                i, j = canonical(event.link)
                targets.setdefault(f"loss-burst ({i}-{j})", []).append(event)
        for target, windows in sorted(targets.items()):
            for first, second in zip(windows, windows[1:]):
                if second.at < first.until:
                    raise FaultError(
                        f"overlapping {target} windows: [{first.at:g}, {first.until:g}) "
                        f"and [{second.at:g}, {second.until:g})"
                    )

    def validate_within(self, duration: float) -> None:
        """Reject events at or windows extending past ``duration``.

        A fault scheduled beyond the run's end silently never fires —
        almost always a misconfigured scenario (e.g. a recovery the
        resilience metrics would wait for in vain) — so the scenario
        runner calls this once the run length is known.

        Raises:
            FaultError: naming the first offending event.
        """
        for event in self._events:
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
        return list(self._events)
