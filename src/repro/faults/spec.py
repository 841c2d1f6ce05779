"""The two spellings of a fault: compact text and a JSON body.

A text spec (``--faults``, ``RunSpec.faults``) is a semicolon-separated
list of entries ``kind:TARGET@WHEN[:name=value,...]``::

    crash:NODE@T          node crash at time T
    recover:NODE@T        node recovery
    degrade:I-J@T:loss=P  link loss probability (and/or cap=PPS)
    restore:I-J@T         remove link impairments
    ctrl:P@T1-T2          drop GMP control requests with prob. P
    burst:I-J@T1-T2:loss=P  transient loss burst, auto-restored

Example::

    crash:1@20;recover:1@40;degrade:2-3@10:loss=0.5,cap=120;ctrl:0.5@10-30

A ``POST /faults`` body names the same fields as keys, anchored at the
moment it is applied: ``{"kind": "degrade", "link": [2, 3], "loss":
0.5}``; a windowed kind gives ``for`` seconds in place of ``T1-T2``.
Both reach :func:`~repro.faults.schedule.build_fault`, so they accept
and refuse the same events.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigError, FaultError
from repro.faults.schedule import KINDS, FaultEvent, FaultSchedule, build_fault, kind_named


def fault_from_text(entry: str) -> FaultEvent:
    """The event one text entry spells.

    Raises:
        FaultError: on any syntax or field error.
    """
    kind, _, rest = entry.partition(":")
    event_type = kind_named(kind.strip())
    target, at_sign, tail = rest.partition("@")
    when, _, params = tail.partition(":")
    if not at_sign or (event_type.windowed and "-" not in when):
        raise FaultError(
            f"bad fault entry {entry!r} (expected kind:TARGET@T, or @T1-T2 "
            "for a window, then :name=value,...)"
        )
    values: dict[str, Any] = {event_type.spelling[0]: target, "at": when}
    if event_type.windowed:
        values["at"], _, values["until"] = when.partition("-")
    for item in params.split(",") if params else ():
        name, equals, value = item.partition("=")
        name = name.strip()
        if not equals or name not in event_type.spelling[1:]:
            raise FaultError(f"bad parameter {item!r} in fault entry {entry!r}")
        values[name] = value
    return build_fault(event_type.kind, values)


def fault_from_json(args: dict[str, Any], now: float) -> FaultEvent:
    """The event a ``POST /faults`` body describes, at simulated time
    ``now``.  A windowed kind's ``for`` is measured from ``now``, the
    journaled tick time, so a replayed window is identical.

    Raises:
        ConfigError: on an unknown kind, as on an unknown command.
        FaultError: on a missing, ill-typed or out-of-range field.
    """
    kind = args.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"unknown fault kind {kind!r}; pick from {'/'.join(KINDS)}")
    names = (*KINDS[kind].spelling, "for")
    return build_fault(kind, {"at": now, **{name: args.get(name) for name in names}})


def parse_fault_spec(spec: str) -> FaultSchedule:
    """Parse the text fault syntax into a validated schedule.

    Raises:
        FaultError: on any syntax or validation error.
    """
    entries = [entry.strip() for entry in spec.split(";") if entry.strip()]
    if not entries:
        raise FaultError("empty fault spec")
    return FaultSchedule([fault_from_text(entry) for entry in entries])
