"""Declarative fault injection for scenario runs.

Each fault kind — node crashes and recoveries, link degradation (loss
rate or capacity) and its restore, control-plane loss windows, and
packet-loss bursts — is one frozen event class in
``repro.faults.schedule`` that holds its spellings, its checks and its
effect on the MAC substrate, the node stacks, the traffic sources and
the GMP engine.  A :class:`FaultSchedule` is a validated list of timed
events; a run applies each one, scheduled or live, through
``Session.inject_fault``.

``repro.faults.spec`` reads the compact text syntax and the JSON body
of ``POST /faults``; ``repro.faults.invariants`` provides the
end-of-run packet-conservation audit.
"""

from repro.faults.invariants import FlowAudit, InvariantReport, audit_run
from repro.faults.schedule import (
    ControlLoss,
    FaultEvent,
    FaultSchedule,
    LinkDegrade,
    LinkRestore,
    NodeCrash,
    NodeRecover,
    PacketLossBurst,
)
from repro.faults.spec import parse_fault_spec

__all__ = [
    "ControlLoss",
    "FaultEvent",
    "FaultSchedule",
    "FlowAudit",
    "InvariantReport",
    "LinkDegrade",
    "LinkRestore",
    "NodeCrash",
    "NodeRecover",
    "PacketLossBurst",
    "audit_run",
    "parse_fault_spec",
]
