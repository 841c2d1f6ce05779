"""End-of-run invariant audit.

Packet conservation per flow: every packet a source successfully
injected must be accounted for exactly once —

    injected = delivered + buffer_drops + mac_drops + crash_losses
               + in_flight

where *in_flight* counts packets still sitting in some queue or held
inside the MAC when the run stopped.  A nonzero residual means a layer
is silently dropping or duplicating packets.

The strict balance holds on the fluid substrate.  The packet-level DCF
can legitimately *duplicate* a delivery (a lost ACK makes the sender
retransmit a packet the receiver already accepted), so the scenario
runner enables the strict check by default only on ``fluid``; the
non-strict audit still verifies that no counter is negative and that
no rate or occupancy went below zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvariantError
from repro.flows.flow import FlowSet
from repro.flows.traffic import TrafficSource
from repro.mac.base import MacLayer
from repro.stack import NodeStack


@dataclass
class FlowAudit:
    """Per-flow conservation ledger."""

    flow_id: int
    injected: int = 0
    delivered: int = 0
    buffer_drops: int = 0
    mac_drops: int = 0
    crash_losses: int = 0
    in_flight: int = 0

    @property
    def residual(self) -> int:
        """``injected - (delivered + all losses + in_flight)``; zero
        when conservation holds."""
        return self.injected - (
            self.delivered
            + self.buffer_drops
            + self.mac_drops
            + self.crash_losses
            + self.in_flight
        )


@dataclass
class InvariantReport:
    """Outcome of :func:`audit_run`.

    Attributes:
        flows: per-flow ledgers.
        negative_values: human-readable descriptions of negative
            rates/occupancies/counters found.
        strict: whether conservation residuals count as violations.
    """

    flows: dict[int, FlowAudit] = field(default_factory=dict)
    negative_values: list[str] = field(default_factory=list)
    strict: bool = True

    def violations(self) -> list[str]:
        """Every violated invariant, as one message each."""
        found = list(self.negative_values)
        if self.strict:
            for flow_id in sorted(self.flows):
                audit = self.flows[flow_id]
                if audit.residual != 0:
                    found.append(
                        f"flow {flow_id}: conservation residual "
                        f"{audit.residual} (injected={audit.injected}, "
                        f"delivered={audit.delivered}, "
                        f"buffer_drops={audit.buffer_drops}, "
                        f"mac_drops={audit.mac_drops}, "
                        f"crash_losses={audit.crash_losses}, "
                        f"in_flight={audit.in_flight})"
                    )
        return found

    @property
    def ok(self) -> bool:
        """True when no invariant is violated."""
        return not self.violations()

    def check(self) -> None:
        """Raise :class:`InvariantError` listing every violation."""
        found = self.violations()
        if found:
            raise InvariantError(
                "invariant audit failed: " + "; ".join(found)
            )


def audit_run(
    *,
    flows: FlowSet,
    sources: dict[int, TrafficSource],
    stacks: dict[int, NodeStack],
    mac: MacLayer,
    rates: dict[int, float] | None = None,
    strict: bool = True,
) -> InvariantReport:
    """Audit one finished run for conservation and sign invariants.

    Args:
        flows: the scenario's flows.
        sources: traffic sources by flow id.
        stacks: node stacks by node id.
        mac: the MAC substrate (its held packets count as in-flight).
        rates: optional measured per-flow rates to sign-check.
        strict: enforce exact per-flow conservation (fluid substrate).
    """
    report = InvariantReport(strict=strict)
    for flow in flows:
        report.flows[flow.flow_id] = FlowAudit(flow_id=flow.flow_id)

    for flow_id, source in sources.items():
        audit = report.flows.setdefault(flow_id, FlowAudit(flow_id=flow_id))
        audit.injected = source.admitted
        for name in ("generated", "admitted", "rejected", "limited"):
            value = getattr(source, name)
            if value < 0:
                report.negative_values.append(
                    f"flow {flow_id}: source counter {name} = {value}"
                )

    # In-flight packets, deduplicated by object identity: the same
    # Packet object can be visible twice (e.g. held by a DCF sender
    # *and* already admitted downstream after an ACK loss), and a
    # MAC-held packet whose ``delivered_at`` is set already counts in
    # the delivered column.
    seen: set[int] = set()
    pending = []
    for stack in stacks.values():
        pending.extend(stack.buffer.queued_packets())
    pending.extend(mac.packets_in_flight().values())
    for packet in pending:
        if id(packet) in seen or packet.delivered_at is not None:
            continue
        seen.add(id(packet))
        audit = report.flows.setdefault(
            packet.flow_id, FlowAudit(flow_id=packet.flow_id)
        )
        audit.in_flight += 1

    for node_id, stack in stacks.items():
        if stack.buffer.backlog() < 0:  # pragma: no cover - deques cannot
            report.negative_values.append(f"node {node_id}: negative backlog")
        for flow_id, count in stack.delivered.items():
            report.flows.setdefault(
                flow_id, FlowAudit(flow_id=flow_id)
            ).delivered += count
        for flow_id, count in stack.buffer.drops_by_flow.items():
            report.flows.setdefault(
                flow_id, FlowAudit(flow_id=flow_id)
            ).buffer_drops += count
        for flow_id, count in stack.mac_drop_flows.items():
            report.flows.setdefault(
                flow_id, FlowAudit(flow_id=flow_id)
            ).mac_drops += count
        for flow_id, count in stack.crash_losses.items():
            report.flows.setdefault(
                flow_id, FlowAudit(flow_id=flow_id)
            ).crash_losses += count
        for a_link, airtime in mac.occupancy_snapshot(node_id).items():
            if airtime < 0:
                report.negative_values.append(
                    f"node {node_id}: negative occupancy {airtime} on {a_link}"
                )

    if rates is not None:
        for flow_id, rate in rates.items():
            if rate < 0:
                report.negative_values.append(
                    f"flow {flow_id}: negative rate {rate}"
                )

    return report
