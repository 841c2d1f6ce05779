"""Measurement-period bookkeeping (§6.2).

During each period a node passively observes the packets it forwards
and receives:

* :class:`MuTracker` records, per adjacent virtual link, the largest
  piggybacked normalized rate and the flows that carried it (the
  *primary flows*);
* at the period's end the protocol combines these with buffer Ω
  values, per-virtual-link packet counts, and MAC channel-occupancy
  snapshots (:func:`combine_occupancy` turns a link's airtime, summed
  over both endpoints, into a fraction of the period).
"""

from __future__ import annotations

from repro.core.conditions import beta_equal
from repro.flows.packet import Packet
from repro.topology.network import Link


class MuTracker:
    """Per-node tracker of piggybacked normalized rates.

    Keyed by (directed link, destination); values map flow id to the
    largest μ that flow's packets carried across that virtual link
    this period.
    """

    def __init__(self) -> None:
        self._seen: dict[tuple[Link, int], dict[int, float]] = {}

    def observe(self, a_link: Link, dest: int, packet: Packet) -> None:
        """Record one forwarded/received packet on a virtual link."""
        if packet.carried_mu is None:
            return
        flows = self._seen.setdefault((a_link, dest), {})
        current = flows.get(packet.flow_id)
        if current is None or packet.carried_mu > current:
            flows[packet.flow_id] = packet.carried_mu

    def summarize(
        self, a_link: Link, dest: int, *, beta: float
    ) -> tuple[float | None, frozenset[int]]:
        """Largest μ observed on the virtual link and its primary flows
        (flows whose μ is β-equal to the maximum)."""
        flows = self._seen.get((a_link, dest))
        if not flows:
            return None, frozenset()
        top = max(flows.values())
        primaries = frozenset(
            flow for flow, mu in flows.items() if beta_equal(mu, top, beta)
        )
        return top, primaries

    def tracked_vlinks(self) -> list[tuple[Link, int]]:
        """All (link, dest) pairs with at least one observation."""
        return sorted(self._seen)

    def reset(self) -> None:
        """Forget everything (start of a new period)."""
        self._seen.clear()


def combine_occupancy(airtime: float, period: float) -> float:
    """Channel occupancy fraction of a link from its airtime this
    period, summed over both endpoints (§6.2: endpoints measure their
    own transmissions and exchange them)."""
    if period <= 0:
        return 0.0
    return min(1.0, airtime / period)
