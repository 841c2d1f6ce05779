"""Adversarial arrival scheduler: phase-locked churn bursts.

GMP measures over a period and adjusts at period boundaries; an
arrival pattern *phase-locked* to that period maximally perturbs the
allocation: each burst lands just after a measurement boundary (so a
full period of measurements is polluted before the first reaction) and
departs just before a later one (so the reaction to the departure is
again maximally stale).  The adversary needs no randomness — the worst
case is a deterministic function of the period — which also makes the
trace trivially replayable.

Pair selection is greedy contention maximization: candidate flows are
ranked by how many physical links their path shares with the standing
(static) flows' paths, so every burst lands on the bottleneck rather
than on idle capacity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ChurnError
from repro.flows.flow import Flow, FlowSet
from repro.routing.table import RouteSet
from repro.topology.network import canonical

if TYPE_CHECKING:
    from repro.churn.spec import ChurnSpec, ChurnTrace

#: Fraction of a period after a boundary at which a burst arrives.
ARRIVAL_PHASE = 0.25
#: Fraction of a period before a boundary at which a burst departs.
DEPARTURE_PHASE = 0.5


def rank_contending_pairs(
    routes: RouteSet, flows: FlowSet
) -> list[tuple[int, int]]:
    """Candidate (source, dest) pairs sorted by descending overlap with
    the static flows' paths (ties broken by the pair itself).

    Overlap counts *undirected* physical links: in a wireless network a
    transmission in either direction contends for the same channel.
    """
    from repro.churn.spec import routable_pairs

    static_links: set[tuple[int, int]] = set()
    for flow in flows:
        for link in routes.path_links(flow.source, flow.destination):
            static_links.add(canonical(link))
    candidates = routable_pairs(routes, flows)
    if not candidates:
        raise ChurnError("no routable (source, dest) pair for churn arrivals")

    def score(pair: tuple[int, int]) -> int:
        return sum(
            canonical(link) in static_links
            for link in routes.path_links(pair[0], pair[1])
        )

    return sorted(candidates, key=lambda pair: (-score(pair), pair))


def build_adversary_trace(
    spec: "ChurnSpec",
    *,
    routes: RouteSet,
    flows: FlowSet,
    duration: float,
    period: float,
) -> "ChurnTrace":
    """Expand an ``adversary`` spec into a concrete trace.

    Wave ``k`` of ``spec.burst`` flows arrives at::

        start + k * (on + off) * period + ARRIVAL_PHASE * period

    and departs ``on * period - DEPARTURE_PHASE * period`` later.  All
    waves reuse the most-contending candidate pairs, cycling when a
    wave is wider than the candidate list.

    Raises:
        ChurnError: when no routable candidate pair exists or the wave
            geometry leaves a non-positive lifetime.
    """
    from repro.churn.spec import ChurnTrace, FlowArrival, FlowDeparture

    lifetime = spec.on_periods * period - DEPARTURE_PHASE * period
    if lifetime <= 0:
        raise ChurnError(
            f"adversary wave lifetime is non-positive: on_periods="
            f"{spec.on_periods} at period {period}"
        )
    ranked = rank_contending_pairs(routes, flows)
    wave_width = min(spec.burst, spec.max_flows)
    skipped_per_wave = spec.burst - wave_width

    stop = duration if spec.stop is None else min(spec.stop, duration)
    events: list[FlowArrival | FlowDeparture] = []
    next_id = flows.next_flow_id()
    skipped = 0
    wave = 0
    while True:
        at = (
            spec.start
            + wave * (spec.on_periods + spec.off_periods) * period
            + ARRIVAL_PHASE * period
        )
        if at >= stop:
            break
        for slot in range(wave_width):
            source, dest = ranked[slot % len(ranked)]
            flow = Flow(
                flow_id=next_id,
                source=source,
                destination=dest,
                weight=spec.weight,
                desired_rate=spec.desired_rate,
                packet_bytes=1024,
            )
            next_id += 1
            events.append(FlowArrival(at=at, flow=flow))
            departure = at + lifetime
            if departure < duration:
                events.append(FlowDeparture(at=departure, flow_id=flow.flow_id))
        skipped += skipped_per_wave
        wave += 1
    events.sort(key=lambda e: (e.at, isinstance(e, FlowDeparture)))
    return ChurnTrace(events=tuple(events), skipped_at_cap=skipped)
