"""The four local conditions and the adjustment rules they trigger.

Pure decision logic (§4.3, §5.3, §6.3): given one virtual node's or
one wireless link's *local view* of the last measurement period,
return the rate-adjustment requests to issue.  Everything here is
side-effect free so the protocol rules are unit-testable without a
simulator.

β-semantics (§6.3): two quantities are *equal* when they differ by at
most β of the larger; one is *smaller* only when it is smaller by more
than that margin.  At β = 0 these are exact equality and exact order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.classification import LinkType
from repro.core.requests import RateRequest, RequestKind
from repro.topology.network import Link

#: When L1 exceeds this multiple of S1, the source and buffer-saturated
#: conditions halve/double rates instead of stepping by β (§6.3).
BIG_GAP_FACTOR = 3.0


def beta_equal(a: float, b: float, beta: float) -> bool:
    """True when ``a`` and ``b`` differ by at most ``beta`` of the larger
    (at ``beta`` = 0: exactly equal)."""
    scale = max(abs(a), abs(b))
    if scale == 0:
        return True
    return abs(a - b) <= beta * scale


def beta_less(a: float, b: float, beta: float) -> bool:
    """True when ``a`` is smaller than ``b`` by more than the β margin."""
    return a < b and not beta_equal(a, b, beta)


# --- source + buffer-saturated conditions (per saturated virtual node) -------


@dataclass(frozen=True)
class UpstreamView:
    """What a virtual node knows about one of its upstream virtual links."""

    link: Link
    mu: float | None  # largest normalized rate carried last period
    link_type: LinkType
    primaries: frozenset[int]  # sources of the packets carrying mu


@dataclass(frozen=True)
class VirtualNodeView:
    """Local view of one saturated virtual node ``(node, dest)``.

    Attributes:
        node: physical node id.
        dest: destination of the virtual network.
        local_flow_mus: normalized rate of each local flow at this
            virtual node (flows sourced here for ``dest``).
        limited_flows: local flows that currently have a rate limit
            (only those can honor an increase request).
        upstream: views of the upstream virtual links.
    """

    node: int
    dest: int
    local_flow_mus: dict[int, float] = field(default_factory=dict)
    limited_flows: frozenset[int] = frozenset()
    upstream: tuple[UpstreamView, ...] = ()


def evaluate_source_and_buffer_conditions(
    view: VirtualNodeView, *, beta: float
) -> list[RateRequest]:
    """Test the source and buffer-saturated conditions at one
    saturated virtual node; return the adjustment requests of §6.3.

    L1 is the largest normalized rate among upstream links and local
    flows; S1 the smallest among local flows and *buffer-saturated*
    upstream links.  When S1 is β-smaller than L1, flows at L1 are
    asked down and flows at S1 (on buffer-saturated links, or local
    flows with a limit) are asked up; the step is halving/doubling when
    ``L1 > BIG_GAP_FACTOR * S1`` and ±β otherwise.
    """
    upstream_mus = [u.mu for u in view.upstream if u.mu is not None]
    candidates_l1 = upstream_mus + list(view.local_flow_mus.values())
    if not candidates_l1:
        return []
    l1 = max(candidates_l1)

    s1_candidates = list(view.local_flow_mus.values()) + [
        u.mu
        for u in view.upstream
        if u.mu is not None and u.link_type is LinkType.BUFFER_SATURATED
    ]
    if not s1_candidates:
        return []
    s1 = min(s1_candidates)

    if not beta_less(s1, l1, beta):
        return []  # conditions satisfied

    big_gap = l1 > BIG_GAP_FACTOR * s1
    down = 0.5 if big_gap else 1.0 - beta
    up = 2.0 if big_gap else 1.0 + beta

    requests: list[RateRequest] = []
    for upstream in view.upstream:
        if upstream.mu is None:
            continue
        if beta_equal(upstream.mu, l1, beta):
            requests.extend(
                RateRequest(flow, RequestKind.DECREASE, down, view.node, "buffer")
                for flow in sorted(upstream.primaries)
            )
        if upstream.link_type is LinkType.BUFFER_SATURATED and beta_equal(
            upstream.mu, s1, beta
        ):
            requests.extend(
                RateRequest(flow, RequestKind.INCREASE, up, view.node, "buffer")
                for flow in sorted(upstream.primaries)
            )
    for flow, mu in sorted(view.local_flow_mus.items()):
        if beta_equal(mu, l1, beta):
            requests.append(
                RateRequest(flow, RequestKind.DECREASE, down, view.node, "source")
            )
        if beta_equal(mu, s1, beta) and flow in view.limited_flows:
            requests.append(
                RateRequest(flow, RequestKind.INCREASE, up, view.node, "source")
            )
    return requests


# --- bandwidth-saturated condition ------------------------------------------------


@dataclass(frozen=True)
class BandwidthViolation:
    """Notice disseminated when a bandwidth-saturated virtual link does
    not hold the largest normalized rate in any of its saturated
    cliques (§6.3).

    The notice carries, per saturated clique, the largest normalized
    rate observed on that clique's wireless links.  Responders compare
    their own links against *their* clique's maximum — "a link l that
    has the highest normalized rate in the saturated clique will be
    asked to reduce its rate" (§4.3) — so every saturated clique
    containing the victim converges toward equality independently.
    (Encoding a single L2 as the maximum across all saturated cliques,
    the compressed form §6.3 describes, would also trim the top flow
    of cliques that merely *overlap* the victim's bottleneck, and
    cannot sustain the paper's own Table-1 equilibrium where f1
    legitimately rides far above the clique-1 flows.)

    Attributes:
        origin_link: the wireless link (i, j) owning the violating
            virtual link.
        mu_min: normalized rate of the violating virtual link — the
            smallest among (i, j)'s bandwidth-saturated virtual links.
        clique_maxes: per saturated clique id, the largest normalized
            rate on its wireless links.
    """

    origin_link: Link
    mu_min: float
    clique_maxes: tuple[tuple[tuple[int, int], float], ...]

    @property
    def clique_ids(self) -> frozenset[tuple[int, int]]:
        """The saturated cliques this notice covers."""
        return frozenset(clique_id for clique_id, _mu in self.clique_maxes)

    def max_for(self, clique_id: tuple[int, int]) -> float | None:
        """The recorded maximum for one clique, if covered."""
        for covered, clique_max in self.clique_maxes:
            if covered == clique_id:
                return clique_max
        return None


def find_bandwidth_violation(
    *,
    link: Link,
    bw_saturated_vlink_mus: dict[int, float],
    clique_occupancies: dict[tuple[int, int], float],
    clique_link_mus: dict[tuple[int, int], dict[Link, float]],
    beta: float,
) -> BandwidthViolation | None:
    """Check the bandwidth-saturated condition for wireless link ``link``.

    Args:
        link: the wireless link (i, j), canonical direction irrelevant.
        bw_saturated_vlink_mus: per destination, the normalized rate of
            (i, j)'s bandwidth-saturated virtual links (only those with
            a known rate).
        clique_occupancies: channel occupancy of every clique (i, j)
            belongs to, keyed by clique id.
        clique_link_mus: per clique id, the known normalized rates of
            the wireless links in that clique.
        beta: equality tolerance.

    Returns:
        None when the condition holds (or cannot be evaluated), else
        the violation notice to disseminate.
    """
    if not bw_saturated_vlink_mus or not clique_occupancies:
        return None
    # The virtual link to fix: smallest normalized rate (§6.3).
    mu_min = min(bw_saturated_vlink_mus.values())

    max_occupancy = max(clique_occupancies.values())
    saturated = {
        clique_id
        for clique_id, occupancy in clique_occupancies.items()
        if beta_equal(occupancy, max_occupancy, beta)
    }
    # Satisfied if mu_min is (β-)largest in at least one saturated clique.
    clique_maxes: dict[tuple[int, int], float] = {}
    for clique_id in saturated:
        mus = clique_link_mus.get(clique_id, {})
        clique_max = max(mus.values(), default=mu_min)
        if not beta_less(mu_min, clique_max, beta):
            return None
        clique_maxes[clique_id] = clique_max
    if not clique_maxes:
        return None
    return BandwidthViolation(
        origin_link=link,
        mu_min=mu_min,
        clique_maxes=tuple(sorted(clique_maxes.items())),
    )


@dataclass(frozen=True)
class AdjacentVirtualLinkView:
    """A node's view of one of its own virtual links, used when
    responding to a bandwidth violation notice."""

    link: Link
    dest: int
    mu: float | None
    link_type: LinkType
    primaries: frozenset[int]
    clique_ids: frozenset[tuple[int, int]]  # cliques the wireless link is in


def respond_to_bandwidth_violation(
    node: int,
    violation: BandwidthViolation,
    adjacent: list[AdjacentVirtualLinkView],
    *,
    beta: float,
) -> list[RateRequest]:
    """Node ``node`` processes a disseminated violation notice.

    For each of its virtual links on a wireless link belonging to one
    of the violation's saturated cliques: primaries at L2 are asked
    down by β; primaries of bandwidth-saturated virtual links at the
    violator's rate are asked up by β (§6.3).
    """
    requests: list[RateRequest] = []
    for vlink in adjacent:
        if vlink.mu is None:
            continue
        shared = vlink.clique_ids & violation.clique_ids
        if not shared:
            continue
        should_decrease = any(
            (clique_max := violation.max_for(clique_id)) is not None
            and beta_equal(vlink.mu, clique_max, beta)
            and beta_less(violation.mu_min, vlink.mu, beta)
            for clique_id in shared
        )
        if should_decrease:
            requests.extend(
                RateRequest(flow, RequestKind.DECREASE, 1.0 - beta, node, "bandwidth")
                for flow in sorted(vlink.primaries)
            )
        if vlink.link_type is LinkType.BANDWIDTH_SATURATED and beta_equal(
            vlink.mu, violation.mu_min, beta
        ):
            requests.extend(
                RateRequest(flow, RequestKind.INCREASE, 1.0 + beta, node, "bandwidth")
                for flow in sorted(vlink.primaries)
            )
    return requests
