"""Maximal contention cliques.

"A set of mutually contending wireless links forms a contention
clique.  A proper clique is a clique that is not contained by a larger
clique." (paper §3.3).  Whenever the paper — and this library — says
*clique*, a maximal clique of the contention graph is meant.

Cliques are enumerated with Bron–Kerbosch with pivoting (implemented
here rather than via networkx so the substrate is self-contained; the
test-suite cross-validates against ``networkx.find_cliques``).

Each clique receives the paper's system-wide identifier: the smallest
node id appearing in the clique plus a sequence number (paper §6.3).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import AnalysisError
from repro.topology.contention import ContentionGraph
from repro.topology.network import Link, Topology, canonical, reverse

_EPSILON = 1e-9


@dataclass(frozen=True)
class Clique:
    """A maximal set of mutually contending links.

    Attributes:
        clique_id: ``(smallest node id in the clique, sequence number)``.
        links: canonical undirected links, as a frozenset.
    """

    clique_id: tuple[int, int]
    links: frozenset[Link]

    def __contains__(self, a_link: Link) -> bool:
        i, j = a_link
        canon = (i, j) if i <= j else (j, i)
        return canon in self.links

    def sorted_links(self) -> list[Link]:
        """Member links in deterministic order."""
        return sorted(self.links)

    def nodes(self) -> frozenset[int]:
        """All node ids touched by member links."""
        return frozenset(node for a_link in self.links for node in a_link)


def _bron_kerbosch(
    adjacency: list[int],
    r: int,
    p: int,
    x: int,
    out: list[int],
) -> None:
    """Bron–Kerbosch with pivoting over bitmask vertex sets.

    Vertex sets are arbitrary-precision integers (bit ``v`` set ⇔
    vertex ``v`` present), so intersections and unions are single
    CPython big-int operations instead of per-element hash-set work —
    the difference between minutes and seconds on city-scale
    contention graphs.  On top of Tomita-style pivoting (branch only
    on ``p - N(pivot)``), the single scan that selects the pivot also
    applies two exact reductions that collapse the dense disc-shaped
    neighborhoods geometric contention graphs are made of:

    * **domination prune** — an excluded vertex adjacent to *all* of
      ``p`` would extend any clique this subtree could report, so
      nothing here is maximal and the node dies without branching;
    * **forced absorption** — a candidate adjacent to all *other*
      candidates belongs to every maximal clique of the subproblem
      (any clique missing it could be extended by it), so it moves
      straight into ``r`` without a branch, and the scan restarts on
      the reduced problem.

    The enumerated *set* of maximal cliques is an invariant of the
    graph, so callers that sort the output are unaffected by visit
    order; equivalence with the historical all-at-once set-based
    enumeration is pinned by the spatial property tests.
    """
    while True:
        if not p:
            if not x:
                out.append(r)
            return
        p_size = p.bit_count()
        best = -1
        pivot_adjacency = 0
        excluded = x
        while excluded:
            bit = excluded & -excluded
            excluded ^= bit
            candidate = adjacency[bit.bit_length() - 1]
            count = (candidate & p).bit_count()
            if count == p_size:
                return
            if count > best:
                best = count
                pivot_adjacency = candidate
        forced = 0
        candidates = p
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            candidate = adjacency[bit.bit_length() - 1]
            count = (candidate & p).bit_count()
            if count == p_size - 1:
                forced |= bit
            elif count > best:
                best = count
                pivot_adjacency = candidate
        if not forced:
            break
        r |= forced
        p &= ~forced
        while forced:
            bit = forced & -forced
            forced ^= bit
            x &= adjacency[bit.bit_length() - 1]
    extension = p & ~pivot_adjacency
    while extension:
        bit = extension & -extension
        extension ^= bit
        neighbors = adjacency[bit.bit_length() - 1]
        _bron_kerbosch(adjacency, r | bit, p & neighbors, x & neighbors, out)
        p &= ~bit
        x |= bit


def _components(adjacency: list[int]) -> list[int]:
    """Connected components of the contention graph as bitmasks,
    ordered by smallest member."""
    unvisited = (1 << len(adjacency)) - 1
    components: list[int] = []
    while unvisited:
        start = unvisited & -unvisited
        component = start
        frontier = start
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            fresh = adjacency[bit.bit_length() - 1] & unvisited & ~component
            component |= fresh
            frontier |= fresh
        unvisited &= ~component
        components.append(component)
    return components


def _bit_positions(mask: int, num_bytes: int) -> tuple[int, ...]:
    """Set-bit positions of ``mask``, ascending (vectorized — cliques
    in dense city-scale contention graphs run to ~100 members)."""
    packed = np.frombuffer(mask.to_bytes(num_bytes, "little"), np.uint8)
    return tuple(
        np.flatnonzero(np.unpackbits(packed, bitorder="little")).tolist()
    )


def maximal_cliques(graph: ContentionGraph) -> list[Clique]:
    """All proper (maximal) contention cliques of ``graph``.

    Isolated links (no contenders) form singleton cliques, matching
    the definition: a lone link still shares the channel with itself.

    Enumeration is over bitmask vertex sets (links mapped to bit
    positions in sorted-link order — see :func:`_bron_kerbosch`), one
    Bron–Kerbosch run per connected component: a clique can never span
    components, so the union of the per-component enumerations is
    exactly the global one.  The enumerated set of maximal cliques is a
    graph invariant, and the global sort below fixes the numbering, so
    ids are bit-identical to the historical all-at-once set-based run.

    Results are deterministic: cliques are sorted by their link sets
    and numbered in that order.
    """
    links = graph.links
    # Bit positions follow sorted-link order, so ascending-bit
    # extraction yields each clique's links already sorted, and
    # sorting the position tuples equals sorting by link sets.  The
    # owner (smallest node id) is the first endpoint of the first
    # link: links are canonical (i < j) and sorted by (i, j).
    adjacency = graph.contender_masks()
    raw_masks: list[int] = []
    for component in _components(adjacency):
        _bron_kerbosch(adjacency, 0, component, 0, raw_masks)
    num_bytes = (len(links) + 7) // 8
    raw = sorted(_bit_positions(members, num_bytes) for members in raw_masks)

    sequence_by_owner: dict[int, int] = {}
    cliques: list[Clique] = []
    for key in raw:
        owner = links[key[0]][0]
        sequence = sequence_by_owner.get(owner, 0)
        sequence_by_owner[owner] = sequence + 1
        members = frozenset(links[index] for index in key)
        cliques.append(Clique(clique_id=(owner, sequence), links=members))
    return cliques


class CliqueSystem:
    """The clique system of one run, sized by its traffic: the maximal
    cliques of the contention graph *induced on the links that are
    routed to carry (or have carried) packets* — the universe ``U``.

    Every clique among links of ``U`` extends to a maximal clique of
    the whole contention graph, so the maximal projections of the
    global cliques onto ``U`` are exactly these; what the induced
    system leaves out are the *dominated* projections, which are
    redundant as capacity constraints (docs/PERFORMANCE.md) and which
    the GMP differential in ``tests/test_clique_system.py`` measures
    for the bandwidth-saturated condition (docs/PROTOCOL.md).  It is
    what the fluid MAC's solver, GMP's bandwidth-saturated condition
    and the maxmin reference all read.

    ``U`` only grows (:meth:`add_links`), and each growth re-enumerates
    from scratch.  Clique ids (and positions in :attr:`cliques`) label
    one :attr:`generation`: nothing may hold one across a growth.

    Args:
        topology: the wireless network.
        links: the initial universe, either direction of each link.
    """

    def __init__(self, topology: Topology, links: Iterable[Link] = ()) -> None:
        self.topology = topology
        #: Enumerations so far; a reader comparing two reads of it
        #: knows whether the clique labels it holds are still current.
        self.generation = 0
        self.cliques: list[Clique] = []
        #: Link of ``U``, under either direction -> ascending positions
        #: in :attr:`cliques` of the cliques containing it.  A link
        #: outside the topology contends with nothing: ``()``.
        self.memberships: dict[Link, tuple[int, ...]] = {}
        self.add_links(links)

    @property
    def links(self) -> list[Link]:
        """The universe ``U`` (canonical links), sorted."""
        return sorted({canonical(a_link) for a_link in self.memberships})

    def add_links(self, links: Iterable[Link]) -> bool:
        """Admit links to ``U``; True if that grew it (the cliques were
        re-enumerated and a new generation began).  Links already in
        ``U`` cost a membership test each."""
        memberships = self.memberships
        fresh = [a_link for a_link in links if a_link not in memberships]
        if not fresh:
            return False
        topology = self.topology
        universe = {canonical(a_link) for a_link in (*memberships, *fresh)}
        graph = ContentionGraph(
            topology,
            ((i, j) for i, j in universe if i in topology and topology.has_link(i, j)),
        )
        self.cliques = maximal_cliques(graph)
        positions = clique_index_positions(self.cliques)
        grown: dict[Link, tuple[int, ...]] = {}
        for a_link in universe:
            grown[a_link] = grown[reverse(a_link)] = positions.get(a_link, ())
        self.memberships = grown
        self.generation += 1
        return True

    def cliques_of(self, a_link: Link) -> list[Clique]:
        """The cliques containing ``a_link``, in :attr:`cliques` order
        (none for a link outside ``U``)."""
        return [self.cliques[k] for k in self.memberships.get(a_link, ())]


def clique_index_positions(cliques: list[Clique]) -> dict[Link, tuple[int, ...]]:
    """Map each canonical link to the *positions* (indices into
    ``cliques``) of the cliques containing it, ascending.

    This is the index behind the hot-path water-filling: looking a
    directed link up here (after canonicalizing) yields exactly the
    tuple that scanning ``enumerate(cliques)`` with ``a_link in
    clique`` would, without the per-link O(cliques) rescan.
    """
    positions: dict[Link, list[int]] = defaultdict(list)
    for index, clique in enumerate(cliques):
        # Positions ascend by construction; the order members are
        # visited in only orders the keys, which nothing reads.
        for member in clique.links:
            positions[member].append(index)
    return {a_link: tuple(ids) for a_link, ids in positions.items()}


def clique_traversals(
    cliques: list[Clique],
    paths: dict[int, list[Link]],
    capacity: float,
    clique_capacities: dict[tuple[int, int], float] | None = None,
) -> tuple[list[float], dict[int, tuple[int, ...]]]:
    """The shared preamble of the clique-capacity flow solvers (the
    maxmin reference and 2PP): the capacity of each clique, by position
    in ``cliques`` (``capacity`` unless its id is overridden in
    ``clique_capacities``), and per path key the positions of the
    cliques one packet on that path consumes, ascending, a position
    once per path link inside that clique — the ``members`` of
    :func:`progressive_fill`.

    Raises:
        AnalysisError: on a non-positive capacity.
    """
    overrides = clique_capacities or {}
    capacities = [overrides.get(clique.clique_id, capacity) for clique in cliques]
    if any(value <= 0 for value in capacities):
        raise AnalysisError("clique capacities must be positive")
    link_index = clique_index_positions(cliques)
    traversals = {
        key: tuple(
            sorted(
                position
                for a_link in path
                for position in link_index.get(canonical(a_link), ())
            )
        )
        for key, path in paths.items()
    }
    return capacities, traversals


def progressive_fill(
    limits: list[float],
    weights: list[float],
    members: list[tuple[int, ...]],
    capacities: list[float],
) -> tuple[list[float], list[int | None], list[float]]:
    """Weighted progressive filling under clique capacities: the one
    loop behind the fluid MAC's per-round solve (items are links, of
    unit weight) and the centralized maxmin reference (items are flows).

    Every item's normalized *level* rises at one pace from 0 until it
    reaches ``limits[i]`` or a clique it belongs to saturates.
    ``members[i]`` lists, ascending, the positions in ``capacities`` of
    the cliques item *i* consumes, a position once per unit: a clique
    drains ``weights[i]`` per listed unit per unit of level.

    Returns ``(levels, stopped, remaining)``: the level of each item;
    the position of the clique that stopped it (the first saturated one
    it lists), or ``None`` when its limit did — the limit takes
    precedence — or nothing did; and the capacity left per position.

    Each step is the historical float sequence of both loops it
    replaces: ``step`` is the min over unfrozen ``limit - level`` and
    over cliques of ``remaining / drain``; a clique is charged ``step *
    drain`` and saturates at ``remaining <= eps``.  A clique's drain is
    decremented as its members freeze rather than re-summed, which is
    exact whenever the weights are integers (unit weights: the drain
    is the count of unfrozen members).
    """
    n = len(limits)
    level = [0.0] * n
    stopped: list[int | None] = [None] * n
    remaining = list(capacities)
    drain = [0.0] * len(capacities)
    clique_items: dict[int, list[int]] = defaultdict(list)
    for i, positions in enumerate(members):
        weight = weights[i]
        for c in positions:
            drain[c] += weight
            clique_items[c].append(i)

    frozen = [False] * n
    # Ascending unfrozen items, and the cliques with an unfrozen
    # member (in order of first appearance: no step reads clique
    # order): each step scans exactly these.
    unfrozen = list(range(n))
    live = [c for c in clique_items if drain[c] > _EPSILON]
    while unfrozen:
        # Distance to the next event: an item reaching its limit or a
        # clique exhausting its capacity.
        step = min(limits[i] - level[i] for i in unfrozen)
        for c in live:
            share = remaining[c] / drain[c]
            if share < step:
                step = share
        if not math.isfinite(step):
            break
        if step < 0:
            step = 0.0

        for i in unfrozen:
            level[i] += step
        newly: list[int] = []
        for c in live:
            remaining[c] -= step * drain[c]
            if remaining[c] <= _EPSILON:
                newly.extend(clique_items[c])
        for i in unfrozen:
            if level[i] >= limits[i] - _EPSILON:
                newly.append(i)
        progress = False
        for i in newly:
            if frozen[i]:
                continue
            frozen[i] = progress = True
            weight = weights[i]
            for c in members[i]:
                drain[c] -= weight
            if level[i] < limits[i] - _EPSILON:
                for c in members[i]:
                    if remaining[c] <= _EPSILON:
                        stopped[i] = c
                        break
        if not progress:
            # Every unfrozen item is unconstrained: step was 0 for
            # numerical reasons.
            break
        unfrozen = [i for i in unfrozen if not frozen[i]]
        live = [c for c in live if drain[c] > _EPSILON]
    return level, stopped, remaining
