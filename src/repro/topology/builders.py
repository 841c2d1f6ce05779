"""Reusable topology generators.

The paper's evaluation figures live in :mod:`repro.scenarios.figures`;
the builders here cover generic shapes used by examples, tests, and
random-workload benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError
from repro.sim.rng import RngRegistry
from repro.topology.network import (
    DEFAULT_CS_RANGE,
    DEFAULT_TX_RANGE,
    Topology,
)

#: Named stream for random node placement.  Routing topology draws
#: through the registry (instead of a raw ``np.random.default_rng``)
#: keeps them isolated from every protocol/MAC stream: a topology
#: redraw can never perturb backoff or traffic randomness, and vice
#: versa.
PLACEMENT_STREAM = "topology.random_placement"


def chain_topology(
    num_nodes: int,
    spacing: float = 200.0,
    *,
    tx_range: float = DEFAULT_TX_RANGE,
    cs_range: float = DEFAULT_CS_RANGE,
) -> Topology:
    """Nodes 0..n-1 on a straight line, ``spacing`` meters apart.

    With the default ranges, adjacent nodes are linked and any two
    transmitters within two hops sense each other — the classic chain
    used by the paper's Figure 3.
    """
    if num_nodes < 1:
        raise TopologyError(f"need at least one node, got {num_nodes}")
    if spacing <= 0 or spacing > tx_range:
        raise TopologyError(
            f"spacing {spacing} must be in (0, tx_range={tx_range}] for a "
            "connected chain"
        )
    topology = Topology(tx_range=tx_range, cs_range=cs_range)
    topology.add_nodes((index * spacing, 0.0) for index in range(num_nodes))
    return topology


def grid_topology(
    rows: int,
    cols: int,
    spacing: float = 200.0,
    *,
    tx_range: float = DEFAULT_TX_RANGE,
    cs_range: float = DEFAULT_CS_RANGE,
) -> Topology:
    """A rows×cols lattice with ``spacing`` meters between neighbors.

    Node ids are assigned row-major: node ``r * cols + c`` sits at
    ``(c * spacing, r * spacing)``.
    """
    if rows < 1 or cols < 1:
        raise TopologyError(f"grid must be at least 1x1, got {rows}x{cols}")
    if spacing <= 0 or spacing > tx_range:
        raise TopologyError(
            f"spacing {spacing} must be in (0, tx_range={tx_range}] for a "
            "connected grid"
        )
    topology = Topology(tx_range=tx_range, cs_range=cs_range)
    topology.add_nodes(
        (col * spacing, row * spacing) for row in range(rows) for col in range(cols)
    )
    return topology


def random_topology(
    num_nodes: int,
    *,
    width: float = 800.0,
    height: float = 800.0,
    seed: int = 0,
    tx_range: float = DEFAULT_TX_RANGE,
    cs_range: float = DEFAULT_CS_RANGE,
    require_connected: bool = True,
    max_attempts: int = 200,
) -> Topology:
    """Uniformly random node placement in a width×height rectangle.

    When ``require_connected`` is set (default) placements are redrawn
    until the derived connectivity graph is connected.  Whether that
    succeeds quickly is a density question: random geometric graphs
    connect with high probability only once
    ``pi * tx_range**2 * n / area >~ ln(n)`` (the Gupta–Kumar
    connectivity threshold), so for sparse parameter combinations no
    reasonable number of redraws will find a connected placement.
    Rather than failing, the builder *progressively densifies*: after
    each round of ``max_attempts`` failed draws it grows ``tx_range``
    (and ``cs_range`` proportionally, preserving their ratio) by 30%
    and tries again.  This terminates deterministically — once
    ``tx_range`` reaches the rectangle's diagonal every placement is a
    complete graph — while leaving dense requests untouched (their
    first round succeeds with the requested ranges).
    """
    if num_nodes < 1:
        raise TopologyError(f"need at least one node, got {num_nodes}")
    if max_attempts < 1:
        raise TopologyError(f"max_attempts must be >= 1: {max_attempts}")
    rng = RngRegistry(seed).stream(PLACEMENT_STREAM)
    range_ratio = cs_range / tx_range
    diagonal = float(np.hypot(width, height))
    while True:
        for _attempt in range(max_attempts):
            topology = Topology(tx_range=tx_range, cs_range=cs_range)
            xs = rng.uniform(0.0, width, size=num_nodes)
            ys = rng.uniform(0.0, height, size=num_nodes)
            topology.add_nodes(zip(xs.tolist(), ys.tolist()))
            if not require_connected or _is_connected(topology):
                return topology
        # Exhausted this round below the connectivity threshold:
        # densify and redraw.  tx_range >= diagonal makes any placement
        # a complete graph, so the loop is guaranteed to terminate.
        if tx_range >= diagonal:  # pragma: no cover - complete graphs connect
            raise TopologyError(
                f"no connected placement of {num_nodes} nodes in "
                f"{width}x{height} even at tx_range={tx_range}"
            )
        tx_range = min(tx_range * 1.3, diagonal)
        cs_range = tx_range * range_ratio


#: Named stream for clustered node placement, separate from the
#: uniform-random stream so the two builders never share draws.
CLUSTER_STREAM = "topology.cluster_placement"


def clustered_topology(
    num_clusters: int,
    cluster_size: int,
    *,
    cluster_radius: float = 200.0,
    cluster_spacing: float = 800.0,
    relay_spacing: float = 220.0,
    seed: int = 0,
    tx_range: float = DEFAULT_TX_RANGE,
    cs_range: float = DEFAULT_CS_RANGE,
) -> Topology:
    """A cluster-tree: dense node clusters joined by relay chains
    along a spanning tree of a cluster grid.

    Cluster heads sit on a ``ceil(sqrt(C))``-wide row-major grid with
    ``cluster_spacing`` between neighbors (well beyond radio range, so
    clusters are radio-isolated pockets); members are placed uniformly
    in a disc of radius ``cluster_radius`` around their head.  The
    spanning tree connects each cluster to its left neighbor (or, for
    the first cluster of a row, to the cluster above), and every tree
    edge carries a straight chain of relay nodes at most
    ``relay_spacing`` apart.  With ``cluster_radius <= tx_range`` and
    ``relay_spacing <= tx_range`` (both enforced) the whole topology
    is connected *by construction* — no redraw loop — while the
    inter-cluster distance keeps the global density city-like instead
    of uniformly saturated.

    Node ids are cluster-major (cluster ``k`` owns ids
    ``k * cluster_size .. (k + 1) * cluster_size - 1``, head first)
    with the relay nodes appended after all clusters, edge by edge.
    """
    if num_clusters < 1 or cluster_size < 1:
        raise TopologyError(
            f"need positive dimensions, got {num_clusters} clusters "
            f"of {cluster_size}"
        )
    if not 0 < cluster_radius <= tx_range:
        raise TopologyError(
            f"cluster_radius {cluster_radius} must be in (0, "
            f"tx_range={tx_range}] to keep members linked to their head"
        )
    if not 0 < relay_spacing <= tx_range:
        raise TopologyError(
            f"relay_spacing {relay_spacing} must be in (0, "
            f"tx_range={tx_range}] to keep relay chains connected"
        )
    if cluster_spacing <= 0:
        raise TopologyError(f"cluster_spacing must be positive: {cluster_spacing}")
    rng = RngRegistry(seed).stream(CLUSTER_STREAM)
    columns = int(np.ceil(np.sqrt(num_clusters)))
    centers = [
        (
            (cluster % columns) * cluster_spacing,
            (cluster // columns) * cluster_spacing,
        )
        for cluster in range(num_clusters)
    ]
    positions: list[tuple[float, float]] = []
    for center_x, center_y in centers:
        positions.append((center_x, center_y))
        radii = cluster_radius * np.sqrt(rng.uniform(size=cluster_size - 1))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=cluster_size - 1)
        positions.extend(
            (center_x + float(r * np.cos(a)), center_y + float(r * np.sin(a)))
            for r, a in zip(radii, angles)
        )
    segments = max(1, int(np.ceil(cluster_spacing / relay_spacing)))
    for cluster in range(1, num_clusters):
        parent = cluster - 1 if cluster % columns else cluster - columns
        ax, ay = centers[parent]
        bx, by = centers[cluster]
        positions.extend(
            (
                ax + (bx - ax) * step / segments,
                ay + (by - ay) * step / segments,
            )
            for step in range(1, segments)
        )
    topology = Topology(tx_range=tx_range, cs_range=cs_range)
    topology.add_nodes(positions)
    return topology


def relay_count(num_clusters: int, cluster_spacing: float, relay_spacing: float) -> int:
    """Relay nodes :func:`clustered_topology` adds for these
    parameters (used to budget total node counts)."""
    segments = max(1, int(np.ceil(cluster_spacing / relay_spacing)))
    return max(0, num_clusters - 1) * (segments - 1)


def _is_connected(topology: Topology) -> bool:
    """BFS over the topology's neighbor map.

    The map itself is derived through the spatial index (vectorized
    candidate-cell queries), so a full connectivity check — and hence
    each densification round above — costs O(n + links) set walks, not
    the historical O(n²) all-pairs distance scan per redraw.
    """
    ids = topology.node_ids
    if not ids:
        return True
    seen = {ids[0]}
    frontier = [ids[0]]
    while frontier:
        current = frontier.pop()
        for neighbor in topology.neighbors(current):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(ids)
