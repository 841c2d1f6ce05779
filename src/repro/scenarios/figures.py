"""The paper's evaluation topologies (Figures 1–4).

Geometry uses the paper's 250 m transmission range with the classic
550 m carrier-sense/interference range.  Where the paper draws a
topology without coordinates, node placement is chosen so that the
*stated* link and clique structure emerges from the geometry; the
derivations are documented per figure and cross-checked by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.flows.flow import Flow, FlowSet
from repro.topology.network import Link, Topology


@dataclass
class Scenario:
    """A runnable evaluation scenario.

    Attributes:
        name: identifier used in reports.
        topology: node placement and radio ranges.
        flows: the end-to-end flows.
        notes: provenance/derivation notes.
        rate_caps: optional per-directed-link rate ceilings (the
            Figure-1 bottleneck); only the fluid substrate runs them.
    """

    name: str
    topology: Topology
    flows: FlowSet
    notes: str = ""
    rate_caps: dict[Link, float] = field(default_factory=dict)


#: Paper setup (§7): desirable rate of any flow, packets/second.
PAPER_DESIRED_RATE = 800.0
#: Paper setup: data payload per packet.
PAPER_PACKET_BYTES = 1024


def _flow(flow_id: int, source: int, dest: int, weight: float = 1.0) -> Flow:
    return Flow(
        flow_id=flow_id,
        source=source,
        destination=dest,
        weight=weight,
        desired_rate=PAPER_DESIRED_RATE,
        packet_bytes=PAPER_PACKET_BYTES,
    )


def figure2(weights: tuple[float, float, float, float] = (1, 1, 1, 1)) -> Scenario:
    """Fig. 2: two link groups with overlapping contention cliques.

    Single-hop flows f1:(0→1), f2:(1→2), f3:(3→4), f4:(4→5).  Links
    (0,1),(1,2) form clique 0; links (1,2),(3,4),(4,5) form clique 1
    ((0,1) does not contend with the second group).  Geometry: the
    groups are separated so that d(1,3) = 560 m > 550 m (no (0,1)
    contention across) while d(2,3) = 360 m and d(2,4) = 540 m keep
    (1,2) contending with both of the far links.

    Args:
        weights: flow weights; (1,2,1,3) reproduces Table 2.
    """
    if len(weights) != 4 or any(w <= 0 for w in weights):
        raise ConfigError(f"figure2 needs 4 positive weights, got {weights}")
    topology = Topology(tx_range=250.0, cs_range=550.0)
    topology.add_nodes(
        [
            (0.0, 0.0),
            (200.0, 0.0),
            (400.0, 0.0),
            (760.0, 0.0),
            (940.0, 0.0),
            (1140.0, 0.0),
        ]
    )
    flows = FlowSet(
        [
            _flow(1, 0, 1, weights[0]),
            _flow(2, 1, 2, weights[1]),
            _flow(3, 3, 4, weights[2]),
            _flow(4, 4, 5, weights[3]),
        ]
    )
    return Scenario(
        name="figure2",
        topology=topology,
        flows=flows,
        notes=(
            "cliques: {(0,1),(1,2)} and {(1,2),(3,4),(4,5)}; maxmin gives "
            "f2=f3=f4 and f1 the residual of clique 0"
        ),
    )


#: Table 2's weight vector (flows f1..f4).
TABLE2_WEIGHTS = (1.0, 2.0, 1.0, 3.0)


def figure2_weighted() -> Scenario:
    """Fig. 2 with Table 2's weights (1, 2, 1, 3).

    A zero-argument factory so the weighted-maxmin experiment is
    addressable from the sweep grid and the fidelity harness, which
    identify scenarios by name; the scenario is named ``figure2w`` so
    its cache entries never collide with unweighted ``figure2`` runs.
    """
    scenario = figure2(weights=TABLE2_WEIGHTS)
    scenario.name = "figure2w"
    return scenario


def figure3() -> Scenario:
    """Fig. 3: the three-link chain 0–1–2–3 (200 m spacing).

    Flows ⟨0,3⟩ (3 hops), ⟨1,3⟩ (2 hops), ⟨2,3⟩ (1 hop), all destined
    to node 3.  All three links mutually contend; interference is
    asymmetric (node 0 cannot decode node 2), producing the plain-
    802.11 unfairness of Table 3.
    """
    topology = Topology(tx_range=250.0, cs_range=550.0)
    topology.add_nodes([(0.0, 0.0), (200.0, 0.0), (400.0, 0.0), (600.0, 0.0)])
    flows = FlowSet(
        [
            _flow(1, 0, 3),
            _flow(2, 1, 3),
            _flow(3, 2, 3),
        ]
    )
    return Scenario(
        name="figure3",
        topology=topology,
        flows=flows,
        notes="single clique of all 3 links; single destination (node 3)",
    )


def figure4() -> Scenario:
    """Fig. 4: four source→relay→sink gadgets in a row, eight flows.

    The paper does not print coordinates; the reconstruction is fixed
    by Table 4's reported effective-throughput values, which determine
    the hop counts exactly: odd flows (f1,f3,f5,f7) are 2-hop, even
    flows (f2,f4,f6,f8) are 1-hop, and each odd/even pair shares its
    source (their rates are identical under plain 802.11 because one
    FIFO serves both).  Gadget k is a vertical chain s_k→m_k→d_k
    (200 m spacing); gadgets are 350 m apart so adjacent gadgets'
    links all contend (no links across) and non-adjacent gadgets are
    independent — middle gadgets therefore contend on both sides,
    which halves their plain-802.11 share (Table 4).

    Flow 2k+1: s_k→m_k→d_k (destination d_k); flow 2k+2: s_k→m_k
    (destination m_k) — two destinations per gadget, exercising the
    multi-destination virtual networks of §5.
    """
    topology = Topology(tx_range=250.0, cs_range=550.0)
    positions = []
    for gadget in range(4):
        x = gadget * 350.0
        positions.extend([(x, 0.0), (x, 200.0), (x, 400.0)])
    topology.add_nodes(positions)

    flows = []
    for gadget in range(4):
        s, m, d = 3 * gadget, 3 * gadget + 1, 3 * gadget + 2
        flows.append(_flow(2 * gadget + 1, s, d))  # 2-hop flow
        flows.append(_flow(2 * gadget + 2, s, m))  # 1-hop flow
    return Scenario(
        name="figure4",
        topology=topology,
        flows=FlowSet(flows),
        notes=(
            "reconstructed from Table 4 hop counts (see EXPERIMENTS.md); "
            "cliques pair adjacent gadgets"
        ),
    )


def figure1(*, bottleneck_rate: float = 20.0, desired_rate: float = 70.0) -> Scenario:
    """Fig. 1: the per-destination-queueing argument (§5.1).

    f1: x→i→j→z→t shares nodes i, j with f2: y→i→j→v; (z,t) is a slow
    bottleneck link.  With one queue per node, backpressure from (z,t)
    saturates the shared queues at j and i and drags f2 down to f1's
    rate; with one queue per *destination*, f2 is isolated and reaches
    its desirable rate.

    The bottleneck is modeled as a per-link rate cap (honored by the
    fluid substrate), standing in for the paper's thick-arrow
    bandwidth-saturated link.  The paper's abstract units (desirable
    rate 5, bottleneck 1) are scaled so that f2's desirable rate fits
    the clique capacity of the shared region with room to spare — the
    point of the experiment is queueing isolation, not channel
    saturation.

    Node ids: x=0, y=1, i=2, j=3, z=4, t=5, v=6.
    """
    if bottleneck_rate <= 0 or desired_rate <= bottleneck_rate:
        raise ConfigError(
            "need 0 < bottleneck_rate < desired_rate, got "
            f"{bottleneck_rate}, {desired_rate}"
        )
    topology = Topology(tx_range=250.0, cs_range=550.0)
    topology.add_nodes(
        [
            (0.0, 0.0),  # 0 = x
            (0.0, 200.0),  # 1 = y
            (200.0, 100.0),  # 2 = i
            (400.0, 100.0),  # 3 = j
            (600.0, 100.0),  # 4 = z
            (800.0, 100.0),  # 5 = t
            (550.0, 250.0),  # 6 = v
        ]
    )
    flows = FlowSet(
        [
            Flow(flow_id=1, source=0, destination=5, desired_rate=desired_rate),
            Flow(flow_id=2, source=1, destination=6, desired_rate=desired_rate),
        ]
    )
    return Scenario(
        name="figure1",
        topology=topology,
        flows=flows,
        notes="per-destination queueing isolation experiment (§5.1)",
        rate_caps={(4, 5): bottleneck_rate},
    )
