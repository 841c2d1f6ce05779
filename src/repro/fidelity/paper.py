"""The paper's claims, machine-readable: Tables 1–4 of its evaluation
(§7) and Figure 1's queue isolation (§5.1).

Each :class:`PaperTable` binds a paper artifact to the scenario and the
columns that regenerate it — a column is a protocol plus any other
:class:`~repro.scenarios.spec.RunSpec` overrides — and carries two
kinds of ground truth:

* the **paper's numbers** (per-flow packets/second, effective
  throughput ``U``, the maxmin index ``I_mm``, the Chiu–Jain equality
  index ``I_eq``) for cell-by-cell paper-vs-ours deltas; and
* the **shape assertions** from EXPERIMENTS.md — the within-table
  properties (orderings, β-band equal splits, weight-ordered rates,
  fairness repair, convergence to the maxmin reference, insensitivity
  to β and Ω) that are the reproduction target, since the paper's
  absolute packet rates depend on unstated PHY-overhead assumptions
  (see EXPERIMENTS.md "Absolute-scale calibration").

Shape assertions are plain predicates over a measured table, so they
are unit-testable without a simulator and CI-checkable through the
fidelity harness (:mod:`repro.fidelity.harness`).  Assertions that
hold on one substrate only (MAC-bias effects the fluid substrate cannot
exhibit; Figure 1's rate-capped bottleneck, which the DCF ignores)
declare their applicable substrates and are reported as skipped
elsewhere.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.scenarios.figures import figure1

#: The paper's equality tolerance (§6.3); shape assertions reuse it.
PAPER_BETA = 0.10


@dataclass(frozen=True)
class MeasuredColumn:
    """One regenerated table column: its run at one seed, and (GMP
    runs) each flow's centralized maxmin reference rate."""

    protocol: str
    substrate: str
    seed: int
    rates: dict[int, float]
    normalized: dict[int, float]
    u: float
    i_mm: float
    i_eq: float
    reference: dict[int, float] = field(default_factory=dict)


#: A measured table: column name -> column, for one seed.
TableMeasurement = dict[str, MeasuredColumn]

#: A shape predicate: measured table -> (passed, detail-with-numbers).
ShapeCheck = Callable[[TableMeasurement], tuple[bool, str]]


@dataclass(frozen=True)
class ShapeAssertion:
    """One checkable within-table property.

    Attributes:
        assertion_id: stable id, e.g. ``"t3-gmp-repairs"`` — the
            fidelity baseline ratchets on these.
        description: what EXPERIMENTS.md asserts, in one line.
        check: the predicate; returns pass/fail plus a detail string
            quoting the measured numbers.
        substrates: substrates the property holds on, or None for all.
    """

    assertion_id: str
    description: str
    check: ShapeCheck
    substrates: tuple[str, ...] | None = None

    def applies_to(self, substrate: str) -> bool:
        return self.substrates is None or substrate in self.substrates


@dataclass(frozen=True)
class PaperColumn:
    """The paper's values for one protocol column."""

    rates: dict[int, float]
    u: float
    i_mm: float
    i_eq: float


@dataclass(frozen=True)
class PaperTable:
    """One paper artifact: scenario binding + ground truth + shapes.

    Attributes:
        table_id: the paper's table number, or a name (``"fig1"``).
        columns: column name -> the :class:`~repro.scenarios.spec.
            RunSpec` fields it sets besides scenario, substrate, seed
            and duration (always ``protocol``).  Cells are reported for
            the columns in ``paper`` only.
    """

    table_id: int | str
    title: str
    scenario: str  # sweep-grid scenario name
    columns: dict[str, dict[str, Any]]
    weights: dict[int, float]
    paper: dict[str, PaperColumn]
    assertions: tuple[ShapeAssertion, ...] = field(default_factory=tuple)

    @property
    def protocols(self) -> tuple[str, ...]:
        """The columns with paper numbers, in the paper's order."""
        return tuple(self.paper)

    def flow_ids(self) -> list[int]:
        return sorted(self.weights)


def _protocols(*names: str) -> dict[str, dict[str, Any]]:
    """Columns that are each one protocol, named after it."""
    return {name: {"protocol": name} for name in names}


# --- assertion helpers -----------------------------------------------------------


def _fmt_rates(rates: dict[int, float]) -> str:
    return ", ".join(f"f{fid}={rate:.1f}" for fid, rate in sorted(rates.items()))


def _spread_below(
    protocol: str, ceiling: float, flow_ids: tuple[int, ...] | None = None
) -> ShapeCheck:
    """Relative spread ``(max - min) / max`` of the named flows'
    normalized rates (default: every flow) stays below ``ceiling``."""

    def check(measured: TableMeasurement) -> tuple[bool, str]:
        normalized = measured[protocol].normalized
        rates = {
            fid: normalized[fid] for fid in (flow_ids or sorted(normalized))
        }
        top = max(rates.values())
        spread = (top - min(rates.values())) / top if top > 0 else 0.0
        return (
            spread < ceiling,
            f"{protocol}: normalized spread {spread:.2f} of "
            f"{_fmt_rates(rates)} (need < {ceiling:g})",
        )

    return check


def _rate_ratio_above(
    protocol: str,
    flow_ids: tuple[int, ...],
    others: tuple[int, ...],
    factor: float,
    against: Callable[[list[float]], float] = max,
) -> ShapeCheck:
    """Each of ``flow_ids`` exceeds ``factor * against(rate(others))``."""

    def check(measured: TableMeasurement) -> tuple[bool, str]:
        rates = measured[protocol].rates
        bar = against([rates[fid] for fid in others])
        tops = {fid: rates[fid] for fid in flow_ids}
        return (
            all(rate > factor * bar for rate in tops.values()),
            f"{protocol}: {_fmt_rates(tops)} vs {against.__name__}(others)="
            f"{bar:.1f} (need > {factor:g}x)",
        )

    return check


def _rate_order(protocol: str, ordered: tuple[int, ...]) -> ShapeCheck:
    """Rates strictly decreasing along ``ordered``."""

    def check(measured: TableMeasurement) -> tuple[bool, str]:
        rates = measured[protocol].rates
        ok = all(
            rates[a] > rates[b] for a, b in zip(ordered, ordered[1:])
        )
        chain = " > ".join(f"f{fid}" for fid in ordered)
        return ok, f"{protocol}: want {chain}; got {_fmt_rates(rates)}"

    return check


def _normalized_top(protocol: str, flow_id: int) -> ShapeCheck:
    """``flow_id`` holds the largest *normalized* rate in the column."""

    def check(measured: TableMeasurement) -> tuple[bool, str]:
        normalized = measured[protocol].normalized
        top = normalized[flow_id]
        rest = max(mu for fid, mu in normalized.items() if fid != flow_id)
        return (
            top > rest,
            f"{protocol}: normalized f{flow_id}={top:.1f} vs best other "
            f"{rest:.1f}",
        )

    return check


def _imm_below(protocol: str, ceiling: float) -> ShapeCheck:
    def check(measured: TableMeasurement) -> tuple[bool, str]:
        value = measured[protocol].i_mm
        return value < ceiling, f"I_mm({protocol})={value:.3f} (need < {ceiling:g})"

    return check


def _gmp_repairs(floor: float, margin: float) -> ShapeCheck:
    """GMP's I_mm exceeds ``floor`` and beats both baselines by more
    than ``margin``."""

    def check(measured: TableMeasurement) -> tuple[bool, str]:
        gmp = measured["gmp"].i_mm
        baselines = {
            name: column.i_mm
            for name, column in measured.items()
            if column.protocol != "gmp"
        }
        best = max(baselines.values(), default=0.0)
        ok = gmp > floor and gmp > best + margin
        others = ", ".join(
            f"I_mm({protocol})={value:.3f}"
            for protocol, value in sorted(baselines.items())
        )
        return ok, f"I_mm(gmp)={gmp:.3f} vs {others} (floor {floor:g}, margin {margin:g})"

    return check


def _top_flows(protocol: str, expected: frozenset[int]) -> ShapeCheck:
    """The ``len(expected)`` largest rates belong exactly to ``expected``."""

    def check(measured: TableMeasurement) -> tuple[bool, str]:
        rates = measured[protocol].rates
        ranked = sorted(rates, key=lambda fid: (-rates[fid], fid))
        top = frozenset(ranked[: len(expected)])
        want = ",".join(f"f{fid}" for fid in sorted(expected))
        got = ",".join(f"f{fid}" for fid in sorted(top))
        return top == expected, f"{protocol}: top flows {got} (want {want})"

    return check


def _group_ratio(
    protocol: str,
    numerator: tuple[int, ...],
    denominator: tuple[int, ...],
    factor: float,
    *,
    below: bool = False,
) -> ShapeCheck:
    """Mean rate of one flow group exceeds ``factor`` × the other's
    (or, with ``below``, stays under it)."""

    def check(measured: TableMeasurement) -> tuple[bool, str]:
        rates = measured[protocol].rates
        num = sum(rates[fid] for fid in numerator) / len(numerator)
        den = sum(rates[fid] for fid in denominator) / len(denominator)
        ok = num < factor * den if below else num > factor * den
        return (
            ok,
            f"{protocol}: mean({','.join(f'f{f}' for f in numerator)})={num:.1f} "
            f"vs mean({','.join(f'f{f}' for f in denominator)})={den:.1f} "
            f"(need {'<' if below else '>'} {factor:g}x)",
        )

    return check


def _fairness_floor(names: tuple[str, ...], i_mm: float, i_eq: float) -> ShapeCheck:
    """``I_mm`` above ``i_mm`` and ``I_eq`` above ``i_eq`` in every one
    of the named columns."""

    def check(measured: TableMeasurement) -> tuple[bool, str]:
        columns = {name: measured[name] for name in names}
        ok = all(c.i_mm > i_mm and c.i_eq > i_eq for c in columns.values())
        return ok, "; ".join(
            f"{name}: I_mm={column.i_mm:.3f} (floor {i_mm:g}), "
            f"I_eq={column.i_eq:.3f} (floor {i_eq:g})"
            for name, column in columns.items()
        )

    return check


def _u_ordering(ordered: tuple[str, ...], slack: float) -> ShapeCheck:
    """``U`` non-increasing along ``ordered`` protocols, within ``slack``
    relative tolerance (the fluid substrate conserves clique capacity,
    so its three U values coincide)."""

    def check(measured: TableMeasurement) -> tuple[bool, str]:
        us = {protocol: measured[protocol].u for protocol in ordered}
        ok = all(
            us[a] >= us[b] * (1.0 - slack) for a, b in zip(ordered, ordered[1:])
        )
        detail = " >= ".join(f"U({p})={us[p]:.0f}" for p in ordered)
        return ok, f"{detail} (slack {slack:g})"

    return check


def _near_reference(protocol: str, tolerance: float) -> ShapeCheck:
    """Every flow's rate is within ``tolerance`` (relative) of its
    centralized maxmin reference rate."""

    def check(measured: TableMeasurement) -> tuple[bool, str]:
        column = measured[protocol]
        if not column.reference:
            return False, f"{protocol}: the run has no maxmin reference"
        deviation = {
            fid: abs(column.rates[fid] / ref - 1.0) if ref > 0 else math.inf
            for fid, ref in column.reference.items()
        }
        worst = max(deviation, key=deviation.__getitem__)
        return (
            deviation[worst] < tolerance,
            f"{protocol}: max |rate/reference - 1| {deviation[worst]:.2f} at "
            f"f{worst} ({column.rates[worst]:.1f} vs "
            f"{column.reference[worst]:.1f}; need < {tolerance:g})",
        )

    return check


def _imm_range_below(names: tuple[str, ...], ceiling: float) -> ShapeCheck:
    """``max - min`` of ``I_mm`` across the named columns stays below
    ``ceiling``."""

    def check(measured: TableMeasurement) -> tuple[bool, str]:
        values = {name: measured[name].i_mm for name in names}
        spread = max(values.values()) - min(values.values())
        return (
            spread < ceiling,
            f"I_mm range {spread:.3f} over "
            + ", ".join(f"I_mm({name})={v:.3f}" for name, v in values.items())
            + f" (need < {ceiling:g})",
        )

    return check


def _ieq_not_below(name: str, other: str, slack: float) -> ShapeCheck:
    """Column ``name``'s ``I_eq`` is at least ``other``'s minus ``slack``."""

    def check(measured: TableMeasurement) -> tuple[bool, str]:
        ours, theirs = measured[name].i_eq, measured[other].i_eq
        return (
            ours >= theirs - slack,
            f"I_eq({name})={ours:.3f} vs I_eq({other})={theirs:.3f} "
            f"(need >= it - {slack:g})",
        )

    return check


def _flow_rate(
    names: tuple[str, ...],
    flow_id: int,
    compare: Callable[[float, float], bool],
    bound: float,
) -> ShapeCheck:
    """``compare(rate, bound)`` holds for flow ``flow_id`` in every one
    of the named columns."""
    symbol = {operator.le: "<=", operator.lt: "<", operator.gt: ">"}[compare]

    def check(measured: TableMeasurement) -> tuple[bool, str]:
        rates = {name: measured[name].rates[flow_id] for name in names}
        return (
            all(compare(rate, bound) for rate in rates.values()),
            ", ".join(f"f{flow_id}({name})={r:.1f}" for name, r in rates.items())
            + f" (need {symbol} {bound:g})",
        )

    return check


def _converges(table: int) -> ShapeAssertion:
    """E-conv on one table: GMP ends near the maxmin point (§6)."""
    return ShapeAssertion(
        f"t{table}-gmp-converges",
        "every GMP flow ends within ±35% of its centralized maxmin "
        "reference (E-conv)",
        _near_reference("gmp", 0.35),
    )


# --- the tables ------------------------------------------------------------------

TABLE_1 = PaperTable(
    table_id=1,
    title="Table 1: unweighted maxmin on Figure 2",
    scenario="figure2",
    columns=_protocols("gmp"),
    weights={1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0},
    paper={
        "gmp": PaperColumn(
            rates={1: 563.96, 2: 196.96, 3: 217.57, 4: 221.41},
            # All four flows are 1-hop, so U and the indices are
            # derived exactly from the paper's per-flow rates.
            u=1199.90,
            i_mm=0.349,
            i_eq=0.794,
        ),
    },
    assertions=(
        ShapeAssertion(
            "t1-equal-split",
            "f2 ≈ f3 ≈ f4: equal split of clique 1 (spread < 2β)",
            _spread_below("gmp", 2 * PAPER_BETA, (2, 3, 4)),
        ),
        ShapeAssertion(
            "t1-f1-residual",
            "f1 rides clique 0's residual, > 1.3x the clique-1 flows",
            _rate_ratio_above("gmp", (1,), (2, 3, 4), 1.3),
        ),
        ShapeAssertion(
            "t1-gmp-ieq",
            "GMP's allocation stays broadly equal (I_eq > 0.7)",
            _fairness_floor(("gmp",), 0.0, 0.7),
        ),
        _converges(1),
    ),
)

TABLE_2 = PaperTable(
    table_id=2,
    title="Table 2: weighted maxmin on Figure 2 (weights 1,2,1,3)",
    scenario="figure2w",
    columns={
        **_protocols("gmp"),
        # Paper-literal limit removal (§6); the default never removes.
        "gmp removal=1": {"protocol": "gmp", "gmp": {"removal_persistence": 1}},
    },
    weights={1: 1.0, 2: 2.0, 3: 1.0, 4: 3.0},
    paper={
        "gmp": PaperColumn(
            rates={1: 527.58, 2: 225.40, 3: 121.90, 4: 377.20},
            u=1252.08,
            i_mm=0.231,
            i_eq=0.806,
        ),
    },
    assertions=(
        ShapeAssertion(
            "t2-weight-order",
            "clique-1 rates ordered by weight: f4 > f2 > f3",
            _rate_order("gmp", (4, 2, 3)),
        ),
        ShapeAssertion(
            "t2-f1-opportunistic",
            "f1 holds the largest normalized rate (clique 0's residual)",
            _normalized_top("gmp", 1),
        ),
        ShapeAssertion(
            "t2-normalized-split",
            "clique-1 normalized rates within 2x of each other "
            "(normalized spread < 0.5)",
            _spread_below("gmp", 0.5, (2, 3, 4)),
        ),
        _converges(2),
        ShapeAssertion(
            "t2-removal-no-fairer",
            "paper-literal limit removal is no fairer than the default: "
            "I_eq(gmp) >= I_eq(removal=1) - 0.1 (E-ablation)",
            _ieq_not_below("gmp", "gmp removal=1", 0.1),
        ),
    ),
)

TABLE_3 = PaperTable(
    table_id=3,
    title="Table 3: the three-link chain (Figure 3)",
    scenario="figure3",
    columns={
        **_protocols("802.11", "2pp", "gmp"),
        "gmp β=0.05": {"protocol": "gmp", "beta": 0.05},
        "gmp β=0.20": {"protocol": "gmp", "beta": 0.20},
        "gmp Ω=0.10": {"protocol": "gmp", "gmp": {"omega_threshold": 0.10}},
        "gmp Ω=0.45": {"protocol": "gmp", "gmp": {"omega_threshold": 0.45}},
    },
    weights={1: 1.0, 2: 1.0, 3: 1.0},
    paper={
        "802.11": PaperColumn(
            rates={1: 80.63, 2: 220.07, 3: 174.09},
            u=856.11,
            i_mm=0.366,
            i_eq=0.882,
        ),
        "2pp": PaperColumn(
            rates={1: 131.86, 2: 188.76, 3: 240.85},
            u=1013.96,
            i_mm=0.547,
            i_eq=0.946,
        ),
        "gmp": PaperColumn(
            rates={1: 164.75, 2: 176.04, 3: 179.21},
            u=1025.54,
            i_mm=0.919,
            i_eq=0.999,
        ),
    },
    assertions=(
        ShapeAssertion(
            "t3-80211-unfair",
            "plain 802.11 is severely unfair (I_mm < 0.6)",
            _imm_below("802.11", 0.6),
        ),
        ShapeAssertion(
            "t3-2pp-unfair",
            "2PP remains unfair (I_mm < 0.6)",
            _imm_below("2pp", 0.6),
        ),
        ShapeAssertion(
            "t3-gmp-repairs",
            "GMP repairs the chain: I_mm > 0.8 and ≫ both baselines",
            _gmp_repairs(0.8, 0.2),
        ),
        ShapeAssertion(
            "t3-gmp-ieq",
            "GMP's three rates are near-equal (I_eq > 0.97)",
            _fairness_floor(("gmp",), 0.0, 0.97),
        ),
        ShapeAssertion(
            "t3-2pp-surplus-1hop",
            "2PP's LP hands the surplus to the 1-hop flow ⟨2,3⟩",
            _top_flows("2pp", frozenset({3})),
        ),
        ShapeAssertion(
            "t3-gmp-band",
            "GMP equalizes the three flows (relative spread < 0.25)",
            _spread_below("gmp", 0.25),
        ),
        _converges(3),
        ShapeAssertion(
            "t3-beta-insensitive",
            "β in {0.05, 0.10, 0.20} keeps GMP fair: I_mm > 0.45 in every "
            "β column (E-ablation)",
            _fairness_floor(("gmp β=0.05", "gmp", "gmp β=0.20"), 0.45, 0.0),
        ),
        ShapeAssertion(
            "t3-omega-insensitive",
            "the Ω threshold in {0.10, 0.25, 0.45} barely moves GMP: I_mm "
            "range < 0.45 (E-ablation)",
            _imm_range_below(("gmp Ω=0.10", "gmp", "gmp Ω=0.45"), 0.45),
        ),
    ),
)

#: Figure 4's outer and inner gadgets' flows.
_SIDE_FLOWS = (1, 2, 7, 8)
_MIDDLE_FLOWS = (3, 4, 5, 6)

TABLE_4 = PaperTable(
    table_id=4,
    title="Table 4: the four-gadget row (Figure 4)",
    scenario="figure4",
    columns=_protocols("802.11", "2pp", "gmp"),
    weights={fid: 1.0 for fid in range(1, 9)},
    paper={
        # Per-flow 802.11 rates are fixed by the topology
        # reconstruction (EXPERIMENTS.md): each gadget's flow pair
        # shares one source FIFO, so pair rates are identical.
        "802.11": PaperColumn(
            rates={
                1: 221.81,
                2: 221.81,
                3: 107.29,
                4: 107.28,
                5: 106.36,
                6: 106.36,
                7: 223.39,
                8: 223.39,
            },
            u=1976.54,
            i_mm=0.476,
            i_eq=0.890,
        ),
        # Odd flows are 2-hop and even flows 1-hop, so every column's
        # U is its hop-weighted rate sum, and I_mm / I_eq follow from
        # the rates.
        "2pp": PaperColumn(
            rates={
                1: 43.31,
                2: 347.81,
                3: 43.33,
                4: 86.67,
                5: 43.39,
                6: 86.70,
                7: 43.36,
                8: 346.96,
            },
            u=1214.93,
            i_mm=0.125,
            i_eq=0.514,
        ),
        "gmp": PaperColumn(
            rates={
                1: 145.46,
                2: 145.94,
                3: 134.26,
                4: 132.38,
                5: 135.44,
                6: 133.04,
                7: 141.69,
                8: 149.07,
            },
            u=1674.13,
            i_mm=0.888,
            i_eq=0.998,
        ),
    },
    assertions=(
        ShapeAssertion(
            "t4-gmp-equalizes",
            "GMP approximately equalizes all eight flows "
            "(I_mm > 0.75, I_eq > 0.95)",
            _fairness_floor(("gmp",), 0.75, 0.95),
        ),
        ShapeAssertion(
            "t4-gmp-fairest",
            "GMP is the fairest: I_mm > 0.6 and above both baselines",
            _gmp_repairs(0.6, 0.0),
        ),
        ShapeAssertion(
            "t4-gmp-side-middle",
            "GMP levels the gadgets: side flows < 1.4x the middle flows",
            _group_ratio("gmp", _SIDE_FLOWS, _MIDDLE_FLOWS, 1.4, below=True),
        ),
        ShapeAssertion(
            "t4-2pp-side-1hop",
            "2PP starves everything except the side 1-hop flows f2/f8",
            _top_flows("2pp", frozenset({2, 8})),
        ),
        ShapeAssertion(
            "t4-2pp-side-2x-worst",
            "2PP's side 1-hop flows f2/f8 each get > 2x the worst flow",
            _rate_ratio_above("2pp", (2, 8), tuple(range(1, 9)), 2.0, min),
        ),
        ShapeAssertion(
            "t4-2pp-unfair",
            "2PP is unfair (I_mm < 0.6)",
            _imm_below("2pp", 0.6),
        ),
        ShapeAssertion(
            "t4-80211-side-bias",
            "802.11 favors side gadgets ≈2:1 over middle gadgets, > 1.3x "
            "(media-access bias; DCF substrate only)",
            _group_ratio("802.11", _SIDE_FLOWS, _MIDDLE_FLOWS, 1.3),
            substrates=("dcf",),
        ),
        ShapeAssertion(
            "t4-u-ordering",
            "U(802.11) ≥ U(GMP) ≥ U(2PP) (within 1%)",
            _u_ordering(("802.11", "gmp", "2pp"), 0.01),
        ),
        _converges(4),
    ),
)

#: Figure 1's scenario: f1 crosses the capped (z,t) link, f2 does not.
_FIGURE_1 = figure1()
_BOTTLENECK = _FIGURE_1.rate_caps[(4, 5)]
_DESIRED = _FIGURE_1.flows.get(2).desired_rate
_QUEUES = ("backpressure-shared", "backpressure-perdest")

#: Figure 1 has no numbers to compare, only its argument.  The
#: bottleneck is a rate cap, which only the fluid substrate honors.
FIGURE_1 = PaperTable(
    table_id="fig1",
    title="Figure 1: per-destination queueing isolation (§5.1)",
    scenario="figure1",
    columns={name: {"protocol": name, "capacity_pps": 600.0} for name in _QUEUES},
    weights={1: 1.0, 2: 1.0},
    paper={},
    assertions=(
        ShapeAssertion(
            "fig1-f1-bottleneck",
            "f1 is pinned at the (z,t) bottleneck under either queueing "
            "(<= 1.15x its cap)",
            _flow_rate(_QUEUES, 1, operator.le, 1.15 * _BOTTLENECK),
            substrates=("fluid",),
        ),
        ShapeAssertion(
            "fig1-shared-drags-f2",
            "one shared queue per node drags f2 below half its desirable "
            "rate",
            _flow_rate(_QUEUES[:1], 2, operator.lt, 0.5 * _DESIRED),
            substrates=("fluid",),
        ),
        ShapeAssertion(
            "fig1-perdest-isolates-f2",
            "one queue per destination lets f2 reach > 0.85x its "
            "desirable rate",
            _flow_rate(_QUEUES[1:], 2, operator.gt, 0.85 * _DESIRED),
            substrates=("fluid",),
        ),
    ),
)

#: Every encoded claim, keyed by paper table number or figure name.
PAPER_TABLES: dict[int | str, PaperTable] = {
    1: TABLE_1,
    2: TABLE_2,
    3: TABLE_3,
    4: TABLE_4,
    "fig1": FIGURE_1,
}
