"""Unit tests for the machine-readable paper tables and their shape
assertions (no simulator involved)."""

import pytest

from repro.analysis.fairness import (
    equality_fairness_index,
    maxmin_fairness_index,
)
from repro.fidelity.paper import (
    PAPER_BETA,
    PAPER_TABLES,
    MeasuredColumn,
)
from repro.scenarios.sweep import SCENARIO_FACTORIES


def column(protocol, rates, *, u=None, i_mm=0.5, i_eq=0.9, weights=None):
    weights = weights or {}
    return MeasuredColumn(
        protocol=protocol,
        substrate="fluid",
        seed=1,
        rates=dict(rates),
        normalized={
            fid: rate / weights.get(fid, 1.0) for fid, rate in rates.items()
        },
        u=sum(rates.values()) if u is None else u,
        i_mm=i_mm,
        i_eq=i_eq,
    )


def assertion(table_id, assertion_id):
    for entry in PAPER_TABLES[table_id].assertions:
        if entry.assertion_id == assertion_id:
            return entry
    raise AssertionError(f"table {table_id} has no {assertion_id}")


# --- table structure -------------------------------------------------------------


def test_tables_bind_to_real_scenarios_and_protocols():
    assert sorted(PAPER_TABLES) == [1, 2, 3, 4]
    for table_id, table in PAPER_TABLES.items():
        assert table.table_id == table_id
        assert table.scenario in SCENARIO_FACTORIES
        assert table.protocols
        assert table.flow_ids()
        for protocol in table.protocols:
            assert protocol in table.paper
        for protocol, paper in table.paper.items():
            assert protocol in table.protocols
            assert sorted(paper.rates) == table.flow_ids()


def test_assertion_ids_are_globally_unique():
    seen = set()
    for table in PAPER_TABLES.values():
        for entry in table.assertions:
            assert entry.assertion_id not in seen
            seen.add(entry.assertion_id)
    assert seen  # every table contributed


def test_paper_metrics_are_self_consistent():
    """I_mm / I_eq stored for every column must be derivable from its
    per-flow rates, and so must U for the all-1-hop tables (Table 4's
    hop-weighted U is checked against the routed Figure 4 in
    ``tests/test_scenarios.py``) — a transcription-error guard."""
    for table_id, table in PAPER_TABLES.items():
        for protocol, paper in table.paper.items():
            rates = list(paper.rates.values())
            assert paper.i_mm == pytest.approx(
                maxmin_fairness_index(rates), abs=0.001
            ), (table_id, protocol)
            assert paper.i_eq == pytest.approx(
                equality_fairness_index(rates), abs=0.001
            ), (table_id, protocol)
    for table_id in (1, 2):
        paper = PAPER_TABLES[table_id].paper["gmp"]
        assert paper.u == pytest.approx(sum(paper.rates.values()), abs=0.01)


def test_substrate_scoping():
    side_bias = assertion(4, "t4-80211-side-bias")
    assert side_bias.applies_to("dcf")
    assert not side_bias.applies_to("fluid")
    for table in PAPER_TABLES.values():
        for entry in table.assertions:
            if entry.assertion_id != "t4-80211-side-bias":
                assert entry.applies_to("fluid") and entry.applies_to("dcf")


# --- shape predicates ------------------------------------------------------------


def test_t1_equal_split_passes_within_beta_band_and_fails_outside():
    check = assertion(1, "t1-equal-split").check
    equal = {"gmp": column("gmp", {1: 437.0, 2: 219.0, 3: 218.0, 4: 220.0})}
    passed, detail = check(equal)
    assert passed
    assert "f2=219.0" in detail
    skewed = {"gmp": column("gmp", {1: 437.0, 2: 120.0, 3: 300.0, 4: 220.0})}
    assert not check(skewed)[0]


def test_t1_residual_requires_f1_well_above_clique1():
    check = assertion(1, "t1-f1-residual").check
    good = {"gmp": column("gmp", {1: 437.0, 2: 219.0, 3: 219.0, 4: 219.0})}
    assert check(good)[0]
    # 1.28x passed the old 1.25x bar; the 1.3x bar is strict.
    flat = {"gmp": column("gmp", {1: 280.0, 2: 219.0, 3: 219.0, 4: 219.0})}
    assert not check(flat)[0]
    at_bar = {"gmp": column("gmp", {1: 260.0, 2: 200.0, 3: 200.0, 4: 200.0})}
    assert not check(at_bar)[0]


@pytest.mark.parametrize(
    "table_id, assertion_id, floor",
    [(1, "t1-gmp-ieq", 0.7), (3, "t3-gmp-ieq", 0.97)],
)
def test_gmp_ieq_floors_are_strict(table_id, assertion_id, floor):
    check = assertion(table_id, assertion_id).check
    rates = {fid: 100.0 for fid in PAPER_TABLES[table_id].flow_ids()}
    assert check({"gmp": column("gmp", rates, i_eq=floor + 0.01)})[0]
    assert not check({"gmp": column("gmp", rates, i_eq=floor)})[0]


def test_t2_weight_order_is_strict():
    check = assertion(2, "t2-weight-order").check
    weights = {1: 1.0, 2: 2.0, 3: 1.0, 4: 3.0}
    ordered = {
        "gmp": column(
            "gmp", {1: 320.0, 2: 232.0, 3: 118.0, 4: 305.0}, weights=weights
        )
    }
    assert check(ordered)[0]
    # f2 dropping below f3 breaks the weight ordering.
    broken = {
        "gmp": column(
            "gmp", {1: 320.0, 2: 100.0, 3: 118.0, 4: 305.0}, weights=weights
        )
    }
    passed, detail = check(broken)
    assert not passed
    assert "f4 > f2 > f3" in detail


def test_t2_f1_opportunistic_uses_normalized_rates():
    check = assertion(2, "t2-f1-opportunistic").check
    weights = {1: 1.0, 2: 2.0, 3: 1.0, 4: 3.0}
    # f4's raw rate is close to f1's, but normalized f4 = 305/3 ≈ 102,
    # so f1 still tops the normalized column.
    measurement = {
        "gmp": column(
            "gmp", {1: 320.0, 2: 232.0, 3: 118.0, 4: 305.0}, weights=weights
        )
    }
    assert check(measurement)[0]
    # With f1 capped below f3, it no longer holds the top slot.
    capped = {
        "gmp": column(
            "gmp", {1: 100.0, 2: 232.0, 3: 118.0, 4: 305.0}, weights=weights
        )
    }
    assert not check(capped)[0]


def test_t2_normalized_split_is_within_2x():
    check = assertion(2, "t2-normalized-split").check
    weights = {1: 1.0, 2: 2.0, 3: 1.0, 4: 3.0}
    # Normalized f2/f3/f4 = 62 / 80 / 54: within 2x although the raw
    # rates (124 / 80 / 163) are not.
    spread = {
        "gmp": column(
            "gmp", {1: 181.0, 2: 124.0, 3: 80.0, 4: 163.0}, weights=weights
        )
    }
    passed, detail = check(spread)
    assert passed
    assert "normalized" in detail
    # Normalized f3 = 2 x normalized f4 exactly: not below 2x.
    wide = {
        "gmp": column(
            "gmp", {1: 181.0, 2: 100.0, 3: 100.0, 4: 150.0}, weights=weights
        )
    }
    assert not check(wide)[0]


def test_t3_gmp_repairs_needs_floor_and_margin():
    check = assertion(3, "t3-gmp-repairs").check

    def measurement(gmp_imm, base_imm):
        return {
            "802.11": column("802.11", {1: 80.0, 2: 220.0, 3: 174.0},
                             i_mm=base_imm),
            "2pp": column("2pp", {1: 132.0, 2: 189.0, 3: 241.0},
                          i_mm=base_imm),
            "gmp": column("gmp", {1: 165.0, 2: 176.0, 3: 179.0},
                          i_mm=gmp_imm),
        }

    assert check(measurement(0.9, 0.4))[0]
    assert not check(measurement(0.7, 0.4))[0]  # below the 0.8 floor
    assert not check(measurement(0.85, 0.8))[0]  # margin over baselines


def test_t4_top_flows_handles_rate_ties():
    check = assertion(4, "t4-2pp-side-1hop").check
    rates = {fid: 1.0 for fid in range(1, 9)}
    rates[2] = rates[8] = 245.8  # exact tie at the top
    measurement = {"2pp": column("2pp", rates)}
    passed, detail = check(measurement)
    assert passed
    assert "f2,f8" in detail
    rates[5] = 400.0
    assert not check({"2pp": column("2pp", rates)})[0]


def t4_measurement(*, gmp=None, two_pp=None, plain=None):
    flat = {fid: 100.0 for fid in range(1, 9)}
    columns = {"802.11": plain, "2pp": two_pp, "gmp": gmp}
    measured = {}
    for protocol, spec in columns.items():
        rates, i_mm = spec or (flat, 0.5)
        measured[protocol] = column(protocol, rates, i_mm=i_mm)
    return measured


def test_t4_gmp_fairest_beats_both_baselines_strictly():
    check = assertion(4, "t4-gmp-fairest").check
    flat = {fid: 100.0 for fid in range(1, 9)}
    assert check(
        t4_measurement(gmp=(flat, 0.78), two_pp=(flat, 0.44), plain=(flat, 0.1))
    )[0]
    # A tie with a baseline is not "fairest".
    assert not check(
        t4_measurement(gmp=(flat, 0.78), two_pp=(flat, 0.78), plain=(flat, 0.1))
    )[0]
    # Beating both baselines below the 0.6 floor is not enough.
    assert not check(
        t4_measurement(gmp=(flat, 0.6), two_pp=(flat, 0.4), plain=(flat, 0.1))
    )[0]


def test_t4_gmp_side_middle_ceiling():
    check = assertion(4, "t4-gmp-side-middle").check
    level = {1: 111.0, 2: 106.0, 3: 86.0, 4: 86.0, 5: 87.0, 6: 87.0, 7: 110.0, 8: 110.0}
    passed, detail = check(t4_measurement(gmp=(level, 0.78)))
    assert passed
    assert "need < 1.4x" in detail
    skewed = {fid: 140.0 if fid in (1, 2, 7, 8) else 100.0 for fid in range(1, 9)}
    assert not check(t4_measurement(gmp=(skewed, 0.7)))[0]


def test_t4_2pp_side_flows_each_beat_twice_the_worst():
    check = assertion(4, "t4-2pp-side-2x-worst").check
    rates = {fid: 82.0 for fid in range(1, 9)}
    rates[2], rates[8] = 188.0, 170.0
    passed, detail = check(t4_measurement(two_pp=(rates, 0.44)))
    assert passed
    assert "min(others)=82.0" in detail
    # f8 at 2x the worst flow, not above it.
    rates[8] = 164.0
    assert not check(t4_measurement(two_pp=(rates, 0.44)))[0]


def test_t4_2pp_unfair():
    check = assertion(4, "t4-2pp-unfair").check
    flat = {fid: 100.0 for fid in range(1, 9)}
    assert check(t4_measurement(two_pp=(flat, 0.44)))[0]
    assert not check(t4_measurement(two_pp=(flat, 0.6)))[0]


def test_t4_u_ordering_tolerates_equal_fluid_throughput():
    check = assertion(4, "t4-u-ordering").check

    def measurement(u_80211, u_gmp, u_2pp):
        return {
            "802.11": column("802.11", {1: 1.0}, u=u_80211),
            "gmp": column("gmp", {1: 1.0}, u=u_gmp),
            "2pp": column("2pp", {1: 1.0}, u=u_2pp),
        }

    # Identical U (the fluid substrate) is within the 1% slack.
    assert check(measurement(2624.0, 2624.0, 2624.0))[0]
    assert check(measurement(1976.0, 1821.0, 1693.0))[0]
    assert not check(measurement(1700.0, 1976.0, 1693.0))[0]


def test_beta_constant_matches_the_paper():
    assert PAPER_BETA == pytest.approx(0.10)
