"""Unit tests for RunResult metrics and rendering."""

import pytest

from repro.fidelity.paper import PAPER_TABLES
from repro.flows.flow import Flow, FlowSet
from repro.scenarios.results import RunResult


def make_result(rates):
    return RunResult(
        scenario="unit",
        protocol="gmp",
        substrate="fluid",
        duration=60.0,
        warmup=20.0,
        seed=0,
        flow_rates=dict(rates),
        hop_counts={flow_id: 1 for flow_id in rates},
        effective_throughput=sum(rates.values()),
    )


def test_indices_from_paper_gmp_column():
    paper = PAPER_TABLES[3].paper["gmp"]
    result = make_result(paper.rates)
    assert result.i_mm == pytest.approx(paper.i_mm, abs=0.001)
    assert result.i_eq == pytest.approx(paper.i_eq, abs=0.001)


def test_normalized_rates_use_weights():
    flows = FlowSet(
        [
            Flow(flow_id=1, source=0, destination=1, weight=2.0),
            Flow(flow_id=2, source=1, destination=0, weight=1.0),
        ]
    )
    result = make_result({1: 100.0, 2: 50.0})
    assert result.normalized_rates(flows) == {1: 50.0, 2: 50.0}


def test_summary_table_contains_all_metrics():
    result = make_result({1: 10.0, 2: 20.0})
    text = result.summary_table()
    for needle in ("f1", "f2", "U", "I_mm", "I_eq", "unit", "gmp"):
        assert needle in text


def test_extras_default_empty():
    result = make_result({1: 1.0})
    assert result.extras == {}
    assert result.buffer_drops == 0
    assert result.mac_drops == 0
