"""analysis/report.py: the aligned-text table renderer."""

import pytest

from repro.analysis.report import format_table
from repro.errors import AnalysisError


def test_width_mismatch_raises():
    with pytest.raises(AnalysisError, match="2 cells, expected 3"):
        format_table(["a", "b", "c"], [["x", 1.0]])


def test_floats_use_float_format_and_other_cells_use_str():
    text = format_table(
        ["metric", "value"],
        [["f1", 563.957], ["hops", 3], ["note", None]],
        float_format="{:.1f}",
    )
    assert "564.0" in text  # rounded by the format, not str()
    assert "563.957" not in text
    assert "3" in text and "None" in text


def test_title_is_first_line_and_optional():
    titled = format_table(["a"], [["x"]], title="Table 1")
    assert titled.splitlines()[0] == "Table 1"
    untitled = format_table(["a"], [["x"]])
    assert untitled.splitlines()[0].strip() == "a"


def test_columns_align_across_rows():
    text = format_table(
        ["metric", "gmp"],
        [["f1", 437.25], ["f10", 5.0]],
    )
    lines = text.splitlines()
    # Header, separator, and both rows share one width.
    assert len({len(line) for line in lines}) == 1
    assert lines[1].count("-+-") == 1


def test_empty_rows_render_header_only():
    text = format_table(["metric", "gmp"], [])
    lines = text.splitlines()
    assert len(lines) == 2
    assert "metric" in lines[0]
