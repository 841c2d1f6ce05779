"""Call-graph builder: module naming, hot-path classification,
cycles, method resolution through bases, and re-export chains
(including the symbol-shadows-module pattern)."""

from pathlib import Path

import pytest

from repro.simcheck.callgraph import build_program, parse_module

REPO_ROOT = Path(__file__).resolve().parent.parent
MINI = REPO_ROOT / "tests" / "fixtures" / "callgraph" / "mini"


@pytest.fixture(scope="module")
def program():
    modules = [parse_module(path) for path in sorted(MINI.glob("*.py"))]
    return build_program(modules)


def test_modules_named_by_pragma(program):
    assert set(program.modules) == {
        "mini.__init__",
        "mini.driver",
        "mini.metrics",
        "mini.shrink",
    }
    assert all(m.module_declared for m in program.modules.values())


def test_scheduling_registration_makes_the_callee_hot(program):
    assert "mini.driver.Driver._tick" in program.hot_chains
    chain = program.hot_chains["mini.driver.Driver._tick"]
    assert chain[0].startswith("every@")
    assert chain[-1] == "mini.driver.Driver._tick"
    # The registrar itself is not hot.
    assert "mini.driver.Driver.__init__" not in program.hot_chains


def test_hotness_propagates_across_modules_and_cycles(program):
    # _tick -> measure (cross-module import), measure <-> helper (cycle):
    # propagation terminates and classifies both cycle members.
    assert "mini.metrics.measure" in program.hot_chains
    assert "mini.metrics.helper" in program.hot_chains
    chain = program.hot_chains["mini.metrics.helper"]
    assert "mini.driver.Driver._tick" in chain


def test_method_resolution_through_base_class(program):
    assert (
        program.method_on("mini.driver.Child", "poll")
        == "mini.driver.Base.poll"
    )
    # self.child = Child(); self.child.poll() on the hot path resolves
    # to the inherited implementation.
    assert "mini.driver.Base.poll" in program.hot_chains


def test_reexport_resolves_through_package_init(program):
    assert program.resolve_symbol("mini.Driver") == "mini.driver.Driver"


def test_symbol_shadowing_its_module_terminates(program):
    # `from mini.shrink import shrink` makes the alias target contain
    # its own name; resolution must neither recurse forever nor grow
    # the candidate string.
    assert program.resolve_symbol("mini.shrink") == "mini.shrink.shrink"
    assert program.resolve_symbol("mini.shrink.shrink.shrink.shrink") is None
