"""Public API surface tests: the documented entry points exist and the
README quickstart runs as written (on the fluid substrate for speed)."""

import subprocess
import sys
import textwrap
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_readme_quickstart_pattern():
    from repro import RunSpec

    spec = RunSpec(
        scenario="figure3",  # the paper's 3-link chain
        protocol="gmp",
        substrate="fluid",
        duration=5.0,
        seed=1,
        period=0.5,
    )
    result = spec.run()
    table = result.summary_table()
    assert "I_mm" in table
    assert 0 <= result.i_mm <= 1


def test_every_run_is_a_run_spec():
    """Tests, examples and benchmarks describe each run with a
    ``RunSpec``; only the benchmark harness under ``benchmarks/e2e``
    calls the runner itself."""
    call = "run_scenario" + "("
    harness = ROOT / "benchmarks" / "e2e"
    offenders = [
        str(path.relative_to(ROOT))
        for folder in ("tests", "examples", "benchmarks")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if harness not in path.parents and call in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_subpackage_docstrings_exist():
    import repro.analysis
    import repro.baselines
    import repro.buffers
    import repro.churn
    import repro.core
    import repro.fidelity
    import repro.fuzz
    import repro.flows
    import repro.mac
    import repro.obs
    import repro.routing
    import repro.scenarios
    import repro.sim
    import repro.topology

    for module in (
        repro,
        repro.analysis,
        repro.baselines,
        repro.buffers,
        repro.churn,
        repro.core,
        repro.fidelity,
        repro.fuzz,
        repro.flows,
        repro.mac,
        repro.obs,
        repro.routing,
        repro.scenarios,
        repro.sim,
        repro.topology,
    ):
        assert module.__doc__ and len(module.__doc__.strip()) > 20


def test_churn_and_fuzz_exports():
    import repro.churn
    import repro.fuzz

    for module in (repro.churn, repro.fuzz):
        for name in module.__all__:
            assert hasattr(module, name), name


def test_gmp_runs_without_scipy_and_2pp_loads_it():
    # Only 2PP's phase-2 LP needs scipy; importing the package and
    # running GMP must not load it.  A fresh interpreter, because this
    # test process may have loaded scipy already.
    script = textwrap.dedent(
        """
        import sys

        import repro
        import repro.obs
        import repro.scenarios.sweep
        import repro.telemetry
        from repro import RunSpec

        result = RunSpec(
            scenario="figure3", protocol="gmp", substrate="fluid", duration=5.0, seed=1, period=0.5
        ).run()
        assert 0 <= result.i_mm <= 1
        assert "scipy" not in sys.modules, "scipy loaded without a 2PP run"

        result = RunSpec(
            scenario="figure3", protocol="2pp", substrate="fluid", duration=2.0, seed=1
        ).run()
        assert result.effective_throughput > 0
        assert "scipy.optimize" in sys.modules
        """
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
