"""Smoke tests: every example script runs end to end.

Each ``examples/*.py`` runs in a subprocess at a short ``--duration``,
on the fluid substrate where it takes ``--substrate``, and is killed
after :data:`TIMEOUT` seconds.  The examples are discovered, so a new
one is covered the day it lands.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py"))

#: Simulated seconds per example: the crash and the recovery of
#: node_failure_recovery.py must both fall inside its run.
DURATIONS = {"node_failure_recovery.py": "12"}
#: Further arguments that keep an example short.
EXTRA = {"random_network_study.py": ["--samples", "1"]}
#: Wall seconds one example may take (each takes about 2 s on a 2-CPU host).
TIMEOUT = 60


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    path = ROOT / "examples" / script
    args = ["--duration", DURATIONS.get(script, "5"), *EXTRA.get(script, [])]
    if "--substrate" in path.read_text(encoding="utf-8"):
        args += ["--substrate", "fluid"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(path), *args],
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()
