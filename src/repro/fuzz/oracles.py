"""The oracle battery: what "this randomized run is correct" means.

Property-based fuzzing is only as good as its oracles.  Rather than
asserting exact rates (which no randomized scenario has a closed form
for), every scenario is checked against *invariants that hold for any
workload*:

* **watchdog** — the run terminates without tripping a kernel
  watchdog (no event-loop stall, no runaway schedule);
* **replay** — running the identical spec twice produces identical
  L0 (event) and L1 (measurement) digests (full determinism, churn and
  faults included);
* **conservation** — strict per-flow packet conservation on the fluid
  substrate: injected = delivered + drops + crash losses + in-flight;
* **gmp_residue** — every flow departure left zero protocol state
  behind (the post-departure audit found nothing);
* **starvation** — no flow that could deliver sat at zero for a
  sustained window *inside its own lifetime* (departures are not
  starvation), via :func:`repro.obs.health.detect_starved_flows`.

:func:`evaluate` runs one case against the whole battery and returns a
:class:`FuzzOutcome`; the shrinker re-evaluates candidates with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError, SimulationError
from repro.faults.schedule import FaultSchedule
from repro.faults.spec import parse_fault_spec
from repro.fuzz.grammar import FuzzScenario
from repro.obs.health import detect_starved_flows
from repro.scenarios.results import RunResult
from repro.scenarios.spec import replay_check

ORACLES = ("watchdog", "replay", "conservation", "gmp_residue", "starvation")

#: Hard event budget per fuzz run — generous for every grammar-sized
#: scenario, small enough that a runaway schedule fails fast instead of
#: hanging CI.
MAX_EVENTS = 3_000_000

#: Seconds after a node recovery during which silence of flows routed
#: through it is still excused (reconvergence, not starvation).
RECOVERY_GRACE = 10.0


def _crash_windows(faults: FaultSchedule | None) -> list[tuple[int, float, float]]:
    """(node, start, end) windows during which a node's absence (plus
    the reconvergence grace) legitimately silences flows through it."""
    if faults is None:
        return []
    return [(node, start, end + RECOVERY_GRACE) for node, start, end in faults.crash_windows]


@dataclass(frozen=True)
class OracleResult:
    """One oracle's verdict on one scenario."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


@dataclass
class FuzzOutcome:
    """Everything one scenario evaluation produced.

    Attributes:
        case: the evaluated fuzz case.
        oracles: one verdict per battery member, in :data:`ORACLES`
            order.
        error: an infrastructure error (the scenario could not even
            be materialized) — counts as a failure of its own kind.
        result: the first run's :class:`RunResult` when the run
            completed (diagnostics; None after a watchdog trip).
    """

    case: FuzzScenario
    oracles: list[OracleResult] = field(default_factory=list)
    error: str | None = None
    result: RunResult | None = None

    @property
    def failures(self) -> list[OracleResult]:
        return [o for o in self.oracles if o.status == "fail"]

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failures

    def failed_names(self) -> set[str]:
        names = {o.name for o in self.failures}
        if self.error is not None:
            names.add("harness")
        return names

    def render(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        parts = [f"{self.case.label()}: {verdict}"]
        if self.error:
            parts.append(f"  harness error: {self.error}")
        for oracle in self.oracles:
            marker = {"pass": "+", "fail": "!", "skip": "-"}[oracle.status]
            line = f"  [{marker}] {oracle.name}"
            if oracle.detail:
                line += f": {oracle.detail}"
            parts.append(line)
        return "\n".join(parts)


def evaluate(case: FuzzScenario) -> FuzzOutcome:
    """Run one case against the full oracle battery.

    The case's spec runs with its planted bug applied (generated specs
    are GMP on the fluid substrate, the strict-conservation
    configuration), twice via :func:`~repro.scenarios.spec.replay_check`
    so the replay oracle comes for free with the same two runs the
    others inspect.
    """
    outcome = FuzzOutcome(case=case)
    try:
        replay_report, result, _second = replay_check(
            case.planted(),
            check_invariants=False,  # audited below so all oracles report
            max_events=MAX_EVENTS,
        )
    except SimulationError as error:
        outcome.oracles.append(
            OracleResult("watchdog", "fail", f"{error}")
        )
        outcome.oracles.extend(
            OracleResult(name, "skip", "run did not complete")
            for name in ORACLES[1:]
        )
        return outcome
    except ReproError as error:
        outcome.error = f"{type(error).__name__}: {error}"
        return outcome

    outcome.result = result
    outcome.oracles.append(OracleResult("watchdog", "pass"))

    if replay_report.matched:
        outcome.oracles.append(OracleResult("replay", "pass"))
    else:
        outcome.oracles.append(
            OracleResult("replay", "fail", replay_report.render().splitlines()[0])
        )

    # Strict conservation: the runner stored a relaxed report (we asked
    # it not to raise); re-arm strictness and re-read the verdict.
    invariants = result.extras.get("invariants")
    if invariants is None:
        outcome.oracles.append(
            OracleResult("conservation", "skip", "no audit recorded")
        )
    else:
        invariants.strict = True
        violations = invariants.violations()
        if violations:
            outcome.oracles.append(
                OracleResult(
                    "conservation",
                    "fail",
                    "; ".join(violations[:3])
                    + ("" if len(violations) <= 3 else " ..."),
                )
            )
        else:
            outcome.oracles.append(OracleResult("conservation", "pass"))

    churn_report = result.extras.get("churn")
    if churn_report is None:
        outcome.oracles.append(
            OracleResult("gmp_residue", "skip", "no churn in this scenario")
        )
    elif churn_report.residues:
        leaks = sum(len(items) for items in churn_report.residues.values())
        sample_flow = min(churn_report.residues)
        outcome.oracles.append(
            OracleResult(
                "gmp_residue",
                "fail",
                f"{leaks} residue(s) across "
                f"{len(churn_report.residues)} departed flow(s), e.g. "
                f"{churn_report.residues[sample_flow][0]}",
            )
        )
    else:
        outcome.oracles.append(OracleResult("gmp_residue", "pass"))

    findings = detect_starved_flows(result, starve_window=8.0)
    faults = case.spec.faults
    crash_windows = _crash_windows(parse_fault_spec(faults) if faults else None)
    paths = result.extras.get("flow_paths", {})
    real = []
    excused = 0
    for finding in findings:
        flow_id = int(finding.labels.get("flow", -1))
        on_path: set[int] = set()
        for i, j in paths.get(flow_id, []):
            on_path.update((i, j))
        if any(
            node in on_path and finding.first_seen < end and finding.last_seen > start
            for node, start, end in crash_windows
        ):
            excused += 1  # a dead relay, not a protocol bug
        else:
            real.append(finding)
    if real:
        outcome.oracles.append(
            OracleResult(
                "starvation",
                "fail",
                real[0].render()
                + ("" if len(real) == 1 else f" (+{len(real) - 1} more)"),
            )
        )
    else:
        detail = f"{excused} finding(s) excused by crash windows" if excused else ""
        outcome.oracles.append(OracleResult("starvation", "pass", detail))

    return outcome
