"""Paper-table regression harness.

Regenerates Tables 1–4 through the cached sweep engine over multiple
seeds and compares them cell-by-cell against the paper's numbers and
shape-by-shape against the EXPERIMENTS.md assertions encoded in
:mod:`repro.fidelity.paper`.  The output is a :class:`FidelityReport`
— paper vs ours vs Δ per cell, per-seed shape verdicts, seed spread —
renderable as JSON (for CI artifacts) and aligned markdown (for
EXPERIMENTS.md, whose table blocks this module rewrites in place).

CI gates on committed baseline ratchets, one per substrate
(``fidelity-baseline.json`` for fluid, ``fidelity-baseline-dcf.json``
for the packet-level DCF): every shape must keep its recorded status,
and the baseline must list exactly the assertions the harness produces
(no stale entries).  A shape recorded as ``fail`` that still fails is a
known fidelity gap: reported, but not a regression.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import AnalysisError, ConfigError
from repro.fidelity.paper import (
    PAPER_TABLES,
    MeasuredColumn,
    PaperTable,
    TableMeasurement,
)
from repro.scenarios.sweep import DEFAULT_CACHE_DIR, run_sweep, sweep_grid

#: Default committed ratchet file (repo root).
DEFAULT_BASELINE_PATH = "fidelity-baseline.json"

#: Markers bracketing a generated table block in EXPERIMENTS.md.
_BLOCK_BEGIN = "<!-- fidelity:table{table_id}:begin -->"
_BLOCK_END = "<!-- fidelity:table{table_id}:end -->"


@dataclass(frozen=True)
class FidelityConfig:
    """What to regenerate, and how."""

    tables: tuple[int, ...] = (1, 2, 3, 4)
    seeds: tuple[int, ...] = (1, 2, 3)
    substrate: str = "fluid"
    duration: float = 60.0
    workers: int = 1
    cache_dir: str | Path | None = DEFAULT_CACHE_DIR

    def __post_init__(self) -> None:
        unknown = [tid for tid in self.tables if tid not in PAPER_TABLES]
        if unknown:
            raise ConfigError(
                f"unknown paper table(s) {unknown}; pick from "
                f"{sorted(PAPER_TABLES)}"
            )
        if not self.tables or not self.seeds:
            raise ConfigError("fidelity needs at least one table and one seed")


@dataclass
class CellComparison:
    """One table cell: paper vs ours (mean over seeds) vs Δ."""

    metric: str  # "f<id>", "U", "I_mm", or "I_eq"
    protocol: str
    paper: float
    ours: float
    spread: float  # max - min across seeds
    delta: float = field(init=False)
    delta_pct: float | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.delta = self.ours - self.paper
        if self.paper != 0:
            self.delta_pct = 100.0 * self.delta / self.paper


@dataclass
class ShapeOutcome:
    """Verdict of one shape assertion across every seed."""

    assertion_id: str
    description: str
    applicable: bool
    passed: bool | None  # None when not applicable on this substrate
    details: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        if not self.applicable:
            return "skip"
        return "pass" if self.passed else "fail"


@dataclass
class TableFidelity:
    """One regenerated table."""

    table_id: int
    title: str
    scenario: str
    substrate: str
    protocols: tuple[str, ...]
    seeds: tuple[int, ...]
    cells: list[CellComparison]
    shapes: list[ShapeOutcome]

    def shapes_ok(self) -> bool:
        return all(outcome.passed is not False for outcome in self.shapes)

    def to_json(self) -> dict:
        return {
            "table_id": self.table_id,
            "title": self.title,
            "scenario": self.scenario,
            "substrate": self.substrate,
            "protocols": list(self.protocols),
            "seeds": list(self.seeds),
            "cells": [vars(cell) for cell in self.cells],
            "shapes": [
                {
                    "assertion_id": outcome.assertion_id,
                    "description": outcome.description,
                    "status": outcome.status,
                    "details": outcome.details,
                }
                for outcome in self.shapes
            ],
        }

    def markdown(self) -> str:
        """The table as a markdown block (paper | ours ±spread | Δ%)."""
        headers = ["metric"]
        for protocol in self.protocols:
            headers.extend(
                [f"paper {protocol}", f"ours {protocol}", "Δ%"]
            )
        rows: list[list[str]] = []
        metrics = [
            cell.metric
            for cell in self.cells
            if cell.protocol == self.protocols[0]
        ]
        by_key = {(cell.protocol, cell.metric): cell for cell in self.cells}
        for metric in metrics:
            row = [metric]
            for protocol in self.protocols:
                cell = by_key[(protocol, metric)]
                row.append(f"{cell.paper:.2f}")
                ours = f"{cell.ours:.2f}"
                if cell.spread > 0:
                    ours += f" ±{cell.spread / 2:.1f}"
                row.append(ours)
                row.append(
                    "—" if cell.delta_pct is None else f"{cell.delta_pct:+.0f}"
                )
            rows.append(row)
        lines = [f"| {' | '.join(headers)} |"]
        lines.append(f"|{'|'.join('---' for _ in headers)}|")
        lines.extend(f"| {' | '.join(row)} |" for row in rows)
        lines.append("")
        for outcome in self.shapes:
            mark = {"pass": "✓", "fail": "✗", "skip": "·"}[outcome.status]
            note = "" if outcome.applicable else " (skipped: substrate)"
            lines.append(
                f"* {mark} `{outcome.assertion_id}` — "
                f"{outcome.description}{note}"
            )
        return "\n".join(lines)


@dataclass
class FidelityReport:
    """Everything one fidelity run produced."""

    substrate: str
    duration: float
    seeds: tuple[int, ...]
    tables: list[TableFidelity]
    cache_hits: int = 0
    cache_misses: int = 0

    def shapes_ok(self) -> bool:
        return all(table.shapes_ok() for table in self.tables)

    def shape_outcomes(self) -> dict[str, ShapeOutcome]:
        """``"t<N>:<assertion-id>" -> outcome`` for every shape."""
        return {
            f"t{table.table_id}:{outcome.assertion_id}": outcome
            for table in self.tables
            for outcome in table.shapes
        }

    def shape_statuses(self) -> dict[str, str]:
        """``"t<N>:<assertion-id>" -> pass|fail|skip`` for every shape."""
        return {
            key: outcome.status
            for key, outcome in self.shape_outcomes().items()
        }

    def to_json(self) -> dict:
        return {
            "substrate": self.substrate,
            "duration": self.duration,
            "seeds": list(self.seeds),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "shapes_ok": self.shapes_ok(),
            "tables": [table.to_json() for table in self.tables],
        }

    def markdown(self) -> str:
        lines: list[str] = []
        for table in self.tables:
            lines.append(f"## {table.title}")
            lines.append("")
            lines.append(self.stamp())
            lines.append("")
            lines.append(table.markdown())
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"

    def stamp(self) -> str:
        """Provenance line stamped onto every generated block."""
        seeds = ",".join(str(seed) for seed in self.seeds)
        return (
            f"*Generated by `python -m repro fidelity` "
            f"({self.substrate} substrate, {self.duration:g} s, "
            f"seeds {seeds}; ours = mean ± half-spread across seeds).*"
        )


def _measurement(
    table: PaperTable, summaries: list[dict], substrate: str, seed: int
) -> TableMeasurement:
    """Assemble one seed's measured table from sweep summaries."""
    measured: TableMeasurement = {}
    for summary in summaries:
        spec = summary["spec"]
        if spec["seed"] != seed or spec["scenario"] != table.scenario:
            continue
        protocol = spec["protocol"]
        rates = {int(fid): rate for fid, rate in summary["flow_rates"].items()}
        normalized = {
            fid: rate / table.weights.get(fid, 1.0)
            for fid, rate in rates.items()
        }
        measured[protocol] = MeasuredColumn(
            protocol=protocol,
            substrate=substrate,
            seed=seed,
            rates=rates,
            normalized=normalized,
            u=summary["effective_throughput"],
            i_mm=summary["i_mm"],
            i_eq=summary["i_eq"],
        )
    missing = [p for p in table.protocols if p not in measured]
    if missing:
        raise AnalysisError(
            f"table {table.table_id}: sweep produced no summary for "
            f"protocol(s) {missing} at seed {seed}"
        )
    return measured


def _cells(
    table: PaperTable, per_seed: list[TableMeasurement]
) -> list[CellComparison]:
    cells: list[CellComparison] = []
    for protocol in table.protocols:
        paper_column = table.paper[protocol]
        columns = [measured[protocol] for measured in per_seed]

        def add(metric: str, paper_value: float, values: list[float]) -> None:
            mean = sum(values) / len(values)
            spread = max(values) - min(values)
            cells.append(
                CellComparison(
                    metric=metric,
                    protocol=protocol,
                    paper=paper_value,
                    ours=mean,
                    spread=spread,
                )
            )

        for flow_id in table.flow_ids():
            add(
                f"f{flow_id}",
                paper_column.rates[flow_id],
                [column.rates[flow_id] for column in columns],
            )
        add("U", paper_column.u, [column.u for column in columns])
        add("I_mm", paper_column.i_mm, [column.i_mm for column in columns])
        add("I_eq", paper_column.i_eq, [column.i_eq for column in columns])
    return cells


def _shapes(
    table: PaperTable, per_seed: list[TableMeasurement], substrate: str
) -> list[ShapeOutcome]:
    outcomes: list[ShapeOutcome] = []
    for assertion in table.assertions:
        if not assertion.applies_to(substrate):
            outcomes.append(
                ShapeOutcome(
                    assertion_id=assertion.assertion_id,
                    description=assertion.description,
                    applicable=False,
                    passed=None,
                    details=[
                        f"not applicable on the {substrate} substrate "
                        f"(needs {'/'.join(assertion.substrates or ())})"
                    ],
                )
            )
            continue
        details: list[str] = []
        all_passed = True
        for measured in per_seed:
            passed, detail = assertion.check(measured)
            seed = next(iter(measured.values())).seed
            details.append(f"seed {seed}: {'ok' if passed else 'FAIL'} — {detail}")
            all_passed = all_passed and passed
        outcomes.append(
            ShapeOutcome(
                assertion_id=assertion.assertion_id,
                description=assertion.description,
                applicable=True,
                passed=all_passed,
                details=details,
            )
        )
    return outcomes


def run_fidelity(config: FidelityConfig | None = None) -> FidelityReport:
    """Regenerate the requested tables and compare against the paper.

    Every (scenario, protocol, seed) cell goes through the cached
    sweep engine, so re-running the harness on unchanged code is pure
    cache hits, and results are independent of the worker count.
    """
    config = config or FidelityConfig()
    report = FidelityReport(
        substrate=config.substrate,
        duration=config.duration,
        seeds=config.seeds,
        tables=[],
    )
    for table_id in config.tables:
        table = PAPER_TABLES[table_id]
        specs = sweep_grid(
            (table.scenario,),
            table.protocols,
            (config.substrate,),
            config.seeds,
            (config.duration,),
        )
        sweep = run_sweep(specs, workers=config.workers, cache_dir=config.cache_dir)
        report.cache_hits += sweep.cache_hits
        report.cache_misses += sweep.cache_misses
        per_seed = [
            _measurement(table, sweep.results, config.substrate, seed)
            for seed in config.seeds
        ]
        report.tables.append(
            TableFidelity(
                table_id=table.table_id,
                title=table.title,
                scenario=table.scenario,
                substrate=config.substrate,
                protocols=table.protocols,
                seeds=config.seeds,
                cells=_cells(table, per_seed),
                shapes=_shapes(table, per_seed, config.substrate),
            )
        )
    return report


# --- baseline ratchet ------------------------------------------------------------


def baseline_payload(report: FidelityReport) -> dict:
    """What ``fidelity-baseline.json`` records for this report."""
    return {
        "substrate": report.substrate,
        "duration": report.duration,
        "seeds": list(report.seeds),
        "shapes": report.shape_statuses(),
    }


def load_baseline(path: str | Path) -> dict:
    try:
        with Path(path).open(encoding="utf-8") as handle:
            loaded = json.load(handle)
    except OSError as error:
        raise ConfigError(f"cannot read fidelity baseline {path}: {error}")
    except json.JSONDecodeError as error:
        raise ConfigError(f"fidelity baseline {path} is not JSON: {error}")
    if not isinstance(loaded, dict) or "shapes" not in loaded:
        raise ConfigError(f"fidelity baseline {path} lacks a 'shapes' map")
    return loaded


def write_baseline(path: str | Path, report: FidelityReport) -> None:
    payload = json.dumps(baseline_payload(report), indent=2, sort_keys=True)
    Path(path).write_text(payload + "\n", encoding="utf-8")


def compare_baseline(
    report: FidelityReport, baseline: dict
) -> tuple[list[str], list[str]]:
    """``(problems, known_gaps)`` of ``report`` vs the committed ratchet.

    A problem fails CI: a shape whose status differs from the recorded
    one (a regression from ``pass``, or a recorded gap that now passes
    and must be ratcheted in), a baseline entry the harness no longer
    produces (stale), or a new assertion not yet recorded (run
    ``--update-baseline``).  A known gap — recorded ``fail``, still
    failing — is returned separately with its measured numbers.

    Raises:
        ConfigError: the baseline records a different substrate,
            duration or seed list than ``report`` was run with.
    """
    run = baseline_payload(report)
    for key in ("substrate", "duration", "seeds"):
        if baseline.get(key) != run[key]:
            raise ConfigError(
                f"fidelity baseline records {key}={baseline.get(key)!r} "
                f"but this run has {key}={run[key]!r}"
            )
    problems: list[str] = []
    known_gaps: list[str] = []
    recorded: dict[str, str] = dict(baseline["shapes"])
    for key, outcome in sorted(report.shape_outcomes().items()):
        status = outcome.status
        before = recorded.pop(key, None)
        if before is None:
            problems.append(
                f"{key}: not in the baseline (new assertion? run "
                f"--update-baseline)"
            )
        elif before == "fail" and status == "fail":
            known_gaps.append(
                f"{key}: known gap (recorded fail) — "
                + "; ".join(outcome.details)
            )
        elif before == "pass" and status != "pass":
            problems.append(f"{key}: regressed from pass to {status}")
        elif before != "pass" and status == "pass":
            problems.append(
                f"{key}: now passes but the baseline says {before} — "
                f"ratchet it (run --update-baseline)"
            )
        elif status != before:
            problems.append(f"{key}: changed from {before} to {status}")
    for key in sorted(recorded):
        problems.append(f"{key}: stale baseline entry (assertion removed?)")
    return problems, known_gaps


# --- EXPERIMENTS.md rewriting ----------------------------------------------------


def update_experiments(path: str | Path, report: FidelityReport) -> list[int]:
    """Rewrite the marked table blocks of EXPERIMENTS.md in place.

    Each regenerated table replaces the region between its
    ``<!-- fidelity:table<N>:begin/end -->`` markers, stamped with the
    generating command — the doc can never drift from the code again.

    Returns:
        The table ids actually rewritten.

    Raises:
        ConfigError: when a table in the report has no marker block.
    """
    text = Path(path).read_text(encoding="utf-8")
    rewritten: list[int] = []
    for table in report.tables:
        begin = _BLOCK_BEGIN.format(table_id=table.table_id)
        end = _BLOCK_END.format(table_id=table.table_id)
        pattern = re.compile(
            re.escape(begin) + r".*?" + re.escape(end), flags=re.DOTALL
        )
        if not pattern.search(text):
            raise ConfigError(
                f"{path} has no '{begin}' ... '{end}' marker block"
            )
        block = (
            f"{begin}\n{report.stamp()}\n\n{table.markdown()}\n{end}"
        )
        text = pattern.sub(lambda _match: block, text, count=1)
        rewritten.append(table.table_id)
    Path(path).write_text(text, encoding="utf-8")
    return rewritten


# --- command line ---------------------------------------------------------------


def _int_csv(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def fidelity_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro fidelity``.

    Exit codes: 0 — every applicable shape assertion passed, or, with
    ``--check-baseline``, every shape kept its recorded status (a
    recorded ``fail`` that still fails is a known gap); 1 — a shape
    failed, or the baseline flagged a change, a stale or a missing
    entry; 2 — bad configuration, including a baseline recorded for a
    different substrate, duration or seed list.
    """
    parser = argparse.ArgumentParser(
        prog="repro fidelity",
        description="Regenerate the paper's Tables 1-4 through the "
        "cached sweep engine and compare them cell-by-cell and "
        "shape-by-shape against the paper.",
    )
    parser.add_argument(
        "--tables", default="1,2,3,4",
        help="comma-separated paper table ids (default 1,2,3,4)",
    )
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--substrate", default="fluid")
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"sweep result cache (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point; do not read or write the cache",
    )
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="write the full report JSON here",
    )
    parser.add_argument(
        "--markdown", dest="markdown_out", default=None, metavar="PATH",
        help="write the rendered markdown here (default: stdout)",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE_PATH, metavar="PATH",
        help=f"shape-ratchet file (default {DEFAULT_BASELINE_PATH})",
    )
    parser.add_argument(
        "--check-baseline", action="store_true",
        help="gate on the baseline instead of on the shapes alone: fail "
        "(exit 1) when any shape's status differs from the recorded one, "
        "when the baseline is stale, or when it misses an assertion; a "
        "shape recorded as fail that still fails is a known gap",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file from this run's shape statuses",
    )
    parser.add_argument(
        "--update-experiments", default=None, metavar="PATH",
        help="rewrite the fidelity marker blocks of this markdown file "
        "(normally EXPERIMENTS.md) from the regenerated tables",
    )
    args = parser.parse_args(argv)

    try:
        config = FidelityConfig(
            tables=_int_csv(args.tables),
            seeds=_int_csv(args.seeds),
            substrate=args.substrate,
            duration=args.duration,
            workers=args.workers,
            cache_dir=None if args.no_cache else args.cache_dir,
        )
        report = run_fidelity(config)
    except (ConfigError, AnalysisError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.markdown_out:
        Path(args.markdown_out).write_text(
            report.markdown(), encoding="utf-8"
        )
    else:
        print(report.markdown())
    if args.json_out:
        payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
        Path(args.json_out).write_text(payload + "\n", encoding="utf-8")

    statuses = report.shape_statuses()
    counts = {
        status: sum(1 for value in statuses.values() if value == status)
        for status in ("pass", "fail", "skip")
    }
    print(
        f"shapes: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['skip']} skipped "
        f"({report.cache_hits} cached, {report.cache_misses} computed "
        f"sweep points)",
        file=sys.stderr,
    )

    status = 0 if report.shapes_ok() else 1
    if args.update_experiments:
        try:
            rewritten = update_experiments(args.update_experiments, report)
        except (OSError, ConfigError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(
            f"rewrote table block(s) {rewritten} in "
            f"{args.update_experiments}",
            file=sys.stderr,
        )
    if args.update_baseline:
        write_baseline(args.baseline, report)
        print(f"baseline written -> {args.baseline}", file=sys.stderr)
    elif args.check_baseline:
        try:
            problems, known_gaps = compare_baseline(
                report, load_baseline(args.baseline)
            )
        except ConfigError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        for line in known_gaps + problems:
            print(f"baseline: {line}", file=sys.stderr)
        status = 1 if problems else 0
    return status
