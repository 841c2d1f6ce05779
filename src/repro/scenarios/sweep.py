# simcheck: allow-file[DET001] sweep wall-clock timing is operator-facing
"""Parallel run engine with a content-addressed result cache.

A sweep runs a list of :class:`~repro.scenarios.spec.RunSpec`\\ s —
typically a :func:`sweep_grid`, the cross product scenario × protocol ×
substrate × seed × duration — and collects one JSON-serializable
summary per spec.  Two things make large sweeps cheap:

* **Sharding.**  Specs are distributed over ``workers`` processes via
  a spawn-context :mod:`multiprocessing` pool.  Every run constructs
  its own kernel and RNG registry from its seed, so results are
  independent of the worker count — the same grid run with 1, 2, or 8
  workers yields byte-identical summaries.
* **Caching.**  Each summary is stored on disk under the spec's
  :meth:`~repro.scenarios.spec.RunSpec.digest` combined with a
  fingerprint of the library source (every ``src/repro/**/*.py``
  file).  Re-running the same specs is pure cache hits; editing any
  library file invalidates the whole cache automatically — no stale
  results after a code change.

Command line::

    python -m repro sweep --scenarios figure3,figure4 --seeds 1,2,3 \\
        --durations 30 --workers 4 --json sweep.json

See README.md ("Describing a run") for the spec and its digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from itertools import product
from multiprocessing import get_context
from pathlib import Path

from repro.errors import ConfigError
from repro.scenarios.spec import SCENARIO_FACTORIES, RunSpec

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".sweep-cache"


def sweep_grid(
    scenarios: Sequence[str] = ("figure3",),
    protocols: Sequence[str] = ("gmp",),
    substrates: Sequence[str] = ("fluid",),
    seeds: Sequence[int] = (1,),
    durations: Sequence[float] = (30.0,),
) -> list[RunSpec]:
    """The cross product of the axis values as specs, in deterministic
    nested order (scenario, protocol, substrate, seed, duration).

    Raises:
        ConfigError: on an empty axis or a value no spec accepts.
    """
    specs = [
        RunSpec(scenario=scenario, protocol=protocol, substrate=substrate,
                seed=seed, duration=duration)
        for scenario, protocol, substrate, seed, duration in product(
            scenarios, protocols, substrates, seeds, durations
        )
    ]
    if not specs:
        raise ConfigError("every sweep axis needs at least one value")
    return specs


@dataclass
class SweepReport:
    """Outcome of :func:`run_sweep`.

    Attributes:
        results: one summary dict per grid point, in grid order.
        cache_hits / cache_misses: how many points were recalled from
            (resp. computed into) the on-disk cache.
        wall_seconds: elapsed wall-clock time of the whole sweep.
        workers: process count the fresh points were sharded over.
        fingerprint: library-source fingerprint the cache was keyed on.
    """

    results: list[dict] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0
    workers: int = 1
    fingerprint: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def code_fingerprint(package_root: Path | None = None) -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Any library edit changes the fingerprint, which invalidates every
    cached sweep result — the cache can never serve numbers produced
    by different code.
    """
    root = package_root or Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def run_point(spec: RunSpec) -> dict:
    """Run one spec and summarize it as plain JSON data.

    The summary is :meth:`~repro.scenarios.results.RunResult.
    point_summary` — raw and normalized per-flow rates, hop counts,
    weights, and the paper metrics ``U``/``I_mm``/``I_eq`` — plus the
    spec itself, so every cached record says which run it summarizes.
    """
    return {**spec.run().point_summary(), "spec": spec.to_json()}


def _cache_store(path: Path, summary: dict) -> None:
    """Atomic write: a crashed sweep never leaves a torn cache entry."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w",
        encoding="utf-8",
        dir=path.parent,
        prefix=path.name,
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            json.dump(summary, handle, sort_keys=True)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


def run_sweep(
    specs: Sequence[RunSpec],
    *,
    workers: int = 1,
    cache_dir: str | Path | None = DEFAULT_CACHE_DIR,
    fingerprint: str | None = None,
) -> SweepReport:
    """Run (or recall) every spec, e.g. a :func:`sweep_grid`.

    Args:
        specs: the runs, in report order.
        workers: processes to shard fresh runs over; 1 runs in-process
            (no pool), which is what tests and tiny grids want.
        cache_dir: cache directory, or None to disable caching.
        fingerprint: override the library-source fingerprint (tests
            use this to exercise invalidation without editing files).

    Raises:
        ConfigError: on a non-positive worker count.
    """
    if workers < 1:
        raise ConfigError(f"sweep needs at least one worker, got {workers}")
    started = time.perf_counter()
    report = SweepReport(workers=workers)
    cache_base = Path(cache_dir) if cache_dir is not None else None
    if cache_base is not None:
        report.fingerprint = (
            fingerprint if fingerprint is not None else code_fingerprint()
        )

    results: list[dict | None] = [None] * len(specs)
    fresh: list[tuple[int, RunSpec]] = []
    paths: dict[int, Path] = {}
    for index, spec in enumerate(specs):
        if cache_base is not None:
            key = hashlib.sha256(f"{spec.digest()}\0{report.fingerprint}".encode())
            paths[index] = cache_base / f"{key.hexdigest()}.json"
            try:
                cached = json.loads(paths[index].read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                cached = None  # absent or torn: recompute
            if isinstance(cached, dict):
                results[index] = cached
                report.cache_hits += 1
                continue
        fresh.append((index, spec))

    report.cache_misses = len(fresh)
    todo = [spec for _, spec in fresh]
    if workers == 1 or len(todo) <= 1:
        computed = [run_point(spec) for spec in todo]
    else:
        with get_context("spawn").Pool(processes=min(workers, len(todo))) as pool:
            computed = pool.map(run_point, todo)
    for (index, _), summary in zip(fresh, computed):
        results[index] = summary
        if cache_base is not None:
            _cache_store(paths[index], summary)

    report.results = [summary for summary in results if summary is not None]
    report.wall_seconds = time.perf_counter() - started
    return report


# --- command line ---------------------------------------------------------------


def _csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def sweep_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro sweep``."""
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run a parameter grid of scenarios in parallel "
        "with content-addressed result caching.",
    )
    parser.add_argument(
        "--scenarios", default="figure3",
        help="comma-separated scenario names from "
        f"{', '.join(SCENARIO_FACTORIES)} (default figure3)",
    )
    parser.add_argument("--protocols", default="gmp")
    parser.add_argument("--substrates", default="fluid")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--durations", default="30")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point; do not read or write the cache",
    )
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="write the report JSON here instead of stdout",
    )
    args = parser.parse_args(argv)

    try:
        specs = sweep_grid(
            _csv(args.scenarios),
            _csv(args.protocols),
            _csv(args.substrates),
            [int(part) for part in _csv(args.seeds)],
            [float(part) for part in _csv(args.durations)],
        )
        report = run_sweep(
            specs,
            workers=args.workers,
            cache_dir=None if args.no_cache else args.cache_dir,
        )
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
    if args.json_out:
        Path(args.json_out).write_text(payload + "\n", encoding="utf-8")
        print(
            f"{len(report.results)} points "
            f"({report.cache_hits} cached, {report.cache_misses} computed) "
            f"in {report.wall_seconds:.2f}s -> {args.json_out}",
            file=sys.stderr,
        )
    else:
        print(payload)
    return 0
