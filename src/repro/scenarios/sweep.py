# simcheck: allow-file[DET001] sweep wall-clock timing is operator-facing
"""Parallel parameter-sweep engine with a content-addressed result cache.

A sweep expands a parameter grid — scenario × protocol × substrate ×
seed × duration — into :class:`SweepPoint`\\ s, runs each point through
:func:`~repro.scenarios.runner.run_scenario`, and collects one
JSON-serializable summary per point.  Two things make large sweeps
cheap:

* **Sharding.**  Points are distributed over ``workers`` processes via
  a spawn-context :mod:`multiprocessing` pool.  Every run constructs
  its own kernel and RNG registry from its seed, so results are
  independent of the worker count — the same grid run with 1, 2, or 8
  workers yields byte-identical summaries.
* **Caching.**  Each point's summary is stored on disk under a digest
  of the point parameters *and* a fingerprint of the library source
  (every ``src/repro/**/*.py`` file).  Re-running the same grid is
  pure cache hits; editing any library file invalidates the whole
  cache automatically — no stale results after a code change.

Command line::

    python -m repro sweep --scenarios figure3,figure4 --seeds 1,2,3 \\
        --durations 30 --workers 4 --json sweep.json

See docs/PERFORMANCE.md for how the cache key is built.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from multiprocessing import get_context
from pathlib import Path

from repro.errors import ConfigError
from repro.scenarios.figures import (
    figure1,
    figure2,
    figure2_weighted,
    figure3,
    figure4,
)
from repro.scenarios.runner import PROTOCOLS, SUBSTRATES, run_scenario
from repro.scenarios.scale import scale100, scale300, scale300c, scale1000

#: Scenario factories addressable from a sweep grid.  ``figure2w`` is
#: Figure 2 under Table 2's weights (1, 2, 1, 3) — a separate name so
#: weighted and unweighted runs never share cache entries.  The
#: ``scale*`` family (:mod:`repro.scenarios.scale`) provides seeded
#: city-scale topologies; ``scale300c`` is the clustered variant.
SCENARIO_FACTORIES = {
    "figure1": figure1,
    "figure2": figure2,
    "figure2w": figure2_weighted,
    "figure3": figure3,
    "figure4": figure4,
    "scale100": scale100,
    "scale300": scale300,
    "scale300c": scale300c,
    "scale1000": scale1000,
}


def scenario_factory(name: str):
    """The factory registered under ``name``.

    Raises:
        ConfigError: on an unknown name, listing the registered ones.
    """
    factory = SCENARIO_FACTORIES.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown scenario {name!r}; pick from {tuple(SCENARIO_FACTORIES)}"
        )
    return factory

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".sweep-cache"


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the parameter grid."""

    scenario: str
    protocol: str
    substrate: str
    seed: int
    duration: float

    def label(self) -> str:
        return (
            f"{self.scenario}/{self.protocol}/{self.substrate}"
            f"/seed{self.seed}/{self.duration:g}s"
        )


@dataclass(frozen=True)
class SweepSpec:
    """A parameter grid.

    Attributes are the axis value lists; :meth:`points` expands their
    cross product in deterministic nested order (scenario, protocol,
    substrate, seed, duration).
    """

    scenarios: tuple[str, ...] = ("figure3",)
    protocols: tuple[str, ...] = ("gmp",)
    substrates: tuple[str, ...] = ("fluid",)
    seeds: tuple[int, ...] = (1,)
    durations: tuple[float, ...] = (30.0,)

    def __post_init__(self) -> None:
        for name in self.scenarios:
            scenario_factory(name)
        for name in self.protocols:
            if name not in PROTOCOLS:
                raise ConfigError(
                    f"unknown protocol {name!r}; pick from {PROTOCOLS}"
                )
        for name in self.substrates:
            if name not in SUBSTRATES:
                raise ConfigError(
                    f"unknown substrate {name!r}; pick from {SUBSTRATES}"
                )
        if not (self.scenarios and self.protocols and self.substrates
                and self.seeds and self.durations):
            raise ConfigError("every sweep axis needs at least one value")
        if any(duration <= 0 for duration in self.durations):
            raise ConfigError("sweep durations must be positive")

    def points(self) -> list[SweepPoint]:
        """The grid, expanded in deterministic order."""
        return [
            SweepPoint(scenario, protocol, substrate, seed, float(duration))
            for scenario in self.scenarios
            for protocol in self.protocols
            for substrate in self.substrates
            for seed in self.seeds
            for duration in self.durations
        ]


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


def _point_digest(point: SweepPoint, fingerprint: str) -> str:
    payload = json.dumps(asdict(point), sort_keys=True)
    return hashlib.sha256(f"{payload}\0{fingerprint}".encode()).hexdigest()


def run_point(point: SweepPoint) -> dict:
    """Run one grid point and summarize it as plain JSON data.

    The summary is :meth:`~repro.scenarios.results.RunResult.
    point_summary` — raw and normalized per-flow rates, hop counts,
    weights, and the paper metrics ``U``/``I_mm``/``I_eq`` — with the
    *grid* scenario name substituted so cache keys and summaries agree
    (e.g. the ``figure2w`` grid name rather than the scenario's own).
    """
    scenario = SCENARIO_FACTORIES[point.scenario]()
    result = run_scenario(
        scenario,
        protocol=point.protocol,
        substrate=point.substrate,
        duration=point.duration,
        seed=point.seed,
    )
    summary = result.point_summary()
    summary["scenario"] = point.scenario
    return summary


def _worker(args: tuple[str, str, str, int, float]) -> dict:
    """Top-level (hence picklable) pool worker: rebuild the point and
    run it; the spawn context gives every run a fresh interpreter."""
    scenario, protocol, substrate, seed, duration = args
    return run_point(SweepPoint(scenario, protocol, substrate, seed, duration))


def _cache_path(cache_dir: Path, digest: str) -> Path:
    return cache_dir / f"{digest}.json"


def _cache_load(path: Path) -> dict | None:
    try:
        with path.open(encoding="utf-8") as handle:
            loaded = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return loaded if isinstance(loaded, dict) else None


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
    spec: SweepSpec,
    *,
    workers: int = 1,
    cache_dir: str | Path | None = DEFAULT_CACHE_DIR,
    fingerprint: str | None = None,
) -> SweepReport:
    """Run (or recall) every point of ``spec``.

    Args:
        spec: the parameter grid.
        workers: processes to shard fresh points over; 1 runs in-process
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
    points = spec.points()
    report = SweepReport(workers=workers)
    cache_base = Path(cache_dir) if cache_dir is not None else None
    if cache_base is not None:
        report.fingerprint = (
            fingerprint if fingerprint is not None else code_fingerprint()
        )

    results: list[dict | None] = [None] * len(points)
    fresh: list[tuple[int, SweepPoint]] = []
    digests: dict[int, str] = {}
    for index, point in enumerate(points):
        if cache_base is not None:
            digest = _point_digest(point, report.fingerprint)
            digests[index] = digest
            cached = _cache_load(_cache_path(cache_base, digest))
            if cached is not None:
                results[index] = cached
                report.cache_hits += 1
                continue
        fresh.append((index, point))

    report.cache_misses = len(fresh)
    if fresh:
        if workers == 1 or len(fresh) == 1:
            computed = [run_point(point) for _, point in fresh]
        else:
            args = [
                (p.scenario, p.protocol, p.substrate, p.seed, p.duration)
                for _, p in fresh
            ]
            context = get_context("spawn")
            with context.Pool(processes=min(workers, len(fresh))) as pool:
                computed = pool.map(_worker, args)
        for (index, _), summary in zip(fresh, computed):
            results[index] = summary
            if cache_base is not None:
                _cache_store(
                    _cache_path(cache_base, digests[index]), summary
                )

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
        help="comma-separated scenario names (default figure3)",
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
        spec = SweepSpec(
            scenarios=tuple(_csv(args.scenarios)),
            protocols=tuple(_csv(args.protocols)),
            substrates=tuple(_csv(args.substrates)),
            seeds=tuple(int(part) for part in _csv(args.seeds)),
            durations=tuple(float(part) for part in _csv(args.durations)),
        )
        report = run_sweep(
            spec,
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
