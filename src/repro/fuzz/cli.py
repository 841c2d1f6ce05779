"""``python -m repro fuzz`` — the scenario fuzzer's command line.

Examples::

    python -m repro fuzz --budget 60 --seed 1
    python -m repro fuzz --budget 20 --seed 7 --out failures/
    python -m repro fuzz --budget 10 --seed 3 --plant-bug gmp-leak
    python -m repro fuzz --replay tests/fixtures/fuzz/gmp_leak_min.json

The budget counts *scenarios*, not seconds, so a given (budget, seed)
pair is a fixed, replayable workload.  Each scenario runs against the
full oracle battery (:mod:`repro.fuzz.oracles`); every failure is
shrunk to a minimal spec and written to the ``--out`` directory as a
JSON file that ``--replay`` (or a committed regression test) replays
bit-for-bit.  Exit status 1 when any scenario failed, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.fuzz.grammar import PLANTED_BUGS, FuzzScenario, generate_scenarios
from repro.fuzz.oracles import evaluate
from repro.fuzz.shrink import shrink


def fuzz_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro fuzz", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--budget", type=int, default=20,
        help="number of scenarios to generate and check (default 20)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="grammar seed (default 0)"
    )
    parser.add_argument(
        "--out", default="fuzz-failures",
        help="directory for shrunk failing specs (default fuzz-failures/)",
    )
    parser.add_argument(
        "--plant-bug", choices=PLANTED_BUGS, default=None,
        help="inject a known defect (self-check of the oracle + "
        "shrinker pipeline; the run is expected to fail)",
    )
    parser.add_argument(
        "--replay", default=None, metavar="SPEC.json",
        help="replay one committed spec instead of generating scenarios",
    )
    parser.add_argument(
        "--max-shrink-evals", type=int, default=40,
        help="candidate-evaluation budget per shrink (default 40)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without shrinking them",
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        try:
            case = FuzzScenario.read(args.replay)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        outcome = evaluate(case)
        print(outcome.render())
        return 0 if outcome.ok else 1

    try:
        cases = generate_scenarios(
            args.budget, args.seed, plant_bug=args.plant_bug
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(
        f"fuzz: {len(cases)} scenario(s), seed {args.seed}"
        + (f", planted bug {args.plant_bug}" if args.plant_bug else "")
    )
    failures = 0
    written: list[Path] = []
    for index, case in enumerate(cases):
        outcome = evaluate(case)
        if outcome.ok:
            print(f"  [{index}] {case.label()}: ok")
            continue
        failures += 1
        print(f"  [{index}] {outcome.render()}")
        minimal = case
        if not args.no_shrink:
            session = shrink(
                case,
                outcome.failed_names(),
                max_evaluations=args.max_shrink_evals,
            )
            minimal = session.minimal
            print("  " + session.render().replace("\n", "\n  "))
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{minimal.label()}-{index}.json"
        minimal.write(path)
        written.append(path)
        print(f"  shrunk spec -> {path}")

    print(
        f"fuzz: {len(cases) - failures}/{len(cases)} ok"
        + (f", {failures} failing spec(s) written" if failures else "")
    )
    for path in written:
        print(f"  replay with: python -m repro fuzz --replay {path}")
    return 1 if failures else 0
