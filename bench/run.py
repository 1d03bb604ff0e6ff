#!/usr/bin/env python3
"""qgspectra benchmark: one command, every metric, every output checked.

Run from the repository root:

    python3 bench/run.py --workload networks-highk --seed 1 --seconds 35 --trace 0

Workloads (see BENCHMARK.json for why each is there):

``cli-specs``       ``qgspectra solve`` / ``verify`` processes on specs/*.yaml
``networks-highk``  worked and random stars and chains at large k_max
``wide-sums``       32-term cosine sums, ladders mostly 4-5 levels deep

Every workload reports every end-to-end metric, so each also runs the CLI
processes; cli-specs spends most of its time there, the others half.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
operation a second time with spans and cosine counters and prints the
per-layer split instead.  ``--smoke`` shrinks every size for a quick check.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` of the
checkout this file sits in; without it the benchmark exits with status 2.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(workloads, argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick check")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "qgspectra" / "__init__.py").is_file() or not (ROOT / "specs").is_dir():
        print(f"bench: no qgspectra checkout at {ROOT} (need src/qgspectra and specs/)",
              file=sys.stderr)
        return 2
    # One client, one thread: pin BLAS pools before numpy loads, here and
    # in every child process.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    from workloads import WORKLOADS

    args = parse_args(WORKLOADS, argv)
    metrics, notes, tally, machine = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(f"# qgspectra benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(machine, sort_keys=True))
    for name, unit in units.items():
        note = notes.get(name.removesuffix("_p90"), "")
        print(f"{name:28s} {metrics[name]:14.6g} {unit:6s} {note}".rstrip())
    print(f"{'fail_ratio':28s} {notes['fail_ratio']}")
    for message in tally.messages[:20]:
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
