#!/usr/bin/env python3
"""Print SHA-256 digests of every root table and oracle scan, one line per case.

    PYTHONPATH=src python scripts/spectra_digest.py --workload networks-highk --seed 1
    PYTHONPATH=src python scripts/spectra_digest.py --acceptance

For each case of a benchmark workload (its cases, then its spec cases) the
line gives the ladder order, then, level by level from M down to 0, the
root count and the digest of the table's ``ks`` and ``coincident`` bytes,
then the count and digest of the ``scan_roots`` roots.  Both run as the
benchmark's verify step runs them.  ``--acceptance`` covers the 52
acceptance-suite networks at ``k_max = 950/s0`` instead, scanned with the
default tolerances.  Two checkouts give the same spectra when the outputs
of the same command are identical, so one ``diff`` compares them.
"""

import argparse
import hashlib
import random
import sys
from pathlib import Path

import numpy as np

from qgspectra import SolverConfig, random_chain, random_star, scan_roots, solve_ladder

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, build_workload, worked_chain, worked_star  # noqa: E402

# The acceptance suite's seed, draws and window (tests/conftest.py and
# tests/test_acceptance.py).
SUITE_SEED = 7
SUITE_DRAWS = 25
WINDOW_SCALE = 950.0


def sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def digest(name: str, f, cfg: SolverConfig, **scan_kw) -> str:
    try:
        sol = solve_ladder(f, cfg)
        scan, _ = scan_roots(f, (0.0, cfg.k_max), **scan_kw)
    except Exception as exc:  # a failed case still gets its line
        return f"{name} error {type(exc).__name__}: {exc}"
    tables = " ".join(f"L{t.level}:{len(t)}:{sha(t.ks, t.coincident)}" for t in sol.tables)
    return (f"{name} M={sol.ladder.order} {tables} "
            f"scan:{len(scan)}:{sha(scan)}")


def acceptance_cases():
    rng = random.Random(SUITE_SEED)
    cases = [("worked-star", worked_star()), ("worked-chain", worked_chain())]
    cases += [(f"star-{i}", random_star(rng)) for i in range(SUITE_DRAWS)]
    cases += [(f"chain-{i}", random_chain(rng)) for i in range(SUITE_DRAWS)]
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--acceptance", action="store_true",
                       help="the 52 acceptance-suite networks at k_max = 950/s0")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    if args.acceptance:
        for name, f in acceptance_cases():
            print(digest(name, f, SolverConfig(k_max=WINDOW_SCALE / f.s0)))
        return 0
    wl = build_workload(args.workload, args.seed, ROOT)
    for prefix, cases in (("case", wl.cases), ("spec", wl.spec_cases)):
        for c in cases:
            print(digest(f"{prefix}/{c.name}", c.f, c.config,
                         coincidence_tol=c.config.coincidence_tol))
    return 0


if __name__ == "__main__":
    sys.exit(main())
