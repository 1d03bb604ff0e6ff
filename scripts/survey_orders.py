#!/usr/bin/env python3
"""Survey how deep the derivative ladder must go on random networks.

Star networks never satisfy the amplitude bound at level 0 (their weights
sum to one exactly), so every spectrum needs at least one derivative;
chains start below the bound whenever the interior reflections are weak.
This script samples both families, tabulates the distribution of the
regularization order M, and prints the deepest ladder it saw.
"""

import argparse
import random
import sys
from collections import Counter

from qgspectra import build_ladder, random_chain, random_star, regularity_sum


def survey(label: str, sampler, count: int, rng: random.Random) -> None:
    orders = Counter()
    worst = (0, None)
    for _ in range(count):
        f = sampler(rng)
        m = build_ladder(f).order
        orders[m] += 1
        if m > worst[0]:
            worst = (m, f)
    print(f"\n{label} ({count} samples):")
    for m in sorted(orders):
        bar = "#" * max(1, round(60 * orders[m] / count))
        print(f"  M = {m}: {orders[m]:5d}  {bar}")
    m, f = worst
    if f is not None:
        sums = " -> ".join(
            f"{regularity_sum(level):.4f}" for level in build_ladder(f).levels
        )
        print(f"  deepest ladder (M = {m}): sum|a| {sums}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=2000,
                    help="samples per family (default 2000)")
    ap.add_argument("--seed", type=int, default=3,
                    help="RNG seed (default 3)")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    survey("three-bond stars", random_star, args.count, rng)
    survey("four-vertex chains", random_chain, args.count, rng)
    return 0


if __name__ == "__main__":
    sys.exit(main())
