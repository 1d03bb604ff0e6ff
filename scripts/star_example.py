#!/usr/bin/env python3
"""Walk the three-bond star with actions (19, 17, 5, -3) end to end.

Builds the network's spectral function, shows the derivative ladder that
regularizes it, solves for every root in a window, and cross-checks the
result against the independent oracle and the counting law.  The double
root at k = pi (a root sitting exactly on a separator) is pointed out
along the way.
"""

import argparse
import math
import sys
import time

from qgspectra import (
    SEPARATOR_COINCIDENCE,
    SolverConfig,
    StarGraphSpec,
    build_ladder,
    build_star,
    compare,
    regularity_sum,
    scan_roots,
    solve_ladder,
    star_actions,
    star_amplitudes,
    weyl_audit,
)

ALPHA = (1.0, 7.0, 11.0)
BETA = (0.1, 0.2, 0.5)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=float, default=50.0,
                    help="search window (0, kmax] (default 50)")
    args = ap.parse_args(argv)

    spec = StarGraphSpec(ALPHA, BETA)
    print(f"star: alpha = {spec.alpha}, beta = {spec.beta}")
    print(f"  bond lengths  L = {tuple(round(x, 12) for x in spec.lengths)}")
    print(f"  raw actions   S = {star_actions(spec)}")
    print(f"  raw weights   a = {star_amplitudes(spec)}")

    f = build_star(spec)
    ladder = build_ladder(f)
    print(f"\nladder (order M = {ladder.order}):")
    for m, level in enumerate(ladder.levels):
        terms = ", ".join(f"{t.a:+.6f}*cos({t.s:g} k - pi*{t.gamma:g})"
                          for t in level.terms)
        print(f"  level {m}: sum|a| = {regularity_sum(level):.6f}   [{terms}]")

    cfg = SolverConfig(k_max=args.kmax)
    t0 = time.perf_counter()
    solution = solve_ladder(f, cfg)
    wall = time.perf_counter() - t0
    spectrum = solution.spectrum
    doubles = [e for e in spectrum if e.kind == SEPARATOR_COINCIDENCE]
    print(f"\nsolved (0, {args.kmax:g}] in {wall * 1e3:.1f} ms: "
          f"{len(spectrum)} roots, {len(doubles)} of them double "
          f"(root on a separator)")
    for e in doubles[:5]:
        print(f"  n = {e.n:3d}  k = {e.k:.12f}  (k/pi = {e.k / math.pi:.9f})")
    if len(doubles) > 5:
        print(f"  ... and {len(doubles) - 5} more, all at multiples of pi")

    roots, step = scan_roots(f, (0.0, args.kmax))
    report = compare(spectrum.ks, roots, tol=1e-9, scan_step=step)
    audit = weyl_audit(spectrum, f.s0, (0.0, args.kmax))
    print(f"\noracle scan: {len(roots)} roots, cells from width {step:.6g} -> "
          f"{report.verdict}, max deviation {report.max_deviation:.3e}")
    print(f"counting law: expected {audit.expected:.3f}, counted "
          f"{audit.actual} (doubles weighted twice), "
          f"deviation {audit.deviation:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
