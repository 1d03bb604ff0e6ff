"""End-to-end acceptance suite.

Every test prints a one-line PASS summary with the measured numbers so a
verbose run doubles as a report.  The final test is an exploratory probe
of a star/chain correspondence; it records a finding (xfail) instead of
breaking the build if the match does not hold.
"""

import math
import random
import time

import pytest

from qgspectra import (
    SEPARATOR_COINCIDENCE,
    ChainGraphSpec,
    Derivatives,
    SolverConfig,
    StarGraphSpec,
    build_chain,
    build_ladder,
    build_star,
    derivative_level,
    is_regular,
    normalize,
    random_star,
    regularity_sum,
    scan_roots,
    solve_ladder,
    star_actions,
    star_amplitudes,
    weyl_audit,
)

WINDOW_SCALE = 950.0  # every suite case searches (0, 950/S0]


@pytest.fixture(scope="session")
def solved_suite(case_suite):
    """Solve and dense-scan all 52 suite cases once; reused by three tests."""
    records = []
    t0 = time.perf_counter()
    for name, f in case_suite:
        cfg = SolverConfig(k_max=WINDOW_SCALE / f.s0)
        solution = solve_ladder(f, cfg)
        scanned, _step = scan_roots(f, (0.0, cfg.k_max))
        records.append((name, f, cfg, solution, scanned))
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_worked_star_coefficients():
    spec = StarGraphSpec((1.0, 7.0, 11.0), (0.1, 0.2, 0.5))
    assert star_actions(spec) == pytest.approx((19.0, 17.0, 5.0, -3.0), abs=1e-14)
    assert star_amplitudes(spec) == pytest.approx((0.75, 0.5, -0.25), abs=1e-14)

    f = build_star(spec)
    assert f.s0 == pytest.approx(19.0, abs=1e-14)
    by_action = {round(t.s, 9): t.a for t in f.terms}
    assert by_action[17.0] == pytest.approx(0.75, abs=1e-14)
    assert by_action[5.0] == pytest.approx(0.5, abs=1e-14)
    # the raw action -3 reflects to +3 with the amplitude kept
    assert by_action[3.0] == pytest.approx(-0.25, abs=1e-14)
    print("PASS worked-star coefficients: actions (19, 17, 5, 3), "
          "amplitudes (3/4, 1/2, -1/4) to 1e-14")


def test_worked_star_derivative_level(worked_star):
    ladder = build_ladder(worked_star)
    assert ladder.order == 1
    g1 = ladder.top
    by_action = {round(t.s, 9): t.a for t in g1.terms}
    assert by_action[17.0] == pytest.approx(51 / 76, abs=1e-14)
    assert by_action[5.0] == pytest.approx(5 / 38, abs=1e-14)
    assert by_action[3.0] == pytest.approx(-3 / 76, abs=1e-14)
    total = regularity_sum(g1)
    assert total == pytest.approx(16 / 19, abs=1e-14)
    print(f"PASS worked-star ladder: M = 1, level-1 amplitudes "
          f"(51/76, 5/38, -3/76), sum {total:.17g} (16/19)")


def test_coincident_root_near_pi(worked_star):
    t0 = time.perf_counter()
    solution = solve_ladder(worked_star, SolverConfig(k_max=4.0))
    wall = time.perf_counter() - t0
    entry = solution.spectrum[17]
    assert entry.n == 18
    assert abs(entry.k - math.pi) <= 1e-10
    assert entry.kind == SEPARATOR_COINCIDENCE
    assert wall < 1.0
    print(f"PASS root 18: k = {entry.k:.15f} vs pi = {math.pi:.15f}, "
          f"kind = {entry.kind}, {wall * 1e3:.1f} ms")


def test_solver_agrees_with_dense_scan(solved_suite):
    records, elapsed = solved_suite
    assert len(records) == 52
    worst = 0.0
    for name, _f, _cfg, solution, scanned in records:
        ks = solution.spectrum.ks
        assert len(ks) == len(scanned), (
            f"{name}: solver found {len(ks)} roots, scan found {len(scanned)}"
        )
        for a, b in zip(ks, scanned):
            dev = abs(a - b)
            worst = max(worst, dev)
            assert dev <= 1e-9, f"{name}: deviation {dev:.3e} at k ~ {a:.6f}"
    assert elapsed < 60.0
    print(f"PASS scan equivalence: 52 cases, worst deviation {worst:.3e}, "
          f"{elapsed:.2f} s")


def test_root_counts_track_the_counting_law(solved_suite):
    records, _ = solved_suite
    worst = 0.0
    for name, f, cfg, solution, _scanned in records:
        bound = f.n_terms + 1
        for i in range(1, 11):
            upto = cfg.k_max * i / 10.0
            audit = weyl_audit(solution.spectrum, f.s0, (0.0, upto))
            worst = max(worst, audit.deviation)
            assert audit.within(bound), (
                f"{name}: {audit.actual} roots in (0, {upto:.4f}], "
                f"expected {audit.expected:.2f} within {bound}"
            )
    print(f"PASS counting law: 52 cases x 10 checkpoints, "
          f"worst deviation {worst:.3f}")


def test_ladder_levels_interleave(solved_suite):
    records, _ = solved_suite
    allow = 1e-10
    pairs = 0
    for name, _f, cfg, solution, _scanned in records:
        ladder = solution.ladder
        if ladder.order == 0:
            continue
        scans = [
            scan_roots(level, (0.0, cfg.k_max))[0] for level in ladder.levels
        ]
        for m in range(1, len(scans)):
            lower, upper = scans[m - 1], scans[m]
            pairs += 1
            for r1, r2 in zip(lower, lower[1:]):
                inside = [r for r in upper if r1 + allow < r < r2 - allow]
                touching = [
                    r for r in upper
                    if abs(r - r1) <= allow or abs(r - r2) <= allow
                ]
                assert len(inside) <= 1, (
                    f"{name}: {len(inside)} level-{m} roots inside "
                    f"({r1:.9f}, {r2:.9f})"
                )
                assert inside or touching, (
                    f"{name}: no level-{m} root inside ({r1:.9f}, {r2:.9f})"
                )
    print(f"PASS interleaving: {pairs} consecutive level pairs, "
          f"coincidence allowance {allow:g}")


def test_derivative_level_matches_finite_differences():
    rng = random.Random(99)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        s0 = rng.uniform(0.5, 100.0)
        terms = [
            (rng.uniform(0.0, 0.999 * s0), rng.uniform(0.0, 2.0),
             rng.uniform(-0.9, 0.9))
            for _ in range(rng.randint(1, 6))
        ]
        f = normalize(s0, rng.uniform(0.0, 2.0), terms)
        g, g1 = Derivatives(f).g, Derivatives(derivative_level(f, 1)).g
        for _ in range(5):
            k = rng.uniform(0.1, 10.0)
            fd = (g(k + h) - g(k - h)) / (2.0 * h * f.s0)
            err = float(abs(fd - g1(k)))
            worst = max(worst, err)
            assert err <= 1e-7
    print(f"PASS derivative fidelity: 100 functions x 5 points at h = 1e-6, "
          f"worst error {worst:.3e}")


def test_random_stars_are_irregular_but_regularizable():
    rng = random.Random(3)
    min_sum = math.inf
    max_order = 0
    for _ in range(1000):
        f = random_star(rng)
        total = regularity_sum(f)
        # The level-0 amplitude magnitudes sum to exactly 1 in exact
        # arithmetic; allow a hair of float summation slack below it.
        assert total >= 1.0 - 1e-12
        assert not is_regular(f)
        ladder = build_ladder(f)
        assert 1 <= ladder.order <= 64
        min_sum = min(min_sum, total)
        max_order = max(max_order, ladder.order)
    print(f"PASS star irregularity: 1000 stars, min level-0 sum "
          f"{min_sum:.17g}, max order {max_order}")


# --- exploratory correspondence probe (non-gating) ---------------------

_PROBE_BETA = (0.3, 0.5, 0.4)  # satisfies b1^2 - b2^2 + b3^2 = 0


def _matching_residual(alpha2: float) -> float:
    """Mismatch between the middle level-1 amplitude and the product of
    the outer two, for the star (1, alpha2, 2); zero means the level-1
    function carries the multiplicative structure of a chain."""
    spec = StarGraphSpec((1.0, alpha2, 2.0), _PROBE_BETA)
    s0, s1, s2, s3 = star_actions(spec)
    a1, a2, a3 = star_amplitudes(spec)
    return a2 * s2 / s0 - (a1 * s1 / s0) * (a3 * s3 / s0)


def _fit_resonant_alpha2() -> float:
    """Brute-force fit: grid sweep for a sign change, then bisection."""
    lo, hi, n = 1.01, 2.99, 199
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    vals = [_matching_residual(x) for x in xs]
    bracket = None
    for x1, x2, v1, v2 in zip(xs, xs[1:], vals, vals[1:]):
        if v1 == 0.0:
            return x1
        if v1 * v2 < 0.0:
            bracket = (x1, x2, v1)
            break
    assert bracket is not None, "matching residual never changes sign"
    x1, x2, v1 = bracket
    for _ in range(200):
        mid = 0.5 * (x1 + x2)
        vm = _matching_residual(mid)
        if vm == 0.0:
            return mid
        if (vm > 0.0) == (v1 > 0.0):
            x1, v1 = mid, vm
        else:
            x2 = mid
        if x2 - x1 <= 1e-15:
            break
    return 0.5 * (x1 + x2)


def test_star_chain_correspondence_probe():
    try:
        identity = _PROBE_BETA[0] ** 2 - _PROBE_BETA[1] ** 2 + _PROBE_BETA[2] ** 2
        assert abs(identity) <= 1e-15

        alpha2 = _fit_resonant_alpha2()
        spec = StarGraphSpec((1.0, alpha2, 2.0), _PROBE_BETA)
        star = build_star(spec)
        k_max = WINDOW_SCALE / star.s0
        star_solution = solve_ladder(star, SolverConfig(k_max=k_max))
        assert star_solution.ladder.order == 1

        # Read the chain's reflection coefficients off the star's level-1
        # amplitudes (sine form flips the overall sign, so r2 = -a1').
        g1 = derivative_level(star, 1)
        by_action = {round(t.s, 12): t.a for t in g1.terms}
        s0, s1, s2, s3 = star_actions(spec)
        r2 = -by_action[round(s1, 12)]
        r3 = by_action[round(s3, 12)]
        b2 = (1.0 - r2) / (1.0 + r2)
        b3 = b2 * (1.0 - r3) / (1.0 + r3)
        chain = build_chain(ChainGraphSpec((s0, s1, s2, s3), (1.0, b2, b3)))
        chain_solution = solve_ladder(chain, SolverConfig(k_max=k_max))
        assert chain_solution.ladder.order == 0

        star_level1 = star_solution.table(1).ks
        chain_roots = chain_solution.spectrum.ks
        assert len(star_level1) == len(chain_roots), (
            f"{len(star_level1)} star level-1 roots vs "
            f"{len(chain_roots)} chain roots"
        )
        dev = max(abs(a - b) for a, b in zip(star_level1, chain_roots))
        assert dev <= 1e-8, f"root sets deviate by {dev:.3e}"
    except Exception as exc:
        print(f"FINDING: correspondence probe failed: {exc}")
        pytest.xfail(f"correspondence probe: {exc}")
    print(f"PASS correspondence probe: alpha2 = {alpha2:.15f} "
          f"(sqrt(5) = {math.sqrt(5.0):.15f}), r2 = {r2:.6f}, r3 = {r3:.6f}, "
          f"{len(chain_roots)} roots each side, max deviation {dev:.3e}")
