import ast
import math
import random
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qgspectra.oracle
from qgspectra import (
    ChainGraphSpec,
    Derivatives,
    RootTable,
    SolverConfig,
    StarGraphSpec,
    build_chain,
    build_star,
    compare,
    load_graph_spec,
    normalize,
    random_star,
    regularity_sum,
    scan_roots,
    solve_ladder,
    weyl_audit,
)
from qgspectra.trig import Period, derivative_level, period, refine_roots

ROOT = Path(__file__).resolve().parents[1]
EPS = np.finfo(float).eps


def reference_scan(f, window, refine_tol=1e-12, coincidence_tol=1e-10):
    """``scan_roots`` one cell at a time.

    The start cells, bounds and per-element arithmetic are those of the
    batched scan, with scalar control flow: each cell is classified on its
    own and either settled or split into two that are classified next.
    ``g``, ``g'`` and ``g''`` all come from one-point ``Derivatives`` calls,
    refinement included, so the comparison also holds the batched scan's
    ``Derivatives.g`` calls to the stacked evaluation's bits.  Each root
    is refined on its own by ``trig.refine_roots``, with the scan's
    ``x_max``, and by interval Newton where that leaves it uncertified;
    each extremum the same way, as a root of level 1 on its own
    ``Derivatives`` and moments.
    """
    lo, hi = window
    scale = 1.0 + regularity_sum(f)
    step = math.pi / (4.0 * f.s0)

    def level(f):
        # Values, the bounds B_p and the rounding bound err_p of one sum.
        u = 2.0 ** -53
        rows = [(f.s0, f.gamma0, 1.0)] + [(t.s, t.gamma, t.a) for t in f.terms]
        weights = [abs(a) for _, _, a in rows]
        big_b, big_c = [], []
        for _ in range(4):
            big_b.append(math.fsum(weights))
            big_c.append(math.fsum(w * (math.pi * (abs(g) + 1.0) + (len(rows) + 11))
                                   for w, (_, g, _) in zip(weights, rows)))
            weights = [w * s for w, (s, _, _) in zip(weights, rows)]
        values = Derivatives(f)
        return SimpleNamespace(
            values=values, B=big_b,
            point=lambda x: [float(v[0]) for v in values(np.array([x]))],
            err=lambda p, x: u * (big_b[p + 1] * x + big_c[p]))

    sums, slopes = level(f), level(derivative_level(f, 1))
    point, err, big_b = sums.point, sums.err, sums.B

    def root_refine(lv, a, b, fa):
        # One interval-Newton step at a time on the level's g, as in the
        # oracle's ``_refine``.
        for _ in range(200):
            if b - a <= refine_tol:
                break
            m = 0.5 * (a + b)
            fm, dm, _ = lv.point(m)
            e = lv.err(0, m)
            delta = lv.B[2] * max(m - a, b - m) + lv.err(1, m)
            newton = abs(dm) > delta
            certain = abs(fm) > e
            if certain or not newton:
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            if newton:
                q = [(fm + s * e) / (dm + t * delta) for s in (-1, 1) for t in (-1, 1)]
                a = max(a, math.nextafter(math.nextafter(m - max(q), -math.inf), -math.inf))
                b = min(b, math.nextafter(math.nextafter(m - min(q), math.inf), math.inf))
            if fm == 0.0:
                return m
            if newton and not certain:
                break
        return 0.5 * (a + b)

    def refine(lv, a, b, fa, fb):
        # The certified refinement from the secant point, one cell at a time.
        x0 = a + fa * (b - a) / (fa - fb)
        root, certified = refine_roots(lv.values, *map(np.array, ([a], [b], [fa], [x0])),
                                       hi, refine_tol)
        return float(root[0]) if certified[0] else root_refine(lv, a, b, fa)

    roots = []
    xs = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / step)) + 1).tolist()
    stack = [(a, b, point(a), point(b)) for a, b in zip(xs, xs[1:])]
    while stack:
        a, b, va, vb = stack.pop()
        w = b - a
        e0 = err(0, b)
        curv = 0.5 * big_b[2] * w * w
        if (abs(va[0]) > abs(va[1]) * w + curv + e0
                or abs(vb[0]) > abs(vb[1]) * w + curv + e0):
            continue
        mono = max(abs(va[1]), abs(vb[1])) > big_b[2] * w + err(1, b)
        ext = max(abs(va[2]), abs(vb[2])) > big_b[3] * w + err(2, b)
        if not (mono or ext or curv <= e0):
            m = 0.5 * (a + b)
            vm = point(m)
            stack += [(a, m, va, vm), (m, b, vm, vb)]
            continue
        if vb[0] == 0.0:
            roots.append(b)
        if ext and not mono and va[1] * vb[1] < 0.0:
            x = refine(slopes, a, b, va[1], vb[1])
            gx = point(x)[0]
            if abs(gx) <= err(0, x) and abs(gx) <= coincidence_tol * scale:
                roots.append(x)
                continue
            if va[0] * gx < 0.0:
                roots.append(refine(sums, a, x, va[0], gx))
            if vb[0] * gx < 0.0:
                roots.append(refine(sums, x, b, gx, vb[0]))
        elif va[0] * vb[0] < 0.0:
            roots.append(refine(sums, a, b, va[0], vb[0]))

    out = []
    for r in sorted(roots):
        if r > lo + refine_tol and (not out or r - out[-1] > 4.0 * refine_tol):
            out.append(r)
    return out, step


class TestScanRoots:
    @pytest.mark.parametrize("kw", [
        # Unchecked, each gives a wrong count against 57 on (0, 10]: a nan
        # refine_tol none, 0 and -1 58, the bad coincidence thresholds 61.
        pytest.param({"refine_tol": math.nan}, id="refine-nan"),
        pytest.param({"refine_tol": 0.0}, id="refine-zero"),
        pytest.param({"refine_tol": -1.0}, id="refine-negative"),
        pytest.param({"coincidence_tol": math.nan}, id="coincidence-nan"),
        pytest.param({"coincidence_tol": -1.0}, id="coincidence-negative"),
    ])
    def test_rejects_bad_tolerances(self, kw):
        f = load_graph_spec(ROOT / "specs" / "star.yaml").function
        assert len(scan_roots(f, (0.0, 10.0))[0]) == 57
        (key, value), = kw.items()
        with pytest.raises(ValueError, match=f"{key} must be positive and finite, got {value}"):
            scan_roots(f, (0.0, 10.0), **kw)

    def test_plain_cosine(self):
        f = normalize(1.0, 0.0, [])
        roots, step = scan_roots(f, (0.0, 10.0))
        assert roots == pytest.approx(
            [math.pi / 2.0, 3.0 * math.pi / 2.0, 5.0 * math.pi / 2.0], abs=1e-11
        )
        assert step == math.pi / 4.0

    def test_tangency_counted_once(self):
        # cos(2k) - cos(k) touches zero at k = 2*pi (both terms equal 1)
        # and crosses at 2*pi/3 and 4*pi/3.
        f = normalize(2.0, 0.0, [(1.0, 0.0, 1.0)])
        roots, _ = scan_roots(f, (0.0, 7.0))
        assert roots == pytest.approx(
            [2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0, 2.0 * math.pi], abs=1e-9
        )
        # Several tangencies in one scan, at 2*pi, 4*pi and 6*pi.
        roots, _ = scan_roots(f, (0.0, 20.0))
        assert roots == pytest.approx([2.0 * math.pi * n / 3.0 for n in range(1, 10)], abs=1e-9)
        # At a window end of 2*pi, where g is exactly zero in floating point.
        roots, _ = scan_roots(f, (0.0, 2.0 * math.pi))
        assert roots[-1] == 2.0 * math.pi and len(roots) == 3

    def test_dips_that_split_and_dips_that_miss(self):
        # A tiny cos(k/2) term lifts the tangency at 2*pi above zero (two
        # simple roots straddle it) and sinks the one at 4*pi below (no root).
        f = normalize(2.0, 0.0, [(1.0, 0.0, 1.0), (0.5, 0.0, 1e-6)])
        roots, _ = scan_roots(f, (0.0, 13.0))
        near_2pi = [r for r in roots if abs(r - 2.0 * math.pi) < 0.01]
        assert near_2pi == pytest.approx([6.28237, 6.28400], abs=1e-5)
        assert not [r for r in roots if abs(r - 4.0 * math.pi) < 0.1]
        sol = solve_ladder(f, SolverConfig(k_max=13.0))
        assert len(roots) == len(sol.spectrum)
        assert roots == pytest.approx(sol.spectrum.ks, abs=1e-9)

    def test_exact_grid_zeros_reported_once(self):
        # sin k on cells of width pi/4 has an end within ulps of every n*pi.
        # The window runs past 10*pi: float(10*pi) falls short of it, and
        # sin is negative there.
        f = normalize(1.0, 0.5, [])
        roots, _ = scan_roots(f, (0.0, 10.5 * math.pi))
        assert len(roots) == 10
        for n, r in enumerate(roots, start=1):
            assert abs(r - n * math.pi) <= 1e-12
        # A window a few ulps of g wide around a tangency, where g is within
        # rounding of zero throughout, still gives the one double root.
        f = normalize(2.0, 0.0, [(1.0, 0.0, 1.0)])
        window = (2.0 * math.pi - 4e-7, 2.0 * math.pi + 4e-7)
        roots, _ = scan_roots(f, window)
        assert len(roots) == 1
        assert abs(roots[0] - 2.0 * math.pi) < 1e-9

    def test_matches_reference_scan_bitwise(self, worked_star, worked_chain, case_suite):
        rng = random.Random(11)
        cases = [
            (worked_star, (0.0, 12.0), {}),
            (worked_chain, (0.0, 12.0), {}),
            (normalize(2.0, 0.0, [(1.0, 0.0, 1.0), (0.5, 0.0, 1e-6)]), (0.0, 13.0), {}),
            (normalize(2.0, 0.0, [(1.0, 0.0, 1.0)]), (0.5, 20.0), {"coincidence_tol": 1e-6}),
            (normalize(1.0, 0.5, []), (0.0, 10.0 * math.pi), {}),
            (normalize(2.0, 0.0, [(1.0, 0.0, 1.0)]),
             (2.0 * math.pi - 4e-7, 2.0 * math.pi + 4e-7), {}),
            (normalize(2.0, 0.0, [(1.0, 0.0, 1.0)]), (0.0, 2.0 * math.pi), {}),
            # sin 3k - 3 sin k = -4 sin**3 k: triple roots reach the floor.
            (normalize(3.0, 0.5, [(1.0, 0.5, 3.0)]), (0.0, 7.0), {}),
        ]
        cases += [(random_star(rng), (0.0, 6.0), {"refine_tol": 1e-10}) for _ in range(3)]
        cases += [(dict(case_suite)["chain-10"], (0.0, 10.0), {})]
        # At large k most roots stop on the rounding floor of g.
        cases += [(worked_star, (1490.0, 1500.0), {})]
        for f, window, kw in cases:
            roots, step = scan_roots(f, window, **kw)
            reference, reference_step = reference_scan(f, window, **kw)
            assert np.array_equal(roots, reference) and step == reference_step

    @given(st.lists(st.integers(min_value=0, max_value=12), max_size=40))
    def test_merge_measures_from_the_last_kept_root(self, steps):
        # Roots whole multiples of tol/2 apart, ties included: a chain of
        # close roots is measured from the last root kept, not from its
        # neighbour, as the loop over the sorted list does.
        tol = 1e-12
        roots = 1.0 + np.cumsum(steps) * (0.5 * tol)
        kept = []
        for r in roots.tolist():
            if not kept or r - kept[-1] > 4.0 * tol:
                kept.append(r)
        assert qgspectra.oracle._merge_close(roots, tol).tolist() == kept

    def test_sunk_tangency_gives_two_simple_roots(self, shifted_star):
        # g(pi) = -1e-11, far above rounding and a tenth of the default
        # coincidence threshold: two simple roots straddle pi.
        roots, _ = scan_roots(shifted_star(1e-11), (0.0, 4.0))
        near = [r for r in roots if abs(r - math.pi) < 1e-6]
        assert len(near) == 2
        assert near[0] < math.pi < near[1]
        assert near[1] - near[0] == pytest.approx(7.7267e-7, rel=1e-4)

    def test_lifted_tangency_gives_no_root(self, shifted_star):
        # g(pi) = +1e-11 at the bottom of a dip that stays above zero.
        roots, _ = scan_roots(shifted_star(-1e-11), (0.0, 4.0))
        assert not [r for r in roots if abs(r - math.pi) < 1e-3]

    @pytest.mark.xfail(strict=True, reason="rounding noise in g near a triple root "
                       "gives one root per sign flip")
    def test_triple_root_reported_once(self):
        # sin 3k - 3 sin k = -4 sin**3 k has triple roots at pi and 2*pi.
        roots, _ = scan_roots(normalize(3.0, 0.5, [(1.0, 0.5, 3.0)]), (0.0, 7.0))
        assert roots == pytest.approx([math.pi, 2.0 * math.pi], abs=1e-5)

    @pytest.mark.xfail(strict=True, reason="the stored worked star splits each double root "
                       "at m*pi into simple roots 9.1e-10 either side, and g(float(m*pi)) "
                       "computes to +-5.55e-17: where that point is a cell end, the cells on "
                       "both sides change sign and each gives a root")
    def test_double_roots_on_cell_ends_reported_once(self, worked_star):
        # On (0, 6*pi] the cells are pi/76 wide, so every float(m*pi) is a
        # cell end; elsewhere each double root is one tangency.
        k_max = 6.0 * math.pi
        xs = np.linspace(0.0, k_max, math.ceil(k_max / (math.pi / 76.0)) + 1)
        assert xs.size == 6 * 76 + 1 and all(m * math.pi in xs for m in range(1, 6))
        roots, _ = scan_roots(worked_star, (0.0, k_max))
        for m in range(1, 6):
            assert len([r for r in roots if abs(r - m * math.pi) < 1e-6]) == 1, m

    def test_origin_zero_excluded(self, worked_star):
        roots, _ = scan_roots(worked_star, (0.0, 1.0))
        assert all(r > 1e-9 for r in roots)

    def test_bad_window_rejected(self):
        f = normalize(1.0, 0.0, [])
        with pytest.raises(ValueError):
            scan_roots(f, (5.0, 5.0))
        with pytest.raises(ValueError):
            scan_roots(f, (-1.0, 5.0))
        with pytest.raises(ValueError, match="bad window"):
            scan_roots(f, (0.0, math.inf))

    def test_agrees_with_solver(self, worked_chain):
        kmax = 20.0
        sol = solve_ladder(worked_chain, SolverConfig(k_max=kmax))
        roots, _ = scan_roots(worked_chain, (0.0, kmax))
        assert len(roots) == len(sol.spectrum)
        assert roots == pytest.approx(sol.spectrum.ks, abs=1e-10)


def tiled_and_direct(f, window, **kw):
    """How ``scan_roots`` took ``window`` ("tiled"; "fallback", where its
    cut or a check refused the images; or "direct"), its roots, and the
    roots of the whole-window scan."""
    taken = []
    tiled = qgspectra.oracle._tiled

    def recording(*args):
        roots = tiled(*args)
        taken.append("fallback" if roots is None else "tiled")
        return roots

    with mock.patch.object(qgspectra.oracle, "_tiled", recording):
        roots, _ = scan_roots(f, window, **kw)
    with mock.patch.object(qgspectra.oracle, "period", return_value=None):
        direct, _ = scan_roots(f, window, **kw)
    return (taken or ["direct"])[0], roots, direct


def assert_tiles_the_direct_scan(f, window, refine_tol=1e-12):
    """Check the scan of ``window`` against the whole-window scan and say
    how it went.

    "direct" and "fallback" are bitwise the whole-window scan.  A tiled
    scan has that scan's roots bitwise below ``lo + P`` and above
    ``hi - P``, which lie in its head and tail whatever its cuts.  It is
    "tiled" when it has that scan's count and each of its roots lies
    within ``2*(refine_tol + 4*eps*k)`` and half an ulp of that scan's:
    each is within ``refine_tol + 4*eps*k`` of a root, and an image's one
    rounding adds the half ulp.  Otherwise the whole-window scan must
    fail ``compare`` against the solver too: "direct scan wrong".
    """
    how, roots, direct = tiled_and_direct(f, window, refine_tol=refine_tol)
    if how != "tiled":
        assert roots.tobytes() == direct.tobytes()
        return how
    lo, hi = window
    per = period(f)
    head, tail = lo + per.hi, hi - per.hi
    assert roots[roots <= head].tobytes() == direct[direct <= head].tobytes()
    assert roots[roots > tail].tobytes() == direct[direct > tail].tobytes()
    if roots.size == direct.size:
        tol = 2.0 * (refine_tol + 4.0 * EPS * direct) + 0.5 * np.spacing(direct)
        if np.all(np.abs(roots - direct) <= tol):
            return how
    ks = solve_ladder(f, SolverConfig(k_max=hi)).spectrum.ks
    assert not compare(ks[ks > lo], direct).ok
    return "direct scan wrong"


# Window starts up to 1e5, multiples of pi among them, and lengths of 16.5
# to 48 periods, whole numbers of periods among them.
window_starts = st.one_of(st.just(0.0), st.floats(0.0, 1e5),
                          st.integers(0, 31830).map(lambda m: m * math.pi))
window_periods = st.one_of(st.floats(16.5, 48.0), st.integers(17, 48).map(float))


def periodic_window(f, start, periods):
    return start, start + periods * period(f).hi


class TestTiledScan:
    """A window of a periodic sum more than 16 periods long is scanned on a
    head and a tail stretch of its cell grid and imaged between them."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_cases(self, seed, bench_workloads):
        # The worked star and chain at k_max 1500 (239 periods) are tiled.
        # The random networks have no period, and each spec at its own
        # window (at most 8 periods) is scanned whole, bitwise as before.
        cases = {}
        for name in ("networks-highk", "cli-specs"):
            wl = bench_workloads.build_workload(name, seed, ROOT)
            cases.update((c.name, c) for c in wl.cases + wl.spec_cases)
        taken = {name: assert_tiles_the_direct_scan(c.f, (0.0, c.k_max))
                 for name, c in cases.items()}
        assert {name: how for name, how in taken.items() if how != "direct"} == {
            "worked-star": "tiled", "worked-chain": "tiled"}
        assert {"star", "chain", "trig", "star_bonds"} <= taken.keys()

    def test_acceptance_networks(self, case_suite):
        # At k_max = 950/s0 the worked star and chain span 7.96 periods and
        # are scanned whole, like the 50 random networks, which have no
        # period; at 1e4 the worked two are tiled.
        for name, f in case_suite:
            assert assert_tiles_the_direct_scan(f, (0.0, 950.0 / f.s0)) == "direct", name
        for f in dict(case_suite)["worked-star"], dict(case_suite)["worked-chain"]:
            assert assert_tiles_the_direct_scan(f, (0.0, 1e4)) == "tiled"

    @given(alpha=st.tuples(*[st.integers(1, 12)] * 3), bonds=st.tuples(*[st.integers(1, 8)] * 3),
           beta=st.tuples(*[st.floats(0.05, 1.0)] * 3), chain=st.booleans(),
           start=window_starts, periods=window_periods)
    def test_integer_networks(self, alpha, bonds, beta, chain, start, periods):
        # Stars with integer alpha have double roots at multiples of pi.
        if chain:
            b0, b1, b2 = bonds
            actions = (b0 + b1 + b2, -b0 + b1 + b2, b0 - b1 + b2, b0 + b1 - b2)
            f = build_chain(ChainGraphSpec(tuple(map(float, actions)), beta))
        else:
            f = build_star(StarGraphSpec(tuple(map(float, alpha)), beta))
        how = assert_tiles_the_direct_scan(f, periodic_window(f, start, periods))
        hypothesis.event(how)

    @given(s0=st.integers(1, 8),
           terms=st.lists(st.tuples(st.integers(0, 7), st.floats(0.0, 2.0), st.floats(-1.5, 1.5)),
                          max_size=3),
           lift=st.one_of(st.just(0.0), st.floats(1.01, 3.0)),
           gamma0=st.floats(0.0, 2.0), start=window_starts, periods=window_periods)
    def test_commensurate_sums(self, s0, terms, lift, gamma0, start, periods):
        # A lift above 1 + sum|a| leaves g without a root in any period.
        terms = [(float(s % s0), gamma, a) for s, gamma, a in terms]
        lift *= 1.0 + sum(abs(a) for _, _, a in terms)
        f = normalize(float(s0), gamma0, terms + [(0.0, 0.0, -lift)])
        how = assert_tiles_the_direct_scan(f, periodic_window(f, start, periods))
        if lift:
            assert scan_roots(f, periodic_window(f, start, periods))[0].size == 0
        hypothesis.event(how)

    @pytest.mark.parametrize("name", ["worked-star", "worked-chain"])
    def test_a_wrong_period_is_refused(self, name, worked_star, worked_chain):
        # P*(1 + 1e-12) moves the images of B by 6.3e-12, beyond the first
        # check; P*(1 + 1e-14) moves them by 6.3e-14, which it lets pass,
        # but the tail's, 239 periods on, by 1.5e-11.  Either way the whole
        # window is scanned.
        f = {"worked-star": worked_star, "worked-chain": worked_chain}[name]
        checks = []
        matches = qgspectra.oracle._matches

        def recording(*args):
            checks.append(matches(*args))
            return checks[-1]

        for rel, seen in [(1e-12, [False]), (1e-14, [True, False])]:
            per = period(f)
            wrong = Period(per.hi * (1.0 + rel), per.lo, per.roots)
            checks.clear()
            with mock.patch.object(qgspectra.oracle, "period", return_value=wrong), \
                    mock.patch.object(qgspectra.oracle, "_matches", recording):
                how, roots, direct = tiled_and_direct(f, (0.0, 1500.0))
            assert how == "fallback" and checks == seen
            assert roots.tobytes() == direct.tobytes()

    def test_a_moved_middle_root_fails_compare(self, worked_star):
        sol = solve_ladder(worked_star, SolverConfig(k_max=1500.0))
        how, roots, _ = tiled_and_direct(worked_star, (0.0, 1500.0))
        assert how == "tiled" and compare(sol.spectrum.ks, roots).ok
        ks = sol.spectrum.ks.copy()
        i = ks.size // 2
        ks[i] += 1e-6
        report = compare(ks, roots)
        assert not report.ok and report.mismatch_index == i


def refinements(monkeypatch, f, window):
    """Scan ``f`` over ``window`` and record each of its two refinements.

    The records come extrema first.  Each holds the function ``f`` whose
    roots were refined, ``f`` itself or its level 1 for the extrema, its
    ``level``, the cells ``lo`` and ``hi``, the ``certified`` mask of ``trig.refine_roots``, the
    cells ``fallback`` that ``_refine`` received and the ``enclosed``
    roots it returned, the final ``roots``, and each cell's evaluations:
    ``calls`` by the certified refinement and ``newton`` by ``_refine``.
    """
    oracle = qgspectra.oracle
    certify, refine, scan = oracle.refine_roots, oracle._refine, oracle._certified_roots
    log = []

    def counter(d, lo):
        order = np.argsort(lo)
        calls = np.zeros(lo.size, dtype=int)

        def tally(x):
            calls[order[np.searchsorted(lo[order], x, side="right") - 1]] += 1
            return d(x)

        return calls, FakeDerivatives(tally, d.B, d.err, d.f)

    def certified(d, lo, hi, flo, x, x_max, tol):
        calls, counted = counter(d, lo)
        roots, sure = certify(counted, lo, hi, flo, x, x_max, tol)
        log.append(SimpleNamespace(f=d.f, level=int(d.f != f), lo=lo, hi=hi, certified=sure,
                                   calls=calls))
        return roots, sure

    def fallback(d, lo, hi, flo, tol):
        calls, counted = counter(d, lo)
        out = refine(counted, lo, hi, flo, tol)
        rec = log[-1]
        rec.fallback, rec.enclosed, rec.newton = lo, out, np.zeros_like(rec.calls)
        rec.newton[~rec.certified] = calls
        return out

    def recorded(*args):
        roots = scan(*args)
        log[-1].roots = roots
        return roots

    monkeypatch.setattr(oracle, "refine_roots", certified)
    monkeypatch.setattr(oracle, "_refine", fallback)
    monkeypatch.setattr(oracle, "_certified_roots", recorded)
    scan_roots(f, window)
    return log


def mp_function(mpmath, f, p=0):
    """The p-th derivative of ``f`` at ``mpmath``'s working precision, on
    the same float coefficients."""
    rows = [(f.s0, f.gamma0, -1.0)] + [tuple(t) for t in f.terms]
    # d^p/dk^p cos(s*k - c) = s**p * cos(s*k - c + p*pi/2)
    return lambda x: -mpmath.fsum(a * s ** p * mpmath.cos(s * x - mpmath.pi * (g - p / 2))
                                  for s, g, a in rows)


def assert_roots_match_mpmath(mpmath, rec, tol):
    """Each root of ``rec`` lies in its cell and near a root of ``g = rec.f``:
    within ``tol + 4*eps*|k|``, or within rounding's ``2*err_0/|g'|``."""
    g, dg = mp_function(mpmath, rec.f), mp_function(mpmath, rec.f, 1)
    d = Derivatives(rec.f)
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for x, a, z in zip(rec.roots.tolist(), rec.lo.tolist(), rec.hi.tolist()):
            root = mpmath.findroot(g, mpmath.mpf(x))
            assert a <= x <= z
            slack = max(tol + 4.0 * eps * x, 2.0 * d.err(0, x) / abs(float(dg(root))))
            assert abs(x - float(root)) <= slack


class FakeDerivatives:
    """Stands in for ``trig.Derivatives``: ``values(x)`` gives ``g``, ``g'``
    and ``g''``, ``B`` the derivative bounds, ``err`` the rounding bound and
    ``f`` the sum; both bounds are zero unless given."""

    def __init__(self, values, B=(0.0,) * 4, err=lambda p, x: 0.0, f=None):
        self.values, self.B, self.err, self.f = values, B, err, f

    def __call__(self, x):
        return self.values(x)


class TestRefine:
    def test_exact_zero_at_a_midpoint_is_returned(self):
        calls = []

        def values(x):
            calls.append(x)
            return x - 0.5, np.zeros_like(x), np.zeros_like(x)

        out = qgspectra.oracle._refine(FakeDerivatives(values), np.array([0.0]),
                                       np.array([1.0]), np.array([-0.5]), 1e-12)
        assert out.tolist() == [0.5]
        assert len(calls) == 1

    def test_each_element_stops_on_its_own(self):
        # g is linear in every cell, so Newton encloses the first and last
        # roots at once; g' reads 0 in the middle cell, which is bisected.
        lo = np.array([0.0, 2.0, 5.0])
        hi = lo + 1.0
        roots = np.array([0.3, 2.0 + 1e-7, 5.7])
        slopes = np.array([1.0, 0.0, 1.0])
        batches = []

        def values(x):
            batches.append(x.size)
            cell = np.searchsorted(lo, x) - 1
            return x - roots[cell], slopes[cell], np.zeros_like(x)

        tol = 1e-12
        out = qgspectra.oracle._refine(FakeDerivatives(values), lo, hi, lo - roots, tol)
        assert np.all(np.abs(out - roots) <= tol)
        assert batches[0] == 3 and set(batches[1:]) == {1}
        assert len(batches) == math.ceil(math.log2(1.0 / tol))

    def test_scanned_elements_take_at_most_the_halving_count(
            self, monkeypatch, worked_star, worked_chain, shifted_star):
        # On these scans Newton cuts nearly every step, so no element the
        # certified stop leaves to _refine needs more evaluations there than
        # halving its cell down to tol would.  This is a property of the
        # scans, not of the routine: halving alone can take one step more
        # (next test).  The star's extremum at k = 0 and the near-double
        # roots of the shifted star fall back.
        cases = [(worked_star, (0.0, 12.0)), (worked_star, (1490.0, 1500.0)),
                 (worked_chain, (1490.0, 1500.0)), (shifted_star(1e-11), (0.0, 4.0))]
        fell_back = 0
        for f, window in cases:
            log = refinements(monkeypatch, f, window)
            assert [rec.level for rec in log] == [1, 0]
            for rec in log:
                assert np.all(rec.newton <= np.ceil(np.log2((rec.hi - rec.lo) / 1e-12)))
                fell_back += int((rec.newton > 0).sum())
        assert fell_back >= 4

    def test_halving_alone_can_take_one_step_more(self):
        # g' reads 0, so Newton never applies and every step halves.  Far
        # from 0 the midpoints round, and hi - lo comes out above tol one
        # step after the exactly halved width would have reached it.
        lo, hi, root = 1661.8344288753492, 1661.867746614616, 1661.8524738383312
        calls = []

        def values(x):
            calls.append(x)
            return x - root, np.zeros_like(x), np.zeros_like(x)

        tol = 1e-12
        out = qgspectra.oracle._refine(FakeDerivatives(values), np.array([lo]),
                                       np.array([hi]), np.array([lo - root]), tol)
        assert abs(out[0] - root) <= tol
        assert len(calls) == math.ceil(math.log2((hi - lo) / tol)) + 1

    def test_monotone_cells_near_1500_take_at_most_three_calls(self, monkeypatch, worked_chain):
        _, rec = refinements(monkeypatch, worked_chain, (1490.0, 1500.0))
        lo, hi = rec.lo, rec.hi
        # The cell rule for a proven-monotone cell, read at both ends.
        d = Derivatives(worked_chain)
        slope = np.maximum(np.abs(d(lo)[1]), np.abs(d(hi)[1]))
        mono = slope > d.B[2] * (hi - lo) + d.err(1, hi)
        assert mono.sum() >= 50
        assert (rec.calls + rec.newton)[mono].max() <= 3

    def test_roots_match_mpmath(self, monkeypatch, worked_star, worked_chain):
        # Roots and extrema, the roots of level 1, certified or not.
        mpmath = pytest.importorskip("mpmath")
        cases = [(worked_star, (0.0, 12.0)), (worked_star, (1490.0, 1500.0)),
                 (worked_chain, (1490.0, 1500.0)), (worked_chain, (0.0, 12.0))]
        extrema = 0
        for f, window in cases:
            for rec in refinements(monkeypatch, f, window):
                assert_roots_match_mpmath(mpmath, rec, 1e-12)
                extrema += rec.level * rec.roots.size
        assert extrema > 0

    def test_uncertified_elements_fall_back_to_interval_newton(self, monkeypatch):
        # Near k = 1e4 the rounding bound is wide enough that the certified
        # stop leaves a few roots to the step rule.  Exactly those go to
        # _refine, whose enclosure holds the true root.
        mpmath = pytest.importorskip("mpmath")
        f = random_star(random.Random(3))
        _, rec = refinements(monkeypatch, f, (1e4, 1e4 + 10.0))
        rest = ~rec.certified
        assert 0 < rest.sum() < rec.certified.sum()
        assert rec.fallback.tolist() == rec.lo[rest].tolist()
        assert rec.roots[rest].tolist() == rec.enclosed.tolist()
        assert np.all(rec.newton[rec.certified] == 0) and np.all(rec.newton[rest] > 0)
        assert_roots_match_mpmath(mpmath, SimpleNamespace(
            f=f, roots=rec.roots[rest], lo=rec.lo[rest], hi=rec.hi[rest]), 1e-12)

    def test_value_within_rounding_stops_with_the_newton_enclosure(self):
        # g has slope 1 and its true root at 0.5 + 2e-10, but reads 3e-10
        # at the midpoint, within err_0 = 1e-9 of zero.  Halving on that
        # sign would drop the root; the enclosure 0.5 - (3e-10 +- 1e-9)
        # keeps it, and its midpoint is returned after one call.
        calls = []

        def values(x):
            calls.append(x)
            return x - 0.5 + 3e-10 - 5e-10 * (x != 0.5), np.ones_like(x), np.zeros_like(x)

        d = FakeDerivatives(values, err=lambda p, x: 1e-9 if p == 0 else 0.0)
        out = qgspectra.oracle._refine(d, np.array([0.0]), np.array([1.0]),
                                       np.array([-0.5]), 1e-12)
        assert len(calls) == 1
        assert out[0] == pytest.approx(0.5 - 3e-10, abs=1e-15)


def test_oracle_does_not_import_the_solver():
    # The oracle audits the solver, so it must not share its machinery.
    tree = ast.parse(Path(qgspectra.oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any("solver" in name.split(".") for name in names), ast.unparse(node)


class TestCompare:
    def test_rejects_a_nan_tolerance(self):
        # dev > nan is false for every deviation, so unchecked this passes.
        with pytest.raises(ValueError, match="tol must be positive and finite, got nan"):
            compare([1.0, 2.0], [2.0, 3.0], tol=math.nan)

    def test_identical_lists(self):
        rep = compare([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], tol=1e-9)
        assert rep.ok
        assert rep.verdict == "pass"
        assert rep.max_deviation == 0.0
        assert rep.mismatch_index is None

    def test_within_tolerance(self):
        rep = compare([1.0, 2.0], [1.0 + 1e-10, 2.0 - 1e-10], tol=1e-9)
        assert rep.ok
        assert rep.max_deviation == pytest.approx(1e-10, rel=1e-6)

    def test_missing_root_pinpointed(self):
        oracle = [1.0, 2.0, 3.0, 4.0]
        solver = [1.0, 2.0, 4.0]  # lost the third root
        rep = compare(solver, oracle, tol=1e-9)
        assert not rep.ok
        assert rep.mismatch_index == 2
        assert "count mismatch" in rep.message

    def test_deviation_pinpointed(self):
        rep = compare([1.0, 2.0, 3.0], [1.0, 2.5, 3.0], tol=1e-9)
        assert not rep.ok
        assert rep.mismatch_index == 1
        assert "root 2" in rep.message

    @pytest.mark.parametrize("solver, oracle, index", [
        ([1.0, 2.0], [1.0, math.nan], 1),
        ([math.nan], [5.0], 0),
        ([1.0, 2.0], [1.0, math.inf], 1),
        ([-math.inf, 2.0], [1.0, 2.0], 0),
    ])
    def test_non_finite_root_fails_at_its_index(self, solver, oracle, index):
        # dev > tol is false for a nan deviation, so nan must fail as inf does.
        rep = compare(solver, oracle, tol=1e-9)
        assert (rep.verdict, rep.mismatch_index) == ("fail", index)
        assert rep.message.startswith(f"root {index + 1} deviates by ")
        assert rep.max_deviation == 0.0

    def test_max_deviation_by_outcome(self):
        # A deviation failure reports the largest deviation before the
        # failing root; a count mismatch reports none.
        rep = compare([1.0, 2.0, 3.0], [1.0 + 2e-10, 2.5, 3.0 + 5e-10], tol=1e-9)
        assert rep.max_deviation == abs(1.0 - (1.0 + 2e-10))
        rep = compare([1.0, 2.0], [1.0 + 2e-10, 2.0, 3.0], tol=1e-9)
        assert (rep.max_deviation, rep.mismatch_index) == (0.0, 2)
        assert compare([], [], tol=1e-9).max_deviation == 0.0

    def test_arrays_report_python_floats(self):
        rep = compare(np.array([1.0, 2.0]), [1.0, 2.5], tol=1e-9)
        assert rep.message == (
            "root 2 deviates by 5.000e-01 (solver 2.0, oracle 2.5, tol 1e-09)"
        )
        assert type(rep.max_deviation) is float


class TestWeylAudit:
    def test_pure_cosine_within_one(self):
        f = normalize(5.0, 0.0, [])
        for K in (3.0, 7.5, 20.0, 41.0):
            roots, _ = scan_roots(f, (0.0, K))
            audit = weyl_audit(roots, 5.0, (0.0, K))
            assert audit.deviation <= 1.0
            assert audit.within(1.0)

    def test_empty_window(self):
        audit = weyl_audit([1.0, 2.0], 5.0, (3.0, 3.0))
        assert (audit.expected, audit.actual, audit.deviation) == (0.0, 0, 0.0)

    def test_expected_value(self):
        audit = weyl_audit([], 19.0, (0.0, 4.0))
        assert audit.expected == pytest.approx(19.0 * 4.0 / math.pi, abs=1e-12)

    def test_counts_plain_numbers_once(self):
        audit = weyl_audit([0.5, 1.5, 2.5], 1.0, (0.0, 2.0))
        assert audit.actual == 2

    def test_counts_coincidence_entries_twice(self):
        table = RootTable(0, [0.5, 1.5, 2.5], [False, True, False])
        audit = weyl_audit(table, 1.0, (0.0, 3.0))
        assert audit.actual == 4

    def test_duck_typed_entries(self):
        columns = SimpleNamespace(ks=[1.0, 2.0], coincident=[False, True])
        audit = weyl_audit(columns, 1.0, (0.0, 5.0))
        assert audit.actual == 3

    def test_window_filter(self):
        audit = weyl_audit([0.5, 1.5, 2.5, 3.5], 1.0, (1.0, 3.0))
        assert audit.actual == 2
