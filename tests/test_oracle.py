import ast
import math
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qgspectra.oracle
from qgspectra import (
    RootTable,
    SolverConfig,
    compare,
    derivative_evaluator,
    normalize,
    random_star,
    regularity_sum,
    scan_roots,
    solve_ladder,
    weyl_audit,
)


def reference_scan(f, window, refine_tol=1e-12, coincidence_tol=1e-10):
    """``scan_roots`` one cell at a time.

    The start cells, bounds and per-element arithmetic are those of the
    batched scan, with scalar control flow: each cell is classified on its
    own and either settled or split into two that are classified next.
    ``g``, ``g'`` and ``g''`` all come from one-point ``derivative_evaluator``
    calls, bisection included, so the comparison also holds the batched
    scan's ``eval_grid`` calls to the evaluator's bits.
    """
    lo, hi = window
    u = 2.0 ** -53
    rows = [(f.s0, f.gamma0, 1.0)] + [(t.s, t.gamma, t.a) for t in f.terms]
    weights = [abs(a) for _, _, a in rows]
    big_b, big_c = [], []
    for _ in range(4):
        big_b.append(math.fsum(weights))
        big_c.append(math.fsum(w * (math.pi * (abs(g) + 1.0) + (len(rows) + 2))
                               for w, (_, g, _) in zip(weights, rows)))
        weights = [w * s for w, (s, _, _) in zip(weights, rows)]
    scale = 1.0 + regularity_sum(f)
    step = math.pi / (4.0 * f.s0)
    values = derivative_evaluator(f)

    def point(x):
        return [float(v[0]) for v in values(np.array([x]))]

    def err(p, x):
        return u * (big_b[p + 1] * x + big_c[p])

    def root_bisect(p, a, b, fa):
        width = b - a
        for _ in range(200):
            if width <= refine_tol:
                break
            m = 0.5 * (a + b)
            fm = point(m)[p]
            if fm == 0.0:
                return m
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
            width *= 0.5
        return 0.5 * (a + b)

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
            x = root_bisect(1, a, b, va[1])
            gx = point(x)[0]
            if abs(gx) <= err(0, x) and abs(gx) <= coincidence_tol * scale:
                roots.append(x)
                continue
            if va[0] * gx < 0.0:
                roots.append(root_bisect(0, a, x, va[0]))
            if vb[0] * gx < 0.0:
                roots.append(root_bisect(0, x, b, gx))
        elif va[0] * vb[0] < 0.0:
            roots.append(root_bisect(0, a, b, va[0]))

    out = []
    for r in sorted(roots):
        if r > lo + refine_tol and (not out or r - out[-1] > 4.0 * refine_tol):
            out.append(r)
    return out, step


class TestScanRoots:
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
        for f, window, kw in cases:
            assert scan_roots(f, window, **kw) == reference_scan(f, window, **kw)

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


class TestBisect:
    def test_exact_zero_at_a_midpoint_is_returned(self):
        out = qgspectra.oracle._bisect(
            lambda x: x - 0.5, np.array([0.0]), np.array([1.0]), np.array([-0.5]), 1e-12
        )
        assert out.tolist() == [0.5]

    def test_each_cell_stops_on_its_own(self):
        lo = np.array([0.0, 2.0, 5.0])
        hi = np.array([1.0, 2.0 + 1e-6, 5.0 + 1e-10])
        roots = np.array([0.3, 2.0 + 1e-7, 5.0 + 1.7e-11])
        batches = []

        def fn(x):
            batches.append(x.size)
            return x - roots[np.searchsorted(lo, x) - 1]

        tol = 1e-12
        out = qgspectra.oracle._bisect(fn, lo, hi, lo - roots, tol)
        assert np.all(np.abs(out - roots) <= tol)
        # The narrowest cell leaves the batch first and the widest last.
        assert batches[0] == 3 and batches[-1] == 1
        assert sorted(batches, reverse=True) == batches
        assert len(batches) == math.ceil(math.log2(1.0 / tol))

    def test_width_is_halved_exactly(self):
        # Far from 0 the midpoints round, and hi - lo of the halved cell
        # comes out above tol one step before the exactly halved width.
        lo, hi, root = 1661.8344288753492, 1661.867746614616, 1661.8524738383312
        calls = []

        def fn(x):
            calls.append(x)
            return x - root

        tol = 1e-12
        qgspectra.oracle._bisect(fn, np.array([lo]), np.array([hi]), np.array([lo - root]), tol)
        assert len(calls) == math.ceil(math.log2((hi - lo) / tol))


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
