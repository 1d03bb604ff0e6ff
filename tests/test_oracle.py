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
    eval_grid,
    normalize,
    random_star,
    regularity_sum,
    scan_roots,
    solve_ladder,
    weyl_audit,
)


def reference_scan(f, window, scan_step=None, refine_tol=1e-12, coincidence_tol=1e-10):
    """``scan_roots`` one grid point, cell and dip at a time.

    The grid, thresholds and per-element arithmetic are those of the batched
    scan, with scalar control flow.  Values come from one-point
    ``eval_grid`` calls, so the comparison does not rest on ``math.cos``
    and ``numpy.cos`` agreeing.
    """
    lo, hi = window
    if scan_step is None:
        scan_step = math.pi / (40.0 * f.s0)
    xs = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / scan_step)) + 1)
    step = float(xs[1] - xs[0])
    ys = eval_grid(f, xs)
    scale = 1.0 + regularity_sum(f)
    h = step / 32.0

    def g(x):
        return float(eval_grid(f, np.array([x]))[0])

    def slope(x):
        return g(x + h) - g(x - h)

    def root_bisect(fn, a, b, fa):
        width = b - a
        for _ in range(200):
            if width <= refine_tol:
                break
            m = 0.5 * (a + b)
            fm = fn(m)
            if fm == 0.0:
                return m
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
            width *= 0.5
        return 0.5 * (a + b)

    roots = []
    zero = [abs(y) <= 1e-13 * scale for y in ys]
    i = 0
    while i < len(xs):
        j = i
        while zero[i] and j + 1 < len(xs) and zero[j + 1]:
            j += 1
        if zero[i]:
            roots.append(float(xs[min(range(i, j + 1), key=lambda t: abs(ys[t]))]))
        i = j + 1

    cells = [i for i in range(len(xs) - 1)
             if not (zero[i] or zero[i + 1]) and np.sign(ys[i]) * np.sign(ys[i + 1]) < 0.0]
    for i in cells:
        roots.append(root_bisect(g, float(xs[i]), float(xs[i + 1]), float(ys[i])))

    near = set(cells) | {i + 1 for i in cells}
    clusters = []
    for t in range(len(xs)):
        if abs(ys[t]) < 0.05 * scale and not zero[t] and t not in near:
            if clusters and clusters[-1][1] == t - 1:
                clusters[-1][1] = t
            else:
                clusters.append([t, t])
    for c_lo, c_hi in clusters:
        a0, b0 = float(xs[max(0, c_lo - 1)]), float(xs[min(len(xs) - 1, c_hi + 1)])
        sa = slope(a0)
        if sa * slope(b0) > 0.0:
            continue
        x = root_bisect(slope, a0, b0, sa)
        fx = g(x)
        if abs(fx) <= coincidence_tol * scale:
            roots.append(x)
        elif fx * g(a0) < 0.0 and fx * g(b0) < 0.0:
            roots += [root_bisect(g, a0, x, g(a0)), root_bisect(g, x, b0, fx)]

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
        assert step <= math.pi / 4.0

    def test_step_halving_consistency(self):
        f = normalize(6.0, 0.25, [(3.5, 0.0, 0.45), (1.25, 1.5, -0.3)])
        coarse, step = scan_roots(f, (0.0, 20.0), scan_step=math.pi / (40.0 * 6.0))
        fine, _ = scan_roots(f, (0.0, 20.0), scan_step=math.pi / (80.0 * 6.0))
        assert len(coarse) == len(fine)
        assert coarse == pytest.approx(fine, abs=1e-10)

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
        # sin k on a grid of step pi/40 lands within ulps of every n*pi.
        f = normalize(1.0, 0.5, [])
        roots, _ = scan_roots(f, (0.0, 10.0 * math.pi), scan_step=math.pi / 40.0)
        assert len(roots) == 10
        for n, r in enumerate(roots, start=1):
            assert abs(r - n * math.pi) <= 1e-12
        # A run of consecutive near-zero samples around a tangency
        # collapses to one of the two samples nearest to it.
        f = normalize(2.0, 0.0, [(1.0, 0.0, 1.0)])
        window = (2.0 * math.pi - 4e-7, 2.0 * math.pi + 4e-7)
        roots, step = scan_roots(f, window, scan_step=1e-7)
        assert len(roots) == 1
        assert abs(roots[0] - 2.0 * math.pi) < step

    def test_matches_reference_scan_bitwise(self, worked_star, worked_chain, case_suite):
        rng = random.Random(11)
        cases = [
            (worked_star, (0.0, 12.0), {}),
            (worked_chain, (0.0, 12.0), {}),
            (normalize(2.0, 0.0, [(1.0, 0.0, 1.0), (0.5, 0.0, 1e-6)]), (0.0, 13.0), {}),
            (normalize(2.0, 0.0, [(1.0, 0.0, 1.0)]), (0.5, 20.0), {"coincidence_tol": 1e-6}),
            (normalize(1.0, 0.5, []), (0.0, 10.0 * math.pi), {"scan_step": math.pi / 40.0}),
            (normalize(2.0, 0.0, [(1.0, 0.0, 1.0)]),
             (2.0 * math.pi - 4e-7, 2.0 * math.pi + 4e-7), {"scan_step": 1e-7}),
        ]
        cases += [(random_star(rng), (0.0, 6.0), {"refine_tol": 1e-10}) for _ in range(3)]
        # Here the halved cells come within rounding of refine_tol, so a
        # width taken as hi - lo, not halved exactly, stops some of them
        # one step off.
        cases += [(dict(case_suite)["chain-10"], (0.0, 10.0), {})]
        for f, window, kw in cases:
            assert scan_roots(f, window, **kw) == reference_scan(f, window, **kw)

    def test_origin_zero_excluded(self, worked_star):
        roots, _ = scan_roots(worked_star, (0.0, 1.0))
        assert all(r > 1e-9 for r in roots)

    def test_too_coarse_step_rejected(self):
        f = normalize(10.0, 0.0, [])
        with pytest.raises(ValueError, match="too coarse"):
            scan_roots(f, (0.0, 5.0), scan_step=1.0)

    def test_bad_window_rejected(self):
        f = normalize(1.0, 0.0, [])
        with pytest.raises(ValueError):
            scan_roots(f, (5.0, 5.0))
        with pytest.raises(ValueError):
            scan_roots(f, (-1.0, 5.0))

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
