import math
import random
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from qgspectra import solver, trig
from qgspectra import (
    INTERIOR,
    SEPARATOR_COINCIDENCE,
    Derivatives,
    RefinementStall,
    RootEntry,
    RootTable,
    SeparatorFailure,
    SolverConfig,
    TrigSpectralFunction,
    build_ladder,
    descend_level,
    load_graph_spec,
    normalize,
    random_chain,
    random_star,
    regular_separators,
    scan_roots,
    solve_ladder,
)


SPECS_DIR = Path(__file__).resolve().parents[1] / "specs"


def pure_cosine(s0=2.0, gamma0=0.0):
    return normalize(s0, gamma0, [])


def wide_sum(seed=5):
    """32 terms below s0 = 10 with amplitude sum 8: a ladder several levels deep."""
    rng = random.Random(seed)
    raw = [(rng.uniform(0.0, 9.0), rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0))
           for _ in range(32)]
    scale = 8.0 / sum(abs(a) for _, _, a in raw)
    return normalize(10.0, rng.uniform(0.0, 2.0), [(s, g, a * scale) for s, g, a in raw])


def integrated(f):
    """The function whose level 1 is ``f``: phases up half a turn, amplitudes
    times s0/s."""
    return normalize(f.s0, f.gamma0 + 0.5,
                     [(t.s, t.gamma + 0.5, t.a * f.s0 / t.s) for t in f.terms])


def dropped(table, *rows):
    keep = np.ones(len(table), dtype=bool)
    keep[list(rows)] = False
    return RootTable(table.level, table.ks[keep], table.coincident[keep])


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig(k_max=10.0)
        # The root tolerance is a constant too, read through the class.
        assert cfg.root_tol == SolverConfig.root_tol == trig.ROOT_TOL == 1e-12
        # The coincidence threshold is a constant, read through the config.
        assert cfg.coincidence_tol == trig.COINCIDENCE_TOL == 1e-10
        # The ladder's depth is no setting: build_ladder caps it.
        assert not hasattr(cfg, "max_order")

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(k_max=0.0)
        # A window that ends at or below ROOT_TOL, where every window
        # starts, is refused by name.
        with pytest.raises(ValueError, match=r"^k_max must exceed ROOT_TOL = 1e-12, got 1e-13$"):
            SolverConfig(k_max=1e-13)
        # Neither tolerance nor the ladder's depth is a setting.
        with pytest.raises(TypeError):
            SolverConfig(k_max=1.0, root_tol=1e-9)
        with pytest.raises(TypeError):
            SolverConfig(k_max=1.0, coincidence_tol=1e-4)
        with pytest.raises(TypeError):
            SolverConfig(k_max=10.0, max_order=8)

    @pytest.mark.parametrize("key", ["k_max", "coincidence_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, key, value):
        # k_max is checked; coincidence_tol is refused whatever its value.
        error, match = ((TypeError, "unexpected keyword argument 'coincidence_tol'")
                        if key == "coincidence_tol" else
                        (ValueError, f"{key} must be positive and finite"))
        with pytest.raises(error, match=match):
            SolverConfig(**{"k_max": 10.0, key: value})


class TestRootTable:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="strictly increase"):
            RootTable(0, [2.0, 1.0], [False, False])
        with pytest.raises(ValueError, match="strictly increase"):
            RootTable(0, [1.0, 1.0], [False, False])

    def test_rejects_nan(self):
        for ks in ([1.0, math.nan, 3.0], [math.nan], [1.0, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                RootTable(0, ks, [False] * len(ks))

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError, match="one length"):
            RootTable(0, [1.0, 2.0], [False])
        with pytest.raises(ValueError, match="1-d"):
            RootTable(0, [[1.0, 2.0]], [[False, False]])

    def test_columns_are_read_only(self):
        ks = np.array([1.0, 2.0])
        t = RootTable(0, ks, [False, True])
        assert t.ks.dtype == np.float64 and t.coincident.dtype == np.bool_
        for col in (t.ks, t.coincident):
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 0
        # The table holds its own copy; the caller's array stays writable.
        ks[0] = 0.5
        assert t.ks[0] == 1.0

    def test_rows_are_built_on_demand(self):
        t = RootTable(0, [1.0, 2.0, 3.0], [False, True, False])
        assert len(t) == 3
        assert t[-1] == RootEntry(3, 3.0, INTERIOR)
        assert t[1] == RootEntry(2, 2.0, SEPARATOR_COINCIDENCE)
        rows = list(t)
        assert [e.n for e in rows] == [1, 2, 3]
        assert [e.kind for e in rows] == [INTERIOR, SEPARATOR_COINCIDENCE, INTERIOR]
        for e in rows + [t[0], t[-3]]:
            assert type(e.n) is int and type(e.k) is float
        assert repr(t[0]) == "RootEntry(n=1, k=1.0, kind='interior')"
        for i in (3, -4):
            with pytest.raises(IndexError):
                t[i]

    def test_no_elementwise_equality(self):
        a = RootTable(0, [1.0, 2.0], [False, False])
        b = RootTable(0, [1.0, 2.0], [False, False])
        assert a == a and a != b


class TestSeparators:
    def test_extrema_positions(self):
        f = normalize(19.0, 0.3, [(5.0, 0.0, 0.2)])
        seps = regular_separators(f, 1.0)
        expected = [(0.3 + n) * math.pi / 19.0 for n in range(7)]
        expected = [k for k in expected if 0.0 < k <= 1.0]
        assert seps == pytest.approx(expected, abs=1e-15)

    def test_zero_phase_starts_past_origin(self):
        f = pure_cosine(2.0, 0.0)
        seps = regular_separators(f, 10.0)
        assert seps[0] == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert all(k > 0.0 for k in seps)

    def test_matches_scalar_formula(self):
        cases = [
            # Derivative levels shift the phase by -1/2 per level.
            (TrigSpectralFunction(3.0, -2.75), 10.0),  # negative gamma0
            (TrigSpectralFunction(2.0, -3.0), 10.0),  # gamma0 + n == 0 at n = 3
            (normalize(2.0, 1.0, []), 10.0),  # gamma0 + n == 0 at n = -1
            (normalize(5.0, 0.4, []), 0.1),  # below the first separator
            (normalize(4.0, 0.5, []), 7.5 * math.pi / 4.0),  # k_max on a separator
        ]
        for f, k_max in cases:
            spacing = math.pi / f.s0
            expected = [(f.gamma0 + n) * spacing for n in range(-5, 100)]
            expected = [k for k in expected if 0.0 < k <= k_max]
            assert regular_separators(f, k_max).tolist() == expected
        assert regular_separators(*cases[3]).size == 0
        assert regular_separators(*cases[4])[-1] == cases[4][1]

    def test_refuses_irregular(self, worked_star):
        with pytest.raises(ValueError, match="regularity"):
            regular_separators(worked_star, 10.0)

    def test_alternating_signs_at_separators(self):
        f = normalize(7.0, 0.125, [(3.0, 0.25, 0.4), (1.0, 1.5, 0.3)])
        seps = regular_separators(f, 20.0)
        vals = Derivatives(f).g(seps).tolist()
        assert all(abs(v) >= 1.0 - 0.7 - 1e-12 for v in vals)
        assert all(a * b < 0.0 for a, b in zip(vals, vals[1:]))


class TestSolveLadder:
    def test_pure_cosine_spectrum(self):
        f = pure_cosine(2.0)
        sol = solve_ladder(f, SolverConfig(k_max=10.0))
        expected = [(2 * n + 1) * math.pi / 4.0 for n in range(7)]
        expected = [k for k in expected if k <= 10.0]
        assert sol.spectrum.ks == pytest.approx(expected, abs=1e-12)
        assert sol.ladder.order == 0
        assert all(e.kind == INTERIOR for e in sol.spectrum)

    def test_eigenvalues_are_squares(self):
        sol = solve_ladder(pure_cosine(2.0), SolverConfig(k_max=5.0))
        assert list(sol.eigenvalues) == pytest.approx(
            [k * k for k in sol.spectrum.ks], abs=1e-12
        )

    def test_worked_star_coincidences_at_multiples_of_pi(self, worked_star):
        sol = solve_ladder(worked_star, SolverConfig(k_max=10.0))
        coinc = [e.k for e in sol.spectrum if e.kind == SEPARATOR_COINCIDENCE]
        assert coinc == pytest.approx([math.pi, 2 * math.pi, 3 * math.pi], abs=1e-10)

    def test_worked_star_tables_all_levels(self, worked_star):
        sol = solve_ladder(worked_star, SolverConfig(k_max=5.0))
        assert sol.ladder.order == 1
        assert sol.table(1).level == 1
        assert sol.table(0).level == 0
        assert sol.spectrum is sol.table(0)
        # level-1 roots act as separators: every level-0 root lies in the
        # closed span of its neighbors
        upper = sol.table(1).ks.tolist()
        for e in sol.spectrum:
            assert any(
                a - 1e-9 <= e.k <= b + 1e-9 for a, b in zip([0.0] + upper, upper + [5.0])
            )

    def test_kmax_exactly_on_root(self):
        f = pure_cosine(2.0)
        edge = math.pi / 4.0
        sol = solve_ladder(f, SolverConfig(k_max=edge))
        assert len(sol.spectrum) == 1
        assert sol.spectrum[0].k == edge
        assert sol.spectrum[0].kind == INTERIOR

    def test_root_tol_must_resolve_separator_spacing(self):
        # pi/s0 = 1.57e-12 is less than 2*ROOT_TOL: the message names s0,
        # which comes from the file, not the tolerance, which is fixed.
        with pytest.raises(ValueError, match=r"^s0 = 2000000000000\.0 is too large: the "
                           r"separator spacing pi/s0 = 1\.57\d*e-12 must exceed twice the root "
                           r"tolerance, 2e-12$"):
            solve_ladder(pure_cosine(2.0e12), SolverConfig(k_max=1.0))

    def test_root_tol_must_fit_twice_in_the_spacing(self):
        # A ROOT_TOL in (pi/(2*s0), pi/s0) would place each root no better
        # than its separators already do.  The bound is pi/(2*ROOT_TOL) =
        # 1.57e12: just above it is refused, just below it solves.
        with pytest.raises(ValueError, match=r"pi/s0 = 1\.96"):
            solve_ladder(pure_cosine(1.6e12), SolverConfig(k_max=1e-10))
        sol = solve_ladder(pure_cosine(1.5e12, 0.5), SolverConfig(k_max=1e-10))
        assert len(sol.spectrum) == 47

    def test_narrow_bracket_keeps_its_root(self, monkeypatch):
        # With ROOT_TOL at 0.7 the first bracket, (0.7, pi/2], is not wider
        # than 2*ROOT_TOL; its root pi/4 is kept as the bracket's midpoint,
        # within ROOT_TOL.
        monkeypatch.setattr(solver, "ROOT_TOL", 0.7)
        ks = solve_ladder(pure_cosine(2.0), SolverConfig(k_max=10.0)).spectrum.ks
        expected = [(2 * n + 1) * math.pi / 4.0 for n in range(6)]
        assert len(ks) == 6
        assert ks[0] == 0.5 * (0.7 + math.pi / 2.0)
        assert np.all(np.abs(ks - expected) <= 0.7)

    def test_trivial_zero_at_origin_excluded(self, worked_star):
        # Star functions vanish identically at k = 0; the leading stub
        # must not report a root there.
        sol = solve_ladder(worked_star, SolverConfig(k_max=1.0))
        assert all(e.k > 1e-6 for e in sol.spectrum)
        assert abs(Derivatives(worked_star).g(0.0)) < 1e-14

    def test_pure_cosine_at_large_k(self):
        # Near k = 1e4 an ulp is 1.8e-12, so every root must come out as the
        # double nearest the exact (2n+1)*pi/(2*s0).
        s0, cfg = 2.0, SolverConfig(k_max=1e4)
        sol = solve_ladder(pure_cosine(s0), cfg)
        with localcontext() as ctx:
            ctx.prec = 40
            pi = Decimal("3.141592653589793238462643383279502884197")
            exact = [(2 * n + 1) * pi / (2 * Decimal(s0)) for n in range(6367)]
        expected = [float(k) for k in exact if k <= Decimal(cfg.k_max)]
        assert len(sol.spectrum) == len(expected) == 6366
        assert max(abs(k - e) for k, e in zip(sol.spectrum.ks, expected)) <= cfg.root_tol

    def test_worked_star_at_large_k_matches_scan(self, worked_star):
        cfg = SolverConfig(k_max=2000.0)
        sol = solve_ladder(worked_star, cfg)
        scan, _ = scan_roots(worked_star, (0.0, cfg.k_max))
        assert len(sol.spectrum) == len(scan) == 11459
        assert max(abs(k - s) for k, s in zip(sol.spectrum.ks, scan)) <= 1e-9
        coinc = [e.k for e in sol.spectrum if e.kind == SEPARATOR_COINCIDENCE]
        assert coinc == pytest.approx([n * math.pi for n in range(1, 637)], abs=1e-9)

    def test_deterministic_across_runs(self, worked_star):
        a = solve_ladder(worked_star, SolverConfig(k_max=20.0))
        b = solve_ladder(worked_star, SolverConfig(k_max=20.0))
        assert np.array_equal(a.spectrum.ks, b.spectrum.ks)

    def test_table_level_out_of_range(self, worked_star):
        sol = solve_ladder(worked_star, SolverConfig(k_max=5.0))
        assert sol.ladder.order == 1
        for level in (2, -1):
            with pytest.raises(ValueError, match=r"0\.\.1"):
                sol.table(level)


class TestDescend:
    def test_missing_separators_trip_the_probes(self):
        # An empty upper table leaves one huge interval holding many
        # roots; the interior probes must refuse to continue.
        f = pure_cosine(2.0)
        cfg = SolverConfig(k_max=10.0)
        with pytest.raises(SeparatorFailure) as exc_info:
            descend_level(f, RootTable(1, [], []), cfg)
        assert exc_info.value.interval == (cfg.root_tol, 10.0)
        assert exc_info.value.level == 0

    def test_iteration_cap_raises_refinement_stall(self, worked_star, monkeypatch):
        # Between the extrema of a pure cosine the arc start is already the
        # root, so the input must have terms.
        monkeypatch.setattr(trig, "_MAX_ITER", 1)
        with pytest.raises(RefinementStall, match="refinement stall"):
            solve_ladder(worked_star, SolverConfig(k_max=10.0))

    def test_certified_halley_takes_three_then_two_evaluations(self, worked_star, monkeypatch):
        # From the arc start, nearly every bracket is certified after three
        # evaluations on the regular level 1 and after two on level 0.
        # Newton's method (g'' zeroed) needs more evaluations.
        def calls(newton):
            levels = []

            class Counting(solver.Derivatives):
                def __init__(self, f):
                    super().__init__(f)
                    self.sizes = []
                    levels.append(self.sizes)

                def __call__(self, x, p=0):
                    self.sizes.append(x.size)
                    g, dg, d2g = super().__call__(x, p)
                    return g, dg, 0.0 * d2g if newton else d2g

            monkeypatch.setattr(solver, "Derivatives", Counting)
            # Every bracket of the window, so the direct pipeline, not the tiling.
            sol = solver._solve_direct(build_ladder(worked_star), SolverConfig(k_max=200.0))
            # The first call of each level takes every bracket.
            assert [sizes[0] for sizes in levels] == [int((~t.coincident).sum())
                                                      for t in sol.tables]
            return levels

        halley = calls(False)
        assert halley == [[1209, 1146, 1018], [1082, 1018]]
        newton = calls(True)
        assert sum(map(len, newton)) > sum(map(len, halley))
        assert sum(map(sum, newton)) > sum(map(sum, halley))

    def test_coincidence_recorded_once(self, worked_star):
        sol = solve_ladder(worked_star, SolverConfig(k_max=4.0))
        near_pi = [e for e in sol.spectrum if abs(e.k - math.pi) < 1e-6]
        assert len(near_pi) == 1
        assert near_pi[0].kind == SEPARATOR_COINCIDENCE


def test_one_derivatives_per_sweep_level_and_per_scan(monkeypatch, worked_star):
    # Each level's evaluator and rounding bounds are built once and shared
    # by its sweep, refinement, certified stop and count check.
    built = []
    init = trig.Derivatives.__init__

    def counting(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(trig.Derivatives, "__init__", counting)
    for f, order in ((worked_star, 1), (pure_cosine(), 0)):
        built.clear()
        sol = solve_ladder(f, SolverConfig(k_max=50.0))
        assert sol.ladder.order == order
        assert built == list(reversed(sol.ladder.levels))
        built.clear()
        scan_roots(f, (0.0, 50.0))
        assert built == [f]


def test_every_value_decision_asks_near_zero(monkeypatch, worked_star):
    # The sweep's coincidences and window edges, its Rolle read on a
    # descent, the count's window-end ranks and the oracle's tangent test
    # are all judged by Derivatives.near_zero, at the one threshold.
    calls = []
    near_zero = trig.Derivatives.near_zero

    def recording(self, v, tol=trig.COINCIDENCE_TOL, level=0, x=None):
        assert tol == trig.COINCIDENCE_TOL
        calls.append((sys._getframe(1).f_code.co_name, v.size, level, x is not None))
        return near_zero(self, v, tol, level, x)

    monkeypatch.setattr(trig.Derivatives, "near_zero", recording)
    # Within two periods of both functions, where solve_ladder takes the
    # direct pipeline; a tiled solve sweeps only its head window.
    k_max = 6.0
    sol = solve_ladder(worked_star, SolverConfig(k_max=k_max))
    seps = regular_separators(sol.ladder.top, k_max).size + 2
    pts = len(sol.table(1)) + 2
    assert calls == [("_sweep", seps, 0, False), ("_check_count", 2, 1, False),
                     ("_sweep", pts, 0, False), ("_sweep", pts - 1, 0, False)]
    calls.clear()
    f = pure_cosine()
    solve_ladder(f, SolverConfig(k_max=k_max))
    seps = regular_separators(f, k_max).size + 2
    assert calls == [("_sweep", seps, 0, False), ("_check_count", 2, 0, False)]
    calls.clear()
    scan_roots(worked_star, (0.0, k_max))
    assert [(name, level, x) for name, _, level, x in calls] == [("_scan", 0, True)]
    assert calls[0][1] > 0


def test_each_level_derived_once(monkeypatch, worked_star):
    # build_ladder derives levels 1..M; the descent reads whether the level
    # above is regular from its own Derivatives, not from a second copy.
    calls = []
    derive = trig.derivative_level

    def counting(f, m):
        calls.append(m)
        return derive(f, m)

    for module in (trig, solver):
        monkeypatch.setattr(module, "derivative_level", counting, raising=False)
    for f in (worked_star, wide_sum(), pure_cosine()):
        calls.clear()
        sol = solve_ladder(f, SolverConfig(k_max=30.0))
        assert calls == [1] * sol.ladder.order


class TestCertifiedStop:
    """The Taylor-model stop of the refinement, and the step rule behind it."""

    def test_every_root_has_a_sign_change_within_its_tolerance(self):
        # At 40 digits, on the same float coefficients, g must change sign
        # across [k - tol, k + tol] at every simple root of every level.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(15)
        cases = [(random_star(rng), 300.0), (random_chain(rng), 300.0),
                 (random_star(rng), 60.0), (random_chain(rng), 60.0), (wide_sum(), 12.0)]
        eps = np.finfo(float).eps
        checked = 0
        with mpmath.workdps(40):
            for f, k_max in cases:
                cfg = SolverConfig(k_max=k_max)
                sol = solve_ladder(f, cfg)
                for table, level in zip(sol.tables, reversed(sol.ladder.levels)):
                    rows = [(mpmath.mpf(s), mpmath.pi * gamma, mpmath.mpf(a)) for s, gamma, a in
                            [(level.s0, level.gamma0, -1.0)] + [tuple(t) for t in level.terms]]

                    def g(x):
                        return -mpmath.fsum(a * mpmath.cos(s * x - pg) for s, pg, a in rows)

                    for k in table.ks[~table.coincident].tolist():
                        tol = mpmath.mpf(cfg.root_tol + 4.0 * eps * k)
                        assert g(k - tol) * g(k + tol) < 0, (f, table.level, k)
                        checked += 1
        assert checked > 5000

    def test_large_window_finishes_through_the_step_rule(self, worked_star, monkeypatch):
        # Once 4*eps*k dominates the tolerance, the rounding bound grows as
        # fast, and the certificate needs |g'| at the root to clear about
        # B_1/6.  Some level-1 roots near k = 7.5e4, where |g'| = 134/19,
        # miss it and are ended by the step rule.  Every level keeps the
        # counts the solver gave before the certificate existed.
        refine = solver.refine_roots
        fired = []

        def counting(*args):
            roots, certified = refine(*args)
            fired.append(int(certified.sum()))
            return roots, certified

        monkeypatch.setattr(solver, "refine_roots", counting)
        # solve_ladder tiles this window from its first periods, so the
        # direct pipeline is what reaches k = 7.5e4.
        cfg = SolverConfig(k_max=1e5)
        sol = solver._solve_direct(build_ladder(worked_star), cfg)
        assert [len(t) for t in sol.tables] == [604788, 572957]
        assert [int(t.coincident.sum()) for t in sol.tables] == [0, 31830]
        brackets = sum(int((~t.coincident).sum()) for t in sol.tables)
        assert 0 < sum(fired) < brackets
        tiled = solve_ladder(worked_star, cfg)
        assert [len(t) for t in tiled.tables] == [604788, 572957]
        assert [int(t.coincident.sum()) for t in tiled.tables] == [0, 31830]


class TestTiling:
    """A commensurate window longer than two periods is tiled from a head
    window of about three, and agrees with the direct pipeline."""

    @staticmethod
    def assert_tiles_the_direct_solve(f, k_max):
        cfg = SolverConfig(k_max=k_max)
        tiled = solve_ladder(f, cfg)
        direct = solver._solve_direct(build_ladder(f), cfg)
        assert len(tiled.tables) == len(direct.tables)
        for t, d in zip(tiled.tables, direct.tables):
            assert t.level == d.level and len(t) == len(d)
            assert np.array_equal(t.coincident, d.coincident)
            assert np.all(np.abs(t.ks - d.ks) <= cfg.root_tol + 4.0 * np.finfo(float).eps * d.ks)
        # Not the direct tables over again: the tail is made of images.
        assert not np.array_equal(tiled.spectrum.ks, direct.spectrum.ks)
        return tiled

    @pytest.mark.parametrize("k_max", [200.0, 1e4])
    @pytest.mark.parametrize("name", ["worked-star", "worked-chain"])
    def test_worked_networks(self, name, k_max, worked_star, worked_chain):
        f = {"worked-star": worked_star, "worked-chain": worked_chain}[name]
        sol = self.assert_tiles_the_direct_solve(f, k_max)
        if name == "worked-star":
            # The double roots at every multiple of pi, images included.
            ks = sol.spectrum.ks[sol.spectrum.coincident]
            assert ks == pytest.approx(math.pi * np.arange(1, ks.size + 1), abs=1e-9)
            assert ks.size == int(k_max / math.pi)

    def test_coincidences_at_two_levels(self, worked_star):
        sol = self.assert_tiles_the_direct_solve(integrated(worked_star), 200.0)
        assert sol.ladder.order == 2
        assert [int(t.coincident.sum()) for t in sol.tables] == [0, 63, 63]

    def test_sunk_tangency_star(self, shifted_star):
        # Each near-double root is taken for a coincidence in the head, as
        # in the direct solve, and imaged as one.
        sol = self.assert_tiles_the_direct_solve(shifted_star(1e-11), 200.0)
        assert int(sol.spectrum.coincident.sum()) == 63

    @pytest.mark.parametrize("k_max", [72.0, 116.0, 300.0])
    def test_sixteen_levels(self, k_max):
        # Three terms at action 9 with amplitudes up to 3: regular only at
        # level 16.  Each level is cut below the one above it, so each
        # must image its own period far enough to reach the window end.
        f = normalize(10.0, 0.85, [(9.0, 0.16, 0.45), (9.0, 0.75, -3.0), (9.0, 1.4, 1.9),
                                   (2.0, 1.4, -0.4), (0.0, 0.7, -0.3)])
        sol = self.assert_tiles_the_direct_solve(f, k_max)
        assert sol.ladder.order == 16

    @pytest.mark.parametrize("name", ["worked-star", "integrated-star", "worked-chain"])
    def test_tables_do_not_depend_on_the_window_end(self, name, worked_star, worked_chain):
        # On either side of 2*P, direct or tiled, every level below the
        # window end's bracket is bitwise the same as in a long window.
        f = {"worked-star": worked_star, "integrated-star": integrated(worked_star),
             "worked-chain": worked_chain}[name]
        full = solve_ladder(f, SolverConfig(k_max=50.0))
        for k_max in np.linspace(math.pi, 8.0 * math.pi, 57)[1:]:
            sol = solve_ladder(f, SolverConfig(k_max=float(k_max)))
            for part, whole in zip(sol.tables, full.tables):
                assert np.array_equal(part.ks[:-1], whole.ks[:len(part) - 1])
                assert np.array_equal(part.coincident[:-1], whole.coincident[:len(part) - 1])
                assert abs(len(part) - int(np.sum(whole.ks <= k_max))) <= 1

    def test_images_round_once(self):
        # Rounding once from the exact sum: every image of pi/4 is within
        # half an ulp, plus the head root's own rounding, of (4q + 1)*pi/4.
        f = pure_cosine(2.0)
        per = trig.period(f)
        head = np.array([math.pi / 4.0])
        images = per.images(head, 1, 100000)
        with localcontext() as ctx:
            ctx.prec = 40
            pi = Decimal("3.141592653589793238462643383279502884197")
            exact = [(4 * q + 1) * pi / 4 for q in range(1, 100000)]
        err = np.array([float(Decimal(k) - e) for k, e in zip(images.tolist(), exact)])
        assert np.all(np.abs(err) <= 0.5 * np.spacing(images) + 1e-16)

    @pytest.mark.parametrize("level, terms", [(0, [(0.0, 0.0, -1.5)]), (1, [(1.0, 1.625, 2.5)])])
    def test_a_level_too_sparse_to_cut_is_solved_directly(self, level, terms):
        # cos(2k) + 1.5 has no real root, and level 1 of the second sum has
        # only half its roots on the real line and none below its lower
        # period in the head.  Neither leaves a boundary to cut the level
        # below on, so the direct pipeline answers, bitwise.
        f = normalize(2.0, 0.0, terms)
        cfg = SolverConfig(k_max=50.0)
        sol = solve_ladder(f, cfg)
        direct = solver._solve_direct(build_ladder(f), cfg)
        per = trig.period(f)
        assert len(sol.table(level)) < 0.6 * per.roots * cfg.k_max / per.hi
        for t, d in zip(sol.tables, direct.tables):
            assert np.array_equal(t.ks, d.ks) and np.array_equal(t.coincident, d.coincident)


class TestSeparatorChecks:
    """An incomplete table of the level above is refused, not descended."""

    @pytest.mark.parametrize("name", ["worked-star", "random-star", "wide-sum"])
    def test_any_dropped_interior_root_is_caught(self, name, worked_star):
        f = {"worked-star": worked_star, "random-star": random_star(random.Random(3)),
             "wide-sum": wide_sum()}[name]
        cfg = SolverConfig(k_max=50.0)
        sol = solve_ladder(f, cfg)
        assert sol.ladder.order >= (4 if name == "wide-sum" else 1)
        for m in range(1, sol.ladder.order + 1):
            upper = sol.table(m)
            for i in range(1, len(upper) - 1):
                with pytest.raises(SeparatorFailure) as exc_info:
                    descend_level(sol.ladder[m - 1], dropped(upper, i), cfg)
                lo, hi = exc_info.value.interval
                assert exc_info.value.level == m - 1 and lo < upper.ks[i] < hi

    def test_rolle_failure_names_the_level_values(self):
        f = wide_sum()
        cfg = SolverConfig(k_max=50.0)
        sol = solve_ladder(f, cfg)
        with pytest.raises(SeparatorFailure, match="Rolle") as exc_info:
            descend_level(sol.ladder[0], dropped(sol.table(1), 50), cfg)
        failure = exc_info.value
        assert failure.values == tuple(Derivatives(sol.ladder[0]).g(failure.interval))
        assert repr(failure.values[0]) in str(failure)

    def test_regular_count_catches_one_or_two_drops(self, worked_star):
        rng = random.Random(1)
        for f in (worked_star, integrated(worked_star)):
            cfg = SolverConfig(k_max=20.0)
            sol = solve_ladder(f, cfg)
            order = sol.ladder.order
            upper = sol.table(order)
            n = len(upper)
            drops = [(i,) for i in range(n)] + [(i, i + 1) for i in range(n - 1)]
            drops += [tuple(rng.sample(range(n), 2)) for _ in range(50)]
            for rows in drops:
                with pytest.raises(SeparatorFailure, match="separators give") as exc_info:
                    descend_level(sol.ladder[order - 1], dropped(upper, *rows), cfg)
                assert exc_info.value.interval == (cfg.root_tol, cfg.k_max)
                assert exc_info.value.level == order - 1

    @pytest.mark.parametrize("keep", [slice(None, None, 2), slice(0, 0)])
    @pytest.mark.parametrize("spec, order", [("trig.yaml", 0), ("star.yaml", 1)])
    def test_regular_count_runs_at_every_order(self, monkeypatch, spec, order, keep):
        # With every other separator, or none, the regular level loses
        # roots.  The count refuses that table whether a descent follows
        # (M = 1) or not (M = 0).
        loaded = load_graph_spec(str(SPECS_DIR / spec))
        separators = solver.regular_separators
        monkeypatch.setattr(solver, "regular_separators",
                            lambda f, k_max: separators(f, k_max)[keep])
        with pytest.raises(SeparatorFailure, match="separators give") as exc_info:
            solve_ladder(loaded.function, SolverConfig(**loaded.solver_overrides))
        assert exc_info.value.level == order - 1

    def test_window_end_on_or_beside_a_root(self, worked_star):
        # The count's end decisions follow the sweep's edge rules, so a
        # window ending on a level-1 root, or an ulp either side, solves.
        full = solve_ladder(worked_star, SolverConfig(k_max=50.0))
        for k in full.table(1).ks[::7]:
            for k_max in (np.nextafter(k, 0.0), k, np.nextafter(k, np.inf)):
                sol = solve_ladder(worked_star, SolverConfig(k_max=float(k_max)))
                below = full.table(1).ks[full.table(1).ks < k]
                assert np.array_equal(sol.table(1).ks[:below.size], below)
                assert len(sol.table(1)) - below.size in (0, 1)

    @pytest.mark.parametrize("eps", [3e-10, 5e-10, 1e-9])
    def test_close_upper_roots_are_not_read(self, worked_star, eps):
        # Lowering the worked star by eps*cos(1e-4*k) splits each double
        # root into two simple ones a few 1e-6 apart.  Taken as level 1,
        # level 0 changes across such a pair by less than its rounding, so
        # the Rolle check must skip that difference rather than read it.
        split = normalize(worked_star.s0, worked_star.gamma0,
                          list(worked_star.terms) + [(1e-4, 0.0, eps)])
        sol = solve_ladder(integrated(split), SolverConfig(k_max=100.0))
        assert [len(t) for t in sol.tables] == [604, 573, 285]
        assert not any(t.coincident.any() for t in sol.tables)
        assert np.diff(sol.table(1).ks).min() < 1e-5

    def test_second_order_star(self, worked_star):
        # One level above the worked star: regular at level 2, with the
        # worked star's double roots as coincidences at levels 1 and 0.
        sol = solve_ladder(integrated(worked_star), SolverConfig(k_max=60.0))
        assert sol.ladder.order == 2
        assert [len(t) for t in sol.tables] == [363, 343, 171]
        assert [int(t.coincident.sum()) for t in sol.tables] == [0, 19, 19]


class TestNearZeroDecisions:
    """Known defects of the bare magnitude threshold, pinned until it is certified.

    The shift is a tenth of the default ``coincidence_tol``, so the
    solver takes the tangency at pi for a double root whichever its sign,
    and the lower-edge test drops a real root near the origin.  At a
    window end within rounding of a root, the solver's edge test and the
    oracle's sign disagree.
    """

    @pytest.mark.xfail(strict=True, reason="a near-tangency below the threshold is "
                       "reported as one double root")
    def test_sunk_tangency_gives_two_simple_roots(self, shifted_star):
        # g(pi) = -1e-11: two simple roots straddle pi, about 8e-7 apart.
        table = solve_ladder(shifted_star(1e-11), SolverConfig(k_max=4.0)).spectrum
        assert np.sum(np.abs(table.ks - math.pi) < 1e-3) == 2
        assert not table.coincident.any()

    @pytest.mark.xfail(strict=True, reason="a dip that stays above zero is reported "
                       "as a double root")
    def test_lifted_tangency_gives_no_root(self, shifted_star):
        # g(pi) = +1e-11 at the bottom of a dip: no real root near pi.
        table = solve_ladder(shifted_star(-1e-11), SolverConfig(k_max=4.0)).spectrum
        assert not np.any(np.abs(table.ks - math.pi) < 1e-3)

    @pytest.mark.xfail(strict=True, reason="the lower-edge test drops a root near k = 0")
    def test_root_near_the_origin_is_kept(self, shifted_star):
        # g(0) = +1e-11 and g falls off as k**2, crossing zero at 3.86e-7.
        table = solve_ladder(shifted_star(-1e-11), SolverConfig(k_max=4.0)).spectrum
        assert table.ks[0] == pytest.approx(3.86e-7, rel=1e-2)

    @pytest.mark.xfail(strict=True, reason="a window end within rounding of a root "
                       "counts as a root in the solver and not in the scan")
    def test_window_end_within_rounding_of_a_root(self):
        # sin k: float(10*pi) lies 1.2e-15 below 10*pi, where g computes
        # to -2.9e-15, inside err_0 = 5.3e-15; neither answer is certain.
        f = normalize(1.0, 0.5, [])
        k_max = 10.0 * math.pi
        roots, _ = scan_roots(f, (0.0, k_max))
        assert len(solve_ladder(f, SolverConfig(k_max=k_max)).spectrum) == len(roots)
