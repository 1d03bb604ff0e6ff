import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgspectra import trig
from qgspectra import (
    NormalizeError,
    OrderCapError,
    Term,
    TrigSpectralFunction,
    Derivatives,
    build_ladder,
    derivative_level,
    is_regular,
    load_graph_spec,
    normalize,
    random_chain,
    random_star,
    regularity_sum,
)

# Phases on a dyadic grid compose exactly under the ladder's
# half-per-level shift, so structural identities can be asserted bitwise.
dyadic_phases = st.integers(min_value=-16, max_value=31).map(lambda n: n / 8.0)
amplitudes = st.floats(min_value=-0.9, max_value=0.9).filter(lambda a: abs(a) > 1e-6)


ROOT = Path(__file__).resolve().parents[1]
TWO_PI = 2 * Fraction(Decimal("3.14159265358979323846264338327950288419716939937510"))


def make_fn(s0=19.0, gamma0=0.0, terms=((17.0, 0.0, 0.6), (5.0, 0.5, -0.3))):
    return normalize(s0, gamma0, list(terms))


class TestNormalize:
    def test_identity_passthrough(self):
        f = normalize(19.0, 0.25, [(17.0, 0.5, 0.75), (5.0, 0.0, 0.5)])
        assert f.s0 == 19.0
        assert f.gamma0 == 0.25
        assert [(t.s, t.gamma, t.a) for t in f.terms] == [
            (17.0, 0.5, 0.75),
            (5.0, 0.0, 0.5),
        ]

    def test_negative_action_reflected(self):
        f = normalize(19.0, 0.0, [(-3.0, 0.25, -0.25)])
        g = normalize(19.0, 0.0, [(3.0, -0.25, -0.25)])
        assert f.terms == g.terms
        (t,) = f.terms
        assert t.s == 3.0
        assert t.gamma == 1.75
        assert t.a == -0.25

    def test_phases_canonical(self):
        f = normalize(2.0, -3.25, [(1.0, 7.5, 0.2), (0.5, -2.0, 0.3)])
        assert 0.0 <= f.gamma0 < 2.0
        for t in f.terms:
            assert 0.0 <= t.gamma < 2.0
        assert f.gamma0 == 0.75

    def test_duplicate_terms_merge(self):
        f = normalize(10.0, 0.0, [(4.0, 0.5, 0.2), (4.0, 0.5, 0.3), (2.0, 0.0, 0.1)])
        assert len(f.terms) == 2
        assert f.terms[0].a == 0.5

    def test_cancelled_term_dropped(self):
        f = normalize(10.0, 0.0, [(4.0, 0.5, 0.2), (4.0, 0.5, -0.2)])
        assert f.terms == ()

    def test_top_action_folds_into_leading(self):
        # cos(x - pi*g) with the same phase adds to the leading cosine:
        # (1 - a) cos(...) - rest, then everything divides by (1 - a).
        f = normalize(2.0, 0.5, [(2.0, 0.5, 0.25), (1.0, 0.0, 0.3)])
        assert f.s0 == 2.0
        (t,) = f.terms
        assert t.a == pytest.approx(0.3 / 0.75, abs=1e-15)

    def test_top_action_opposite_phase(self):
        # A phase off by exactly pi flips the sign of the contribution.
        f = normalize(2.0, 0.5, [(2.0, 1.5, 0.25), (1.0, 0.0, 0.3)])
        (t,) = f.terms
        assert t.a == pytest.approx(0.3 / 1.25, abs=1e-15)

    def test_unfoldable_top_action(self):
        with pytest.raises(NormalizeError, match="unfoldable"):
            normalize(2.0, 0.5, [(2.0, 0.25, 0.25), (1.0, 0.0, 0.3)])

    def test_degenerate_leading(self):
        with pytest.raises(NormalizeError, match="degenerate"):
            normalize(2.0, 0.5, [(2.0, 0.5, 1.0), (1.0, 0.0, 0.3)])

    def test_rescaling_after_fold(self):
        # Folding -0.5 into the lead makes it 1.5; amplitudes shrink by 1.5.
        f = normalize(2.0, 0.0, [(2.0, 0.0, -0.5), (1.0, 0.25, 0.6)])
        (t,) = f.terms
        assert t.a == pytest.approx(0.4, abs=1e-15)

    def test_action_exceeding_leading_rejected(self):
        with pytest.raises(NormalizeError):
            normalize(2.0, 0.0, [(3.0, 0.0, 0.1)])

    def test_nonpositive_leading_action_rejected(self):
        with pytest.raises(NormalizeError):
            normalize(0.0, 0.0, [])
        with pytest.raises(NormalizeError):
            normalize(-1.0, 0.0, [])

    def test_nonfinite_rejected(self):
        with pytest.raises(NormalizeError):
            normalize(2.0, 0.0, [(1.0, 0.0, math.nan)])
        with pytest.raises(NormalizeError):
            normalize(2.0, math.inf, [])

    @pytest.mark.parametrize("s0, gamma0, terms, message", [
        (0.0, 0.0, (), "leading action must be positive and finite"),
        (2.0, math.nan, (), "leading phase must be finite"),
        (2.0, 0.0, (Term(1.0, 0.0, math.nan),), "non-finite term"),
        (2.0, 0.0, (Term(-1.0, 0.0, 0.1),), "term action must be nonnegative"),
        (2.0, 0.0, (Term(3.0, 0.0, 0.1),), "term action 3.0 exceeds the leading action 2.0"),
    ])
    def test_direct_construction_refuses_invalid_fields(self, s0, gamma0, terms, message):
        with pytest.raises(ValueError, match=message):
            TrigSpectralFunction(s0, gamma0, terms)

    def test_terms_sorted_by_action(self):
        f = normalize(10.0, 0.0, [(2.0, 0.0, 0.1), (7.0, 0.0, 0.1), (4.0, 0.0, 0.1)])
        assert [t.s for t in f.terms] == [7.0, 4.0, 2.0]

    def test_frozen(self):
        f = make_fn()
        with pytest.raises(AttributeError):
            f.s0 = 5.0
        with pytest.raises(AttributeError):
            f.terms[0].a = 1.0


class TestEvaluation:
    def test_pure_cosine(self):
        g = Derivatives(normalize(2.0, 0.0, [])).g
        assert g(0.0) == 1.0
        assert g(math.pi) == pytest.approx(1.0, abs=1e-15)
        assert abs(g(math.pi / 4.0)) < 1e-15

    def test_phase_offset(self):
        # gamma0 = 1/2 turns the lead into sin(s0 k).
        g = Derivatives(normalize(3.0, 0.5, [])).g
        assert g(0.0) == pytest.approx(0.0, abs=1e-15)
        assert g(math.pi / 6.0) == pytest.approx(1.0, abs=1e-15)

    def test_term_subtraction(self):
        f = normalize(2.0, 0.0, [(1.0, 0.0, 0.5)])
        k = 0.37
        expected = math.cos(2.0 * k) - 0.5 * math.cos(k)
        assert Derivatives(f).g(k) == pytest.approx(expected, abs=1e-15)

    def test_grid_matches_pointwise(self):
        # Against scalar math.cos, term by term.  The kernel takes its
        # cosines from np.tan, so the two differ in the last bits; each is
        # within err(0, x) of the true sum, so they are within twice that.
        f = make_fn()
        d = Derivatives(f)
        xs = np.linspace(0.0, 30.0, 1500)
        grid = d.g(xs)
        pointwise = []
        for x in xs.tolist():
            acc = math.cos(f.s0 * x - math.pi * f.gamma0)
            for s, g, a in f.terms:
                acc -= a * math.cos(s * x - math.pi * g)
            pointwise.append(acc)
        assert (np.abs(grid - pointwise) <= 2.0 * d.err(0, xs)).all()


def kernel_cos(phases):
    """The kernel's cosine of each phase: through the tangent of half of it."""
    return trig._half_angle_cos(np.array(0.5 * np.asarray(phases, dtype=float)))


def reference_eval(f, ks):
    """The per-term loop the blocked kernel replaced, kept as the reference.

    The kernel folds the same products in the same order, with the same
    cosine, so its values must match these bit for bit.
    """
    ks = np.asarray(ks, dtype=float)
    acc = kernel_cos(f.s0 * ks - math.pi * f.gamma0)
    for s, g, a in f.terms:
        acc = acc - a * kernel_cos(s * ks - math.pi * g)
    return acc


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype == np.float64
    assert actual.tobytes() == expected.tobytes()


def wide_fn(n_terms, seed=3):
    rng = random.Random(seed)
    terms = [(rng.uniform(0.0, 9.0), rng.uniform(0.0, 2.0), rng.uniform(-0.3, 0.3))
             for _ in range(n_terms)]
    return normalize(10.0, rng.uniform(0.0, 2.0), terms)


# One function for each phase-matrix height T+1 = 1, 4 and 33.
KERNEL_FNS = {
    1: TrigSpectralFunction(3.0, 0.25),
    4: make_fn(terms=((17.0, 0.0, 0.6), (5.0, 0.5, -0.3), (0.0, 0.25, 0.1))),
    33: wide_fn(32),
}


class TestKernel:
    @pytest.mark.parametrize("ks", [
        np.empty(0), np.empty((0, 4)), np.array(2.5), 2.5, [0.1, 7.0],
        np.linspace(0.0, 40.0, 1001),
    ])
    def test_shapes_match_reference(self, ks):
        for f in KERNEL_FNS.values():
            assert_bitwise(Derivatives(f).g(ks), reference_eval(f, ks))

    def test_probe_shape(self):
        # A 2-d array of points, n intervals by 4 interior offsets, comes
        # back in its own shape and bitwise equal to the scalar reference.
        a = np.linspace(0.0, 50.0, 301)[:, None]
        nodes = a + np.array([0.236, 0.472, 0.618, 0.854]) * 0.17
        for f in KERNEL_FNS.values():
            assert_bitwise(Derivatives(f).g(nodes), reference_eval(f, nodes))

    @pytest.mark.parametrize("rows", sorted(KERNEL_FNS))
    def test_block_boundaries(self, rows):
        f = KERNEL_FNS[rows]
        assert f.n_terms + 1 == rows
        width = trig._BLOCK_ELEMENTS // rows
        for n in (width - 1, width, width + 1, 2 * width + 1):
            ks = np.linspace(0.0, 90.0, n)
            assert_bitwise(Derivatives(f).g(ks), reference_eval(f, ks))

    def test_derivative_levels_with_zero_amplitudes(self):
        # A constant term (s = 0) dies at level 1 but stays in the term
        # list with amplitude zero, of either sign.
        f = normalize(6.0, 0.5, [(0.0, 0.0, 0.2), (0.0, 1.0, -0.1), (4.0, 0.25, -0.3)])
        ks = np.linspace(0.0, 25.0, 777)
        for m in range(4):
            level = derivative_level(f, m)
            if m:
                assert [t.a for t in level.terms[-2:]] == [0.0, 0.0]
            assert_bitwise(Derivatives(level).g(ks), reference_eval(level, ks))

    def test_large_k(self):
        ks = 1e7 + np.linspace(-3.0, 3.0, 4001)
        for f in KERNEL_FNS.values():
            for m in range(3):
                level = derivative_level(f, m)
                assert_bitwise(Derivatives(level).g(ks), reference_eval(level, ks))

    def test_one_point_is_the_grid(self):
        f = KERNEL_FNS[33]
        for k in (0.0, 0.3, 17.25, 1e7 + 0.5):
            assert_bitwise(Derivatives(f).g(k), reference_eval(f, k))

    def test_blocks_bound_memory(self):
        # A (T+1) x N phase matrix for 2e5 points and 33 terms is 53 MB;
        # the blocked kernel holds only a few blocks of it at a time.
        f = KERNEL_FNS[33]
        ks = np.linspace(0.0, 1000.0, 200_000)
        tracemalloc.start()
        try:
            Derivatives(f).g(ks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestDerivatives:
    @pytest.mark.parametrize("rows", sorted(KERNEL_FNS))
    def test_value_and_slope_are_the_ladder_bitwise(self, rows):
        f = KERNEL_FNS[rows]
        # Around the boundary of one stacked (2(T+1)) x B block.
        width = trig._BLOCK_ELEMENTS // (2 * rows)
        for n in (0, 1, width - 1, width, width + 1):
            x = np.linspace(0.0, 60.0, n)
            d = Derivatives(f)
            g, dg, d2g = d(x)
            assert_bitwise(g, d.g(x))
            assert_bitwise(dg, f.s0 * Derivatives(derivative_level(f, 1)).g(x))
            assert_bitwise(d.g(x, 1), Derivatives(derivative_level(f, 1)).g(x))
            curvature = f.s0 ** 2 * Derivatives(derivative_level(f, 2)).g(x)
            scale = f.s0 ** 2 * (1.0 + regularity_sum(f))
            assert np.allclose(d2g, curvature, rtol=0.0, atol=1e-13 * scale)

    def test_second_derivative_matches_finite_differences(self):
        f = KERNEL_FNS[4]
        x = np.linspace(0.5, 9.5, 37)
        h = 1e-4
        d = Derivatives(f)
        _, _, d2g = d(x)
        fd = (d.g(x + h) - 2.0 * d.g(x) + d.g(x - h)) / h**2
        assert np.allclose(d2g, fd, rtol=0.0, atol=1e-5 * f.s0 ** 2)

    @pytest.mark.parametrize("rows", sorted(KERNEL_FNS))
    def test_rounding_bound_covers_the_evaluator(self, rows):
        # Against 30-digit values at the same float points, each computed
        # g^(p), p = 0..3, is within err(p, k), and B_p bounds its size;
        # B_4 bounds the fourth derivative, the remainder of the Taylor
        # model that certifies extrema.
        mpmath = pytest.importorskip("mpmath")
        f = derivative_level(KERNEL_FNS[rows], 1)
        d = Derivatives(f)
        x = np.concatenate((np.linspace(0.0, 50.0, 21), 1e4 + np.linspace(0.0, 5.0, 11),
                            1e7 + np.linspace(0.0, 1.0, 5), 1e8 + np.linspace(0.0, 1.0, 5)))
        computed = d(x) + d(x, 1)[2:]
        rows_mp = [(mpmath.mpf(s), mpmath.pi * g, mpmath.mpf(a)) for s, g, a in
                   [(f.s0, f.gamma0, -1.0)] + [tuple(t) for t in f.terms]]
        with mpmath.workdps(30):
            for i, k in enumerate(x.tolist()):
                for p in range(5):
                    # d^p/dk^p cos(s*k - c) = s**p * cos(s*k - c + p*pi/2)
                    exact = -mpmath.fsum(a * s ** p * mpmath.cos(s * k - pg + p * mpmath.pi / 2)
                                         for s, pg, a in rows_mp)
                    if p == 4:
                        assert abs(exact) <= d.B[4]
                        continue
                    assert abs(computed[p][i] - exact) <= d.err(p, k)
                    assert abs(computed[p][i]) <= d.B[p] * (1.0 + 1e-12)

    @pytest.mark.parametrize("rows", sorted(KERNEL_FNS))
    def test_slopes_read_the_same_cosines(self, rows):
        # d(x, 1) gives g' and g'' bitwise as d(x) does, and the third
        # derivative from the level-1 cosines damped by (s/s0)**2.
        f = KERNEL_FNS[rows]
        d = Derivatives(f)
        width = trig._BLOCK_ELEMENTS // (2 * rows)
        for n in (0, 1, width, width + 1):
            x = np.linspace(0.0, 60.0, n)
            _, dg, d2g = d(x)
            slope, curvature, d3g = d(x, 1)
            assert_bitwise(slope, dg)
            assert_bitwise(curvature, d2g)
            third = f.s0 * Derivatives(derivative_level(f, 1))(x)[2]
            scale = f.s0 ** 3 * (1.0 + regularity_sum(f))
            assert np.allclose(d3g, third, rtol=0.0, atol=1e-13 * scale)

    def test_refinement_reports_certified_and_stalled_roots(self, worked_chain, monkeypatch):
        # Roots (p = 0) and extrema (p = 1) of the worked chain, whose
        # levels 0 and 1 are regular, between the extrema of their leading
        # cosines: each bracket holds one root, certified within
        # tol + 4*eps*|k|.  An element still running at the iteration cap
        # comes back NaN and uncertified.
        f = worked_chain
        d = Derivatives(f)
        assert d.regular(0) and d.regular(1)
        for p in (0, 1):
            edges = (f.gamma0 - 0.5 * p + np.arange(1.0, 40.0)) * math.pi / f.s0
            v = d(edges, p)[0]
            assert np.all(v[:-1] * v[1:] < 0.0)
            lo, hi, flo = edges[:-1], edges[1:], v[:-1]
            roots, certified = trig.refine_roots(d, p, lo, hi, flo, 0.5 * (lo + hi), hi[-1], 1e-12)
            assert certified.all()
            tol = 1e-12 + 4.0 * np.finfo(float).eps * roots
            assert np.all(d(roots - tol, p)[0] * d(roots + tol, p)[0] < 0.0)
            monkeypatch.setattr(trig, "_MAX_ITER", 1)
            roots, certified = trig.refine_roots(d, p, lo, hi, flo, lo, hi[-1], 1e-12)
            assert np.isnan(roots[~certified]).all() and (~certified).any()
            monkeypatch.undo()

    @pytest.mark.parametrize("level", [0, 1])
    def test_near_zero_threshold_is_inclusive(self, worked_star, level):
        d = Derivatives(worked_star)
        tol = 1e-10
        t = tol * (1.0 + d.sigma[level])
        above = np.nextafter(t, np.inf)
        v = np.array([0.0, t, -t, above, -above])
        assert d.near_zero(v, tol, level).tolist() == [True, True, True, False, False]

    def test_near_zero_at_points_needs_the_rounding_bound_too(self, worked_star):
        d = Derivatives(worked_star)
        tol = 1e-10
        x = np.array([1.0, 1.0, 1.0])
        e = d.err(0, 1.0)
        v = np.array([e, -e, np.nextafter(e, np.inf)])
        assert v[2] < tol * (1.0 + d.sigma[0])
        assert d.near_zero(v, tol).all()
        assert d.near_zero(v, tol, x=x).tolist() == [True, True, False]


class TestTangentPremise:
    """The rounding bound takes np.tan within ``_TAN_ULPS`` ulp of the true
    tangent and the kernel's cosine within ``_COSINE_UNITS`` units of
    roundoff.  A platform whose np.tan is less accurate fails here, instead
    of quietly weakening every certificate built on ``Derivatives.err``."""

    @staticmethod
    def check(x):
        mpmath = pytest.importorskip("mpmath")
        x = np.asarray(x, dtype=float)
        tangents = np.tan(x)
        cosines = kernel_cos(2.0 * x)
        bound = trig._COSINE_UNITS * trig.UNIT_ROUNDOFF
        with mpmath.workdps(60):
            for h, t, c in zip(x.tolist(), tangents.tolist(), cosines.tolist()):
                exact = mpmath.tan(h)
                assert abs(t - exact) <= trig._TAN_ULPS * np.spacing(abs(float(exact))), h
                assert abs(c - mpmath.cos(2 * mpmath.mpf(h))) <= bound, h

    @given(st.lists(st.tuples(st.floats(min_value=1e-3, max_value=1e9), st.booleans()),
                    min_size=1, max_size=64))
    def test_drawn_arguments(self, draws):
        self.check([-x if negative else x for x, negative in draws])

    def test_next_to_multiples_of_a_quarter_turn(self):
        # The doubles on either side of n*pi/2, where tan has its poles
        # (odd n) and zeros (even n), up to n = 1e9.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(19)
        ns = list(range(1, 1001)) + [10 ** e for e in range(3, 10)] + [
            rng.randrange(1, 10 ** 9) for _ in range(500)]
        with mpmath.workdps(60):
            nearest = np.array([float(n * mpmath.pi / 2) for n in ns])
        self.check(np.concatenate((np.nextafter(nearest, 0.0), nearest,
                                   np.nextafter(nearest, np.inf))))


@given(kind=st.sampled_from(["star", "chain", "wide"]), seed=st.integers(0, 2**32 - 1))
def test_sigma_is_the_regularity_sums_bitwise(kind, seed):
    if kind == "wide":
        f = wide_fn(32, seed)
    else:
        f = {"star": random_star, "chain": random_chain}[kind](random.Random(seed))
    for level in build_ladder(f).levels:
        sigma = Derivatives(level).sigma
        expected = (regularity_sum(level), regularity_sum(derivative_level(level, 1)))
        assert [x.hex() for x in sigma] == [x.hex() for x in expected]


class TestDerivativeLadder:
    def test_level_zero_is_same_object(self):
        f = make_fn()
        assert derivative_level(f, 0) is f

    def test_negative_level_refused(self):
        with pytest.raises(ValueError, match="derivative level must be nonnegative, got -1"):
            derivative_level(make_fn(), -1)

    def test_phase_shift_and_damping(self):
        f = normalize(4.0, 0.5, [(2.0, 0.25, 0.8)])
        d = derivative_level(f, 1)
        assert d.gamma0 == 0.0
        (t,) = d.terms
        assert t.gamma == -0.25
        assert t.a == 0.8 * (2.0 / 4.0)

    @given(
        g0=dyadic_phases,
        g1=dyadic_phases,
        a=amplitudes,
        ratio=st.sampled_from([0.5, 0.25, 0.75, 0.125]),
        m=st.integers(min_value=0, max_value=6),
        n=st.integers(min_value=0, max_value=6),
    )
    def test_ladder_composes_exactly(self, g0, g1, a, ratio, m, n):
        f = TrigSpectralFunction(8.0, g0, (Term(8.0 * ratio, g1, a),))
        assert derivative_level(derivative_level(f, m), n) == derivative_level(
            f, m + n
        )

    def test_fd_matches_level_one(self):
        f = make_fn()
        g, g1 = Derivatives(f).g, Derivatives(derivative_level(f, 1)).g
        h = 1e-6
        for k in (0.3, 1.1, 2.9, 7.77):
            fd = (g(k + h) - g(k - h)) / (2.0 * h * f.s0)
            assert fd == pytest.approx(g1(k), abs=1e-8)

    def test_zero_action_term_dies_off(self):
        f = normalize(4.0, 0.0, [(0.0, 0.25, 0.5)])
        d = derivative_level(f, 1)
        (t,) = d.terms
        assert t.a == 0.0
        # and it no longer moves the values
        assert Derivatives(d).g(1.23) == pytest.approx(math.cos(4 * 1.23 + math.pi / 2), abs=1e-15)


class TestRegularity:
    def test_sum_and_flag(self):
        f = normalize(19.0, 0.0, [(17.0, 0.0, 0.75), (5.0, 0.0, 0.5), (3.0, 0.0, -0.25)])
        assert regularity_sum(f) == pytest.approx(1.5, abs=1e-15)
        assert not is_regular(f)
        g = normalize(19.0, 0.0, [(17.0, 0.0, 0.4)])
        assert is_regular(g)

    def test_boundary_is_irregular(self):
        f = normalize(2.0, 0.0, [(1.0, 0.0, 1.0)])
        assert not is_regular(f)
        ladder = build_ladder(f)
        assert ladder.order >= 1

    def test_near_boundary_is_irregular(self):
        f = normalize(2.0, 0.0, [(1.0, 0.0, 1.0 - 1e-12)])
        assert not is_regular(f)

    def test_ladder_stops_at_first_regular_level(self, worked_star):
        ladder = build_ladder(worked_star)
        assert ladder.order == 1
        assert not is_regular(ladder[0])
        assert is_regular(ladder[1])
        assert ladder.top is ladder[1]
        assert len(ladder) == 2

    def test_order_cap(self):
        # An action ratio this close to one decays far too slowly to
        # regularize within the cap.
        f = normalize(1.0, 0.0, [(1.0 - 1e-12, 0.0, 2.0)])
        with pytest.raises(OrderCapError,
                           match=r"order cap exceeded: no regular level at or below m=64$"):
            build_ladder(f)
        assert trig.MAX_ORDER == 64

    def test_regular_function_is_its_own_ladder(self):
        f = normalize(2.0, 0.0, [(1.0, 0.0, 0.3)])
        ladder = build_ladder(f)
        assert ladder.order == 0
        assert ladder.top is f


@given(
    s0=st.floats(min_value=0.5, max_value=60.0),
    gamma0=st.floats(min_value=0.0, max_value=2.0, exclude_max=True),
    k=st.floats(min_value=0.0, max_value=50.0),
)
def test_leading_term_alone_is_a_cosine(s0, gamma0, k):
    f = normalize(s0, gamma0, [])
    assert Derivatives(f).g(k) == pytest.approx(
        math.cos(s0 * k - math.pi * gamma0), abs=1e-12
    )


@given(
    g=dyadic_phases,
    a=amplitudes,
    frac=st.sampled_from([0.125, 0.375, 0.5, 0.875]),
)
def test_derivative_damps_amplitude_sum(g, a, frac):
    f = TrigSpectralFunction(10.0, 0.0, (Term(10.0 * frac, g, a),))
    assert regularity_sum(derivative_level(f, 1)) <= regularity_sum(f)


def bench_draws(workloads, seed):
    """The random functions the benchmark draws for ``seed``: the stars and
    chains of networks-highk and the wide sums of wide-sums."""
    draws = []
    for name in ("networks-highk", "wide-sums"):
        cases = workloads.build_workload(name, seed, ROOT).cases
        draws += [c.f for c in cases if not c.name.startswith("worked-")]
    return draws


PERIODIC = ["worked-star", "worked-chain", "star.yaml", "chain.yaml", "shifted-star", "trig.yaml"]


class TestPeriod:
    """``period`` finds the exact period of a commensurate sum, and only there."""

    @staticmethod
    def periodic(worked_star, worked_chain, shifted_star):
        spec = {name: load_graph_spec(str(ROOT / "specs" / f"{name}.yaml")).function
                for name in ("star", "chain", "trig")}
        # (function, period in turns of 2*pi, roots per period)
        return {"worked-star": (worked_star, 1, 38), "worked-chain": (worked_chain, 1, 38),
                "star.yaml": (spec["star"], 1, 38), "chain.yaml": (spec["chain"], 1, 38),
                # A zero action adds no constraint on the unit.
                "shifted-star": (shifted_star(1e-11), 1, 38),
                # Actions 6, 3.5, 1.25 and 5: omega = 0.25.
                "trig.yaml": (spec["trig"], 4, 48)}

    @pytest.mark.parametrize("name", PERIODIC)
    def test_commensurate_sums(self, name, worked_star, worked_chain, shifted_star):
        f, turns, roots = self.periodic(worked_star, worked_chain, shifted_star)[name]
        per = trig.period(f)
        assert per.hi == 2.0 * math.pi * turns and per.roots == roots
        # hi + lo is 2*pi*turns to double-double accuracy.
        assert abs(Fraction(per.hi) + Fraction(per.lo) - TWO_PI * turns) <= 2.0 ** -100
        assert abs(per.lo) <= 0.5 * np.spacing(per.hi)

    @pytest.mark.parametrize("name", PERIODIC)
    def test_values_repeat_within_rounding(self, name, worked_star, worked_chain, shifted_star):
        # x in (3P, 1e6) and k = x - q*P in [0, P), rounded once from the
        # exact difference.  Moving k to the exact point costs at most
        # B_1*ulp(k)/2 <= u*B_1*k, which err_0(x) - err_0(k) = u*B_1*(x - k)
        # covers, so each computed value within err_0 of its true value
        # leaves the two within 2*err_0(x).
        f = self.periodic(worked_star, worked_chain, shifted_star)[name][0]
        per, d = trig.period(f), Derivatives(f)
        period_exact = Fraction(per.hi) + Fraction(per.lo)
        x = np.random.default_rng(23).uniform(3.0 * per.hi, 1e6, 500)
        k = np.array([float(Fraction(v) - int(Fraction(v) / period_exact) * period_exact)
                      for v in x.tolist()])
        assert np.all((0.0 <= k) & (k < per.hi))
        assert np.all(np.abs(d.g(x) - d.g(k)) <= 2.0 * d.err(0, x))

    def test_incommensurate_sums_have_none(self, case_suite, bench_workloads):
        star_bonds = load_graph_spec(str(ROOT / "specs" / "star_bonds.yaml")).function
        draws = [star_bonds, wide_fn(32)] + [f for name, f in case_suite
                                             if not name.startswith("worked-")]
        for seed in (1, 2, 3):
            draws += bench_draws(bench_workloads, seed)
        assert len(draws) == 2 + 50 + 3 * (8 + 16)
        assert all(trig.period(f) is None for f in draws)

    def test_periods_too_long_to_tile_have_none(self):
        # Actions 1 and 2**-19 + 1: 2**21 + 2 roots a period, past the cap.
        assert trig.period(normalize(1.0 + 2.0 ** -19, 0.0, [(1.0, 0.0, 0.5)])) is None
        per = trig.period(normalize(1.0 + 2.0 ** -18, 0.0, [(1.0, 0.0, 0.5)]))
        assert per.roots == 2 ** 19 + 2 and per.hi == 2.0 * math.pi * 2 ** 18
