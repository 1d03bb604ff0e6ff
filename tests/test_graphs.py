import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgspectra import (
    ChainGraphSpec,
    Derivatives,
    StarGraphSpec,
    build_chain,
    build_star,
    chain_reflections,
    is_regular,
    random_chain,
    random_star,
    regularity_sum,
    star_actions,
    star_amplitudes,
)

lengths_st = st.tuples(*[st.floats(min_value=0.5, max_value=20.0)] * 3)
lambdas_st = st.tuples(*[st.floats(min_value=0.0, max_value=0.99)] * 3)
betas_st = st.tuples(*[st.floats(min_value=0.05, max_value=1.0)] * 3)


class TestStarSpec:
    def test_worked_example_actions(self):
        spec = StarGraphSpec((1.0, 7.0, 11.0), (0.1, 0.2, 0.5))
        S = star_actions(spec)
        assert S == pytest.approx((19.0, 17.0, 5.0, -3.0), abs=1e-14)

    def test_worked_example_amplitudes(self):
        spec = StarGraphSpec((1.0, 7.0, 11.0), (0.1, 0.2, 0.5))
        a = star_amplitudes(spec)
        assert a == pytest.approx((0.75, 0.5, -0.25), abs=1e-14)

    def test_from_bonds_matches_direct(self):
        direct = StarGraphSpec((1.0, 7.0, 11.0), (0.1, 0.2, 0.5))
        bonds = StarGraphSpec.from_bonds((10.0, 35.0, 22.0), (0.99, 0.96, 0.75))
        assert bonds.alpha == pytest.approx(direct.alpha, abs=1e-13)
        assert bonds.beta == pytest.approx(direct.beta, abs=1e-15)

    @given(lengths=lengths_st, lambdas=lambdas_st)
    def test_bond_roundtrip(self, lengths, lambdas):
        spec = StarGraphSpec.from_bonds(lengths, lambdas)
        assert spec.lengths == pytest.approx(lengths, rel=1e-12)
        assert spec.lambdas == pytest.approx(lambdas, abs=1e-12)

    @given(lengths=lengths_st, lambdas=lambdas_st)
    def test_action_sum_identity(self, lengths, lambdas):
        S = star_actions(StarGraphSpec.from_bonds(lengths, lambdas))
        assert S[1] + S[2] + S[3] == pytest.approx(S[0], rel=1e-13)

    @given(lengths=lengths_st, lambdas=lambdas_st)
    def test_amplitude_sum_identity(self, lengths, lambdas):
        a = star_amplitudes(StarGraphSpec.from_bonds(lengths, lambdas))
        assert math.fsum(a) == pytest.approx(1.0, abs=1e-13)

    @given(lengths=lengths_st, lambdas=lambdas_st)
    def test_stars_never_regular(self, lengths, lambdas):
        f = build_star(StarGraphSpec.from_bonds(lengths, lambdas))
        assert not is_regular(f)
        assert regularity_sum(f) >= 1.0 - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            StarGraphSpec((0.0, 1.0, 1.0), (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            StarGraphSpec((1.0, 1.0, 1.0), (0.0, 0.5, 0.5))
        with pytest.raises(ValueError):
            StarGraphSpec((1.0, 1.0, 1.0), (0.5, 0.5, 1.5))
        with pytest.raises(ValueError):
            StarGraphSpec.from_bonds((1.0, 1.0, -1.0), (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            StarGraphSpec.from_bonds((1.0, 1.0, 1.0), (0.5, 0.5, 1.0))
        with pytest.raises(ValueError):
            StarGraphSpec.from_bonds((1.0, 1.0, 1.0), (0.5, 0.5, -0.1))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            StarGraphSpec((1.0, 2.0), (0.5, 0.5, 0.5))


class TestBuildStar:
    def test_worked_example_canonical_form(self, worked_star):
        f = worked_star
        assert f.s0 == pytest.approx(19.0, abs=1e-14)
        assert f.gamma0 == 0.0
        assert [t.s for t in f.terms] == pytest.approx([17.0, 5.0, 3.0], abs=1e-14)
        assert [t.gamma for t in f.terms] == [0.0, 0.0, 0.0]
        assert [t.a for t in f.terms] == pytest.approx([0.75, 0.5, -0.25], abs=1e-14)

    def test_reflected_action_keeps_amplitude(self):
        # S3 = -3 reflects to +3 with phase 0, amplitude unchanged: the
        # worked star's third amplitude stays negative.
        f = build_star(StarGraphSpec((1.0, 7.0, 11.0), (0.1, 0.2, 0.5)))
        assert f.terms[2].a < 0.0


class TestChainSpec:
    def test_reflection_coefficients(self):
        r2, r3 = chain_reflections(ChainGraphSpec((19.0, 17.0, 5.0, -3.0), (0.4, 0.5, 0.3)))
        assert r2 == pytest.approx(-1.0 / 9.0, abs=1e-15)
        assert r3 == pytest.approx(0.25, abs=1e-15)

    def test_worked_chain_canonical_form(self, worked_chain):
        f = worked_chain
        assert f.s0 == 19.0
        assert f.gamma0 == 0.5
        # amplitudes (-r2, -r2*r3, +r3) attached to actions (17, 5, -3);
        # the reflected -3 flips its stored phase to 2-1/2 = 3/2.
        by_action = {t.s: t for t in f.terms}
        assert by_action[17.0].a == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert by_action[17.0].gamma == 0.5
        assert by_action[5.0].a == pytest.approx(1.0 / 36.0, abs=1e-15)
        assert by_action[3.0].a == pytest.approx(0.25, abs=1e-15)
        assert by_action[3.0].gamma == 1.5

    def test_worked_chain_is_regular(self, worked_chain):
        assert regularity_sum(worked_chain) == pytest.approx(7.0 / 18.0, abs=1e-15)
        assert is_regular(worked_chain)

    @given(betas=betas_st)
    def test_reflections_bounded(self, betas):
        r2, r3 = chain_reflections(ChainGraphSpec((10.0, 5.0, 3.0, 2.0), betas))
        assert abs(r2) < 1.0
        assert abs(r3) < 1.0

    def test_equal_betas_reduce_to_pure_cosine(self):
        f = build_chain(ChainGraphSpec((10.0, 5.0, 3.0, 2.0), (0.7, 0.7, 0.7)))
        assert f.terms == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            ChainGraphSpec((0.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            ChainGraphSpec((-1.0, 0.5, 0.3, 0.2), (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            ChainGraphSpec((1.0, 0.5, 0.3, 0.2), (0.5, -0.5, 0.5))
        with pytest.raises(ValueError):
            ChainGraphSpec((1.0, 0.5, 0.3), (0.5, 0.5, 0.5))

    def test_sine_form_values(self, worked_chain):
        # The canonical cosine form must equal the textbook sine sum.
        r2, r3 = -1.0 / 9.0, 0.25
        g = Derivatives(worked_chain).g
        for k in (0.17, 1.3, 2.71):
            expected = (
                math.sin(19.0 * k)
                + r2 * math.sin(17.0 * k)
                + r2 * r3 * math.sin(5.0 * k)
                - r3 * math.sin(-3.0 * k)
            )
            assert g(k) == pytest.approx(expected, abs=1e-14)


def test_random_samplers_keep_their_draw_order():
    # The acceptance suite draws 25 stars, then 25 chains, from Random(7).
    rng = random.Random(7)
    stars = [random_star(rng) for _ in range(25)]
    chain = random_chain(rng)
    assert stars[0].s0 == pytest.approx(19.461753899735935, abs=1e-12)
    assert chain.s0 == pytest.approx(11.127202242085783, abs=1e-12)
