"""Algebra of trigonometric spectral functions.

A spectral function of a scaling quantum network is a finite cosine sum

    g(k) = cos(s0*k - pi*gamma0) - sum_j a_j * cos(s_j*k - pi*gamma_j)

with a positive leading action ``s0`` and term actions ``0 <= s_j < s0``.
Its positive zeros ``k_n`` are the square roots of the network eigenvalues.
Phases are stored in units of pi so that the quarter-turn shifts introduced
by differentiation stay exact in floating point.

Dividing the m-th derivative of ``g`` by ``s0**m`` reproduces the same
functional form with every phase advanced by ``m/2`` and every amplitude
damped by ``(s_j/s0)**m``.  Iterating this "derivative ladder" eventually
pushes the amplitude sum below one (the regularity condition), which is the
property the separator-based root solver needs before it can bracket roots.

Every evaluation goes through one kernel.  A block of ``B`` points becomes a
``(T+1) x B`` matrix of half-phases ``(s_i*k - pi*gamma_i)/2`` over the
leading term and the ``T`` terms.  One ``np.tan`` turns it into
``t = tan(theta/2)``, and ``cos(theta) = (1 - t**2)/(1 + t**2)`` into
cosines; a row scaling applies the amplitudes (1 for the leading row), and
``np.subtract.reduce`` along the term axis folds
``C_0 - a_1*C_1 - a_2*C_2 - ...`` left to right.  Halving is exact, so each
product and each subtraction is the one the per-term loop
``acc = acc - a*cos(s*k - pi*gamma)`` would make with the same cosine, in
the same order, and the values do not depend on the block size or on which
caller asks.  Blocks hold about ``2**16`` matrix elements, which spreads
numpy's per-call cost over many cosines without ever allocating a
``(T+1) x N`` temporary for a long grid.  ``np.tan`` is the only
transcendental function evaluated.  It is there for speed: on an
x86-64 CPU with AVX-512, numpy dispatches float64 ``tan`` to a SIMD loop,
about 3 ns an element against about 30 for ``np.cos``, which stays scalar
libm (numpy 2.4).  Where numpy has no such loop, ``np.tan`` is scalar libm
too, about 37 ns an element, and the kernel is slower than one on
``np.cos``: with numpy's AVX-512 targets disabled (numpy 2.4.6, 2-core
x86-64), the benchmark's wide-sums workload solves 0.83x as many roots a
second and networks-highk 0.87x.

``Derivatives(f)``, built once per ladder level, holds the kernel's columns
of ``f`` and of its level 1.  It is the one object that answers questions
about a level: ``g``, ``g'``, ``g''``, ``g'''`` and their rounding
bounds, ``.g`` for the values of level 0 or 1 alone, ``sigma``, the
regularity sums of both levels, and ``near_zero``, which judges where
computed values are zero.

``refine_roots`` is the one root refinement.  Given brackets that each
hold one sign change and one root of ``g`` or ``g'``, it takes
safeguarded Halley steps from ``Derivatives`` and stops each element
where a Taylor model certifies the root within its tolerance.  The
solver refines its brackets with it, and the oracle its roots and
extrema.

``period`` reads the actions as the exact binary fractions they are.  When
they share a unit ``omega``, every level of the ladder repeats exactly with
period ``2*pi/omega``: the solver solves, and the oracle scans, only a few
periods, and ``Period.images`` carries their roots to the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "Term",
    "TrigSpectralFunction",
    "DerivativeLadder",
    "NormalizeError",
    "OrderCapError",
    "normalize",
    "Derivatives",
    "UNIT_ROUNDOFF",
    "derivative_level",
    "regularity_sum",
    "REGULARITY_MARGIN",
    "is_regular",
    "MAX_ORDER",
    "COINCIDENCE_TOL",
    "ROOT_TOL",
    "build_ladder",
    "refine_roots",
    "Period",
    "period",
]

_PI = math.pi


class NormalizeError(ValueError):
    """A raw cosine sum cannot be brought to canonical form."""


class OrderCapError(RuntimeError):
    """The derivative ladder failed to regularize below the order cap."""


@dataclass(frozen=True, slots=True)
class Term:
    """One cosine term: amplitude ``a`` times cos(s*k - pi*gamma)."""

    s: float
    gamma: float
    a: float

    def __iter__(self):
        return iter((self.s, self.gamma, self.a))


@dataclass(frozen=True, slots=True)
class TrigSpectralFunction:
    """Canonical cosine sum cos(s0*k - pi*gamma0) - sum_j a_j cos(s_j*k - pi*gamma_j).

    Instances produced by :func:`normalize` (and by the graph constructors,
    which call it) have unit leading coefficient, nonnegative term actions
    strictly below ``s0``, term phases reduced modulo 2, and no duplicate
    ``(s, gamma)`` pairs.  Derivative levels keep the same term list but
    carry phases shifted by ``-m/2``, so the phase fields are not restricted
    to any canonical range here.
    """

    s0: float
    gamma0: float
    terms: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s0) and self.s0 > 0.0):
            raise ValueError(f"leading action must be positive and finite, got {self.s0}")
        if not math.isfinite(self.gamma0):
            raise ValueError("leading phase must be finite")
        for t in self.terms:
            if not (math.isfinite(t.s) and math.isfinite(t.gamma) and math.isfinite(t.a)):
                raise ValueError(f"non-finite term {t}")
            if t.s < 0.0:
                raise ValueError(f"term action must be nonnegative, got {t.s}")
            if t.s > self.s0:
                raise ValueError(
                    f"term action {t.s} exceeds the leading action {self.s0}"
                )

    @property
    def n_terms(self) -> int:
        return len(self.terms)


@dataclass(frozen=True, slots=True)
class DerivativeLadder:
    """Stack of derivative levels, from the original function up to the
    first regular one."""

    levels: tuple[TrigSpectralFunction, ...]

    @property
    def order(self) -> int:
        """Index of the first regular level."""
        return len(self.levels) - 1

    @property
    def top(self) -> TrigSpectralFunction:
        return self.levels[-1]

    def __getitem__(self, m: int) -> TrigSpectralFunction:
        return self.levels[m]

    def __len__(self) -> int:
        return len(self.levels)


def normalize(
    s0: float,
    gamma0: float,
    raw_terms: Iterable[tuple[float, float, float] | Term] = (),
) -> TrigSpectralFunction:
    """Bring a raw cosine sum to canonical form.

    Negative term actions are reflected to positive ones (cosine is even),
    term phases are reduced modulo 2, terms sharing an ``(s, gamma mod 2)``
    pair are merged by summing amplitudes, zero-amplitude terms are dropped,
    and any term whose action equals ``s0`` is folded into the leading
    coefficient, after which the whole sum is rescaled so the leading
    coefficient is exactly one.

    Raises:
        NormalizeError: if the leading coefficient cancels to zero
            ("degenerate leading term"), if a term at the top action has a
            phase that is not congruent to ``gamma0`` modulo 1 ("unfoldable
            top action"), or if a term action exceeds ``s0``.
    """
    if not (math.isfinite(s0) and s0 > 0.0):
        raise NormalizeError(f"leading action must be positive and finite, got {s0}")
    if not math.isfinite(gamma0):
        raise NormalizeError("leading phase must be finite")

    lead = 1.0
    # Float % is exact for doubles (fmod, then one sign fix, and +0.0 for
    # -0.0), so phases that differ by an even integer collapse to
    # bitwise-identical representatives.
    g0c = gamma0 % 2.0
    merged: dict[tuple[float, float], float] = {}
    for s, g, a in raw_terms:
        if not (math.isfinite(s) and math.isfinite(g) and math.isfinite(a)):
            raise NormalizeError(f"non-finite raw term ({s}, {g}, {a})")
        if abs(s) > s0:
            raise NormalizeError(
                f"term action |{s}| exceeds the leading action {s0}"
            )
        if s < 0.0:
            s, g = -s, -g
        g %= 2.0
        if s == s0:
            d = g - g0c
            if d == 0.0:
                lead -= a
            elif d == 1.0 or d == -1.0:
                lead += a
            else:
                raise NormalizeError(
                    "unfoldable top action: term at the leading action has "
                    f"phase {g} (mod 2) incompatible with the leading phase "
                    f"{g0c} (mod 2)"
                )
            continue
        key = (s, g)
        merged[key] = merged.get(key, 0.0) + a

    if lead == 0.0:
        raise NormalizeError(
            "degenerate leading term: top-action terms cancel the leading "
            "coefficient exactly"
        )

    out = []
    for (s, g), a in merged.items():
        a = a / lead
        if a == 0.0:
            continue
        out.append(Term(s, g, a))
    out.sort(key=lambda t: (-t.s, t.gamma))
    return TrigSpectralFunction(s0, g0c, tuple(out))


# Matrix elements per block of the phase matrix: large enough that numpy's
# per-call dispatch is spread over many cosines, small enough that a long
# grid never allocates a (T+1) x N temporary.
_BLOCK_ELEMENTS = 1 << 16


# The kernel's cosine is within this many units of roundoff of the true
# cosine of its phase, given np.tan within 4 ulp (derivation in Derivatives).
_TAN_ULPS = 4
_COSINE_UNITS = 10


def _half_angle_cos(h: np.ndarray) -> np.ndarray:
    """Overwrite the half-phases ``h`` with ``cos(2*h)``, taken from
    ``t = tan(h)`` as ``(1 - t**2) / (1 + t**2)``, and return ``h``."""
    np.tan(h, out=h)
    h *= h
    denominator = 1.0 + h
    np.subtract(1.0, h, out=h)
    h /= denominator
    return h


def _cosine_blocks(s: np.ndarray, pg: np.ndarray, x: np.ndarray):
    """Yield ``(slice, C)`` over blocks of the flat points ``x``, where
    ``C[i, j] = cos(2*(s[i]*x[j] - pg[i]))`` is one block of the phase
    matrix; ``s`` and ``pg`` are the halved actions and phases."""
    width = max(1, _BLOCK_ELEMENTS // s.size)
    for start in range(0, x.size, width):
        block = slice(start, start + width)
        c = np.multiply.outer(s, x[block])
        c -= pg[:, None]
        yield block, _half_angle_cos(c)


# Unit roundoff of binary64.
UNIT_ROUNDOFF = 2.0 ** -53

# The coincidence threshold, relative to ``1 + sum|a_j|`` of the level
# tested (``Derivatives.near_zero``).  It is no setting: a looser one turns
# near-zeros into fake separator-coincidences and relabels the spectrum.
COINCIDENCE_TOL = 1e-10

# How close a refined root lies to a root of the stored sum, beside the
# ``4*eps*|k|`` rounding of k itself.  It is no setting either.
ROOT_TOL = 1e-12


class Derivatives:
    """``g`` and its first three derivatives of one cosine sum, and bounds on their rounding.

    The columns of ``f`` and of its level 1 are stacked once, when it is
    built.  Calling it on 1-d points ``x`` evaluates one cosine matrix of
    both levels, so ``g`` and ``g'`` are bitwise ``self.g(x)``
    and ``f.s0 * self.g(x, 1)``.  Level 2 is level 0 shifted by half a
    turn, so ``g'' = -s0**2 * (C_0 - sum_j a_j r_j**2 C_j)`` with
    ``r_j = s_j/s0`` reads the cosines ``C`` of level 0 again.  The call
    returns ``g``, ``g'`` and ``g''``; with ``p = 1`` it returns ``g'``
    and ``g''``, bitwise the same, and ``g'''``.  Level 3 is level 1
    shifted by half a turn, so ``g'''`` reads the level-1 cosines again,
    damped once more by ``r_j**2``.  Only the refinement of extrema asks
    for it.

    ``B[p] = sum_i |a_i| s_i**p`` for p = 0..4, over every term, the leading
    one included, bounds ``|g^(p)|`` everywhere; ``B_4`` bounds the
    remainder of the Taylor model of ``g'``.  With ``C_p`` below,
    ``err(p, x)`` bounds how far the p-th derivative computed here lies
    from the true one at the same float point ``x >= 0``:

        err_p(x) = u * sum_i |a_i| s_i**p * (s_i |x| + pi(|gamma_i| + 1) + T + 12)
                 = u * (B_{p+1} |x| + C_p).

    Each phase is off by about an ulp of each of its parts, the cosine by
    ``10u`` (below), the amplitude product by an ulp, and the fold over the
    ``T + 1`` terms by ``T`` more (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3).  ``B_p`` and ``C_p`` are summed with
    ``math.fsum``.

    The cosine of a computed phase ``theta`` is ``(1 - w)/(1 + w)`` with
    ``w = t**2`` and ``t = tan(theta/2)``; halving is exact, so ``t`` is the
    tangent of exactly half the phase.  The premise is that ``np.tan`` is
    within 4 ulp, a relative error of at most ``8u``.  That is the maximum
    error Intel gives for its low-accuracy SVML functions, the looser of
    the two float64 ``tan`` variants (``_la`` and ``_ha``) that numpy's
    AVX-512 build carries; elsewhere ``np.tan`` is the C library's.  Then
    ``w`` is off by ``17u`` relative after its own rounding, which moves
    the quotient by ``2w/(1 + w)**2`` times that.  Rounding ``1 - w``,
    ``1 + w`` and the quotient adds ``3u |cos(theta)|``.  In all the cosine
    is off by at most

        u * (34w/(1 + w)**2 + 3|1 - w|/(1 + w)) <= 8.8u,

    the maximum being near ``w = 0.7`` and ``w = 1.43``; ``10u`` covers it
    and the second-order terms with a margin of more than ``u``.
    ``tests/test_trig.py`` checks the premise, and the cosine against
    ``10u``, with mpmath.  Checked on numpy 2.4.6 on x86-64, both with the
    AVX-512 loop (``X86_V4``, ``AVX512_ICL``, ``AVX512_SPR`` dispatch) and
    with those targets disabled through ``NPY_DISABLE_CPU_FEATURES`` (glibc
    2.36 ``tan``): on the test's doubles next to ``n*pi/2`` and 20,000
    random ones up to ``1e9``, ``np.tan`` was within 0.7 ulp and the cosine
    within ``1.92u``.

    ``sigma = (sigma_0, sigma_1)`` are the regularity sums ``sum_j |a_j|``
    of ``f`` and of its level 1, over the same products ``a_j * r_j`` that
    :func:`derivative_level` makes, so they are bitwise
    ``regularity_sum(f)`` and ``regularity_sum(derivative_level(f, 1))``.
    """

    def __init__(self, f: TrigSpectralFunction):
        rows = [(f.s0, f.gamma0, 1.0)] + [(t.s, t.gamma, t.a) for t in f.terms]
        s, gamma, a = np.array(rows).T
        r = s / f.s0
        self.f = f
        self._n = s.size
        self._actions = 0.5 * np.concatenate((s, s))
        self._phases = 0.5 * (_PI * np.concatenate((gamma, gamma - 0.5)))
        self._amplitudes = np.concatenate((a, a * r))[:, None]
        amps = np.abs(self._amplitudes).reshape(2, -1)[:, 1:]
        self.sigma = tuple(math.fsum(row.tolist()) for row in amps)
        self._damping = (r * r)[:, None]
        span = _PI * (np.abs(gamma) + 1.0) + (f.n_terms + 2 + _COSINE_UNITS)
        weights = np.abs(a)
        b, c = [], []
        for _ in range(5):
            b.append(math.fsum(weights.tolist()))
            c.append(math.fsum((weights * span).tolist()))
            weights = weights * s
        self.B = tuple(b)
        self._c = tuple(c)

    def __call__(self, x: np.ndarray, p: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``g^(p)``, ``g^(p+1)`` and ``g^(p+2)`` at the 1-d points ``x``, for p = 0 or 1."""
        n = self._n
        out = np.empty((3, x.size))
        for block, c in _cosine_blocks(self._actions, self._phases, x):
            c *= self._amplitudes
            if p == 0:
                np.subtract.reduce(c[:n], axis=0, out=out[0, block])
            np.subtract.reduce(c[n:], axis=0, out=out[1 - p, block])
            c[:n] *= self._damping
            np.subtract.reduce(c[:n], axis=0, out=out[2 - p, block])
            if p == 1:
                c[n:] *= self._damping
                np.subtract.reduce(c[n:], axis=0, out=out[2, block])
        s0 = self.f.s0
        if p == 0:
            g, g1, g2 = out
            return g, s0 * g1, -(s0 * s0) * g2
        g1, g2, g3 = out
        return s0 * g1, -(s0 * s0) * g2, -(s0 * s0 * s0) * g3

    def g(self, ks, level: int = 0) -> np.ndarray:
        """Values of ladder level 0 (``g``) or 1 (``g'/s0``) at an array of
        points, of the same shape."""
        ks = np.asarray(ks, dtype=float)
        rows = slice(level * self._n, (level + 1) * self._n)
        x = ks.ravel()
        out = np.empty(x.size)
        for block, c in _cosine_blocks(self._actions[rows], self._phases[rows], x):
            c *= self._amplitudes[rows]
            np.subtract.reduce(c, axis=0, out=out[block])
        return out.reshape(ks.shape)

    def err(self, p: int, x):
        """The rounding bound ``u * (B_{p+1} x + C_p)`` of ``g^(p)``, p = 0..3, at ``x >= 0``."""
        return UNIT_ROUNDOFF * (self.B[p + 1] * x + self._c[p])

    def near_zero(self, v, tol: float = COINCIDENCE_TOL, level: int = 0, x=None) -> np.ndarray:
        """Where the computed values ``v`` of level 0 or 1 are judged zero.

        This is the one place the coincidence threshold is applied: ``v``
        is zero where ``|v| <= tol * (1 + sigma[level])``, and, for values
        of ``g`` at given points ``x``, also ``|v| <= err(0, x)``.  ``tol``
        is ``COINCIDENCE_TOL``; only a caller of ``scan_roots`` can give
        the oracle another.  The solver's coincidences, window edges, Rolle
        read and count ranks and the oracle's tangent test ask it.  The oracle's width and distance
        rules (its floor cell, the cut at the window start and the merge of
        close roots) are not value tests and do not; a certified near-zero
        decision has to replace them alongside this one.
        """
        small = np.abs(v) <= tol * (1.0 + self.sigma[level])
        if x is not None:
            small &= np.abs(v) <= self.err(0, x)
        return small

    def regular(self, level: int) -> bool:
        """Whether level 0 or 1 is regular, as :func:`is_regular` judges it."""
        return _regular(self.sigma[level])


# A refinement still running after this many evaluations has stalled.
_MAX_ITER = 100
# Relative part of the step rule, as in Brent's method: at large k the
# step noise of a double-precision root exceeds the tolerance alone.
_ROOT_RTOL = 4.0 * np.finfo(float).eps
# The certified stop tests points this far from the Halley point, so that
# they stay within tol + _ROOT_RTOL*|k| of it after rounding.
_END_RTOL = 3.0 * np.finfo(float).eps


def refine_roots(d: Derivatives, p: int, lo, hi, flo, x, x_max: float,
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The root of ``g^(p)``, p = 0 or 1, inside each bracket ``[lo, hi]``, all at once.

    Each bracket must hold exactly one root of ``F = g^(p)`` and a sign
    change: ``flo`` has the sign of ``F`` at ``lo``, the opposite of its
    sign at ``hi``.  The iteration starts at ``x`` inside the bracket and
    takes safeguarded Halley steps ``2*F*F' / (2*F'**2 - F*F'')`` when
    they stay in the bracket and are at most half the step before last,
    and bisects otherwise.  ``d(x, p)`` reads ``F``, ``F'`` and ``F''``
    from one phase matrix per iteration.

    After each evaluation at ``x``, an element returns the Halley point
    ``y`` as certified once ``_certifier`` proves a sign change of ``F``
    within ``tol + 4*eps*|y|`` of ``y``; no evaluation point may exceed
    ``x_max``.  Otherwise the element stops uncertified when its last step
    is within that tolerance (Brent's default stopping rule) or no longer
    moves it; at large k, where the rounding of ``F`` is wider than the
    tolerance, that rule is what ends the loop.  Only unfinished elements
    are evaluated again.  Returns the roots and a mask of the certified
    ones.  An element still running after ``_MAX_ITER`` evaluations has
    stalled; its root is NaN.
    """
    certify = _certifier(d, p, x_max, tol)
    roots = np.full(lo.size, np.nan)
    certified = np.zeros(lo.size, dtype=bool)
    idx = np.arange(lo.size)
    neg_lo = flo < 0.0
    lo0, hi0 = lo, hi
    step = step_old = hi - lo
    for _ in range(_MAX_ITER):
        gx, dg, d2g = d(x, p)
        left = (gx < 0.0) == neg_lo
        lo = np.where(left, x, lo)
        hi = np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            halley = np.where(gx == 0.0, 0.0, 2.0 * gx * dg / (2.0 * dg * dg - gx * d2g))
            y = x - halley
            cert = certify(x, gx, dg, d2g, y, lo0, hi0, neg_lo)
        take = (lo <= y) & (y <= hi) & (2.0 * np.abs(halley) <= step_old)
        half = 0.5 * (hi - lo)
        xn = np.where(take, y, lo + half)
        step_old, step = step, np.where(take, np.abs(halley), half)
        done = cert | (xn == x) | (step <= tol + _ROOT_RTOL * np.abs(xn))
        roots[idx[done]] = np.where(cert, y, xn)[done]
        certified[idx[done]] = cert[done]
        keep = ~done
        idx, x, lo, hi, neg_lo = idx[keep], xn[keep], lo[keep], hi[keep], neg_lo[keep]
        step, step_old = step[keep], step_old[keep]
        lo0, hi0 = lo0[keep], hi0[keep]
        if not idx.size:
            break
    return roots, certified


def _certifier(d: Derivatives, p: int, x_max: float, tol: float):
    """A test of where ``F = g^(p)`` provably has its root within the tolerance of ``y``.

    The test reads ``F``, ``F'`` and ``F''`` as computed at ``x`` in
    ``[0, x_max]``, and the bracket ``[lo, hi]`` the refinement started
    from.  It checks the ends ``z = y -+ t``, with ``t = tol + 3*eps*|y|``
    so that a rounded end is still within ``tol + 4*eps*|y|`` of ``y``.
    With ``d = z - x``, the quadratic Taylor model ``F + F'*d + F''*d**2/2``
    is within

        e_p + |d|*e_{p+1} + d**2*e_{p+2}/2 + B_{p+3}*|d|**3/6

    of the true ``F(z)``.  ``e_q`` is the rounding bound ``d.err(q, .)`` of
    the computed ``g^(q)`` (derived in ``Derivatives``), taken at ``x``
    for ``e_p`` and at ``x_max`` for the others, whose terms are tiny at
    the ``|d|`` where the test can pass.  ``B_{p+3}`` bounds the third
    derivative of ``F``, so the last term is Taylor's remainder.  Eight
    ulps of ``B_p + B_{p+1}*|d| + B_{p+2}*d**2/2``, which bound the
    model's terms, cover its own evaluation.  Where the model clears that
    margin at both ends with the signs of ``F`` at ``lo`` and at ``hi``,
    ``F`` has a root between them.  The bracket holds exactly one root,
    so the ends must also lie in the bracket, and then that root is
    within ``tol + 4*eps*|y|`` of ``y``.
    """
    b = d.B[p:]
    ulps = 8.0 * UNIT_ROUNDOFF
    # The margin past e_p(x), in powers of |d|.
    c0 = ulps * b[0]
    c1 = d.err(p + 1, x_max) + ulps * b[1]
    c2 = 0.5 * (d.err(p + 2, x_max) + ulps * b[2])
    c3 = b[3] / 6.0

    def certified(x, g, dg, d2g, y, lo, hi, neg_lo) -> np.ndarray:
        t = tol + _END_RTOL * np.abs(y)
        z0, z1 = y - t, y + t
        d0, d1 = z0 - x, z1 - x
        r = np.maximum(np.abs(d0), np.abs(d1))
        margin = d.err(p, x) + (c0 + r * (c1 + r * (c2 + r * c3)))
        half = 0.5 * d2g
        # Positive where the model has the sign of F at lo (at z0) or at hi (at z1).
        side = 1.0 - 2.0 * neg_lo
        m0 = side * (g + d0 * (dg + d0 * half))
        m1 = -side * (g + d1 * (dg + d1 * half))
        return (m0 > margin) & (m1 > margin) & (lo <= z0) & (z1 <= hi)

    return certified


def derivative_level(f: TrigSpectralFunction, m: int) -> TrigSpectralFunction:
    """Level ``m`` of the ladder: the m-th derivative divided by ``s0**m``.

    Every phase is shifted by ``-m/2`` and each amplitude is damped by
    ``(s/s0)**m``.  Terms are kept in place even when their amplitude hits
    zero (a constant dies under differentiation), so that levels can be
    compared term by term.  The shift and damping are accumulated by
    repeated subtraction/multiplication, which makes stepping one level at
    a time bitwise identical to jumping ``m`` levels at once.
    """
    if m < 0:
        raise ValueError(f"derivative level must be nonnegative, got {m}")
    if m == 0:
        return f
    g0 = f.gamma0
    for _ in range(m):
        g0 -= 0.5
    new_terms = []
    for s, g, a in f.terms:
        r = s / f.s0
        for _ in range(m):
            a *= r
            g -= 0.5
        new_terms.append(Term(s, g, a))
    return TrigSpectralFunction(f.s0, g0, tuple(new_terms))


def regularity_sum(f: TrigSpectralFunction) -> float:
    """Sum of term amplitude magnitudes; the function is regular when < 1.

    Computed with compensated summation: the star identity puts many
    functions exactly on the boundary, where naive left-to-right addition
    wobbles by an ulp in either direction.
    """
    return math.fsum(abs(t.a) for t in f.terms)


# A function whose amplitude sum is within this of 1 is treated as
# irregular.  The boundary itself must force another derivative (strict
# inequality), and a sum this close to 1 leaves the separator bound
# 1 - sum too thin to bracket against anyway; one extra level is cheap
# and shrinks the sum by the action ratio.
REGULARITY_MARGIN = 1e-9


def _regular(sigma: float) -> bool:
    return sigma < 1.0 - REGULARITY_MARGIN


def is_regular(f: TrigSpectralFunction) -> bool:
    """Whether roots are confined between leading-cosine extrema."""
    return _regular(regularity_sum(f))


# The deepest ladder ``build_ladder`` builds.  A sum needs at most
# ``log(sum|a|)/log(s0/max S_j)`` levels, under 20 for the widest benchmark
# sums, so the cap only stops a ladder that would not end.
MAX_ORDER = 64


def build_ladder(f: TrigSpectralFunction) -> DerivativeLadder:
    """Differentiate until the regularity condition holds.

    Returns the ladder of levels ``0..M`` where ``M`` is the smallest level
    judged regular by :func:`is_regular` (a sum of exactly one still forces
    another step).  Raises :class:`OrderCapError` when no level at or below
    ``MAX_ORDER`` is regular.
    """
    levels = [f]
    while not is_regular(levels[-1]):
        if len(levels) > MAX_ORDER:
            raise OrderCapError(
                f"order cap exceeded: no regular level at or below m={MAX_ORDER}"
            )
        levels.append(derivative_level(levels[-1], 1))
    return DerivativeLadder(tuple(levels))


# 2*pi times 2**124, rounded to an integer.  Its 127 bits carry a period
# to double-double accuracy.
_TWO_PI_SCALED = 133628573008120843482460046645233847913
_TWO_PI_SHIFT = 124
# Tiling pays only for a period short against the window: a sum with more
# roots than this in a period is taken to have none.
_MAX_PERIOD_ROOTS = 1 << 20


class Period(NamedTuple):
    """The period ``hi + lo`` of a cosine sum, a double-double, and
    ``roots = 2*s0/omega``, its roots per period counted with multiplicity."""

    hi: float
    lo: float
    roots: int

    def images(self, ks: np.ndarray, start: int, stop: int) -> np.ndarray:
        """``ks + q*P`` for q = start..stop-1, q-major, each rounded once.

        ``P = hi + lo`` is split into ``hi'``, short enough that ``q*hi'``
        is exact, and the rest.  TwoSum gives ``ks + q*hi'`` as an exact
        pair, and the rest times q joins its error before the one rounding
        of the result.
        """
        bits = 53 - stop.bit_length()
        mantissa, exponent = math.frexp(self.hi)
        hi = math.ldexp(math.floor(math.ldexp(mantissa, bits)), exponent - bits)
        q = np.arange(float(start), float(stop))[:, None]
        shift = q * hi
        s = shift + ks
        v = s - shift
        err = ks - v
        v -= s
        v += shift
        err += v
        err += q * ((self.hi - hi) + self.lo)
        s += err
        return s.ravel()


def period(f: TrigSpectralFunction) -> Period | None:
    """The exact period ``P = 2*pi/omega`` of the stored sum ``f``, or None.

    Each action is a binary fraction ``n/d`` with ``d`` a power of two.
    Over the largest denominator ``D`` the actions are the integers
    ``n*D/d``, and their gcd ``c`` gives the largest common unit
    ``omega = c/D``, so ``g(k + P) = g(k)`` holds exactly for the stored
    coefficients, at every level of the ladder.  Returns None when the
    actions have no common unit with at most ``_MAX_PERIOD_ROOTS`` roots
    per period.  Where ``D > 1``, ``c`` divides an odd numerator, so
    ``roots`` is a multiple of ``2*D/d0``; that bound refuses most
    incommensurate sums before any wide integer is formed.
    """
    ratios = [f.s0.as_integer_ratio()] + [t.s.as_integer_ratio() for t in f.terms]
    den = max(d for _, d in ratios)
    n0, d0 = ratios[0]
    if 2 * (den // d0) > _MAX_PERIOD_ROOTS:
        return None
    unit = 0
    for n, d in ratios:
        unit = math.gcd(unit, n * (den // d))
    roots = 2 * (n0 * (den // d0) // unit)
    if roots > _MAX_PERIOD_ROOTS:
        return None
    # P = 2*pi*D/c: Python rounds a quotient of integers correctly, once
    # for hi and once for the remainder lo.
    num, div = _TWO_PI_SCALED * den, unit << _TWO_PI_SHIFT
    hi = num / div
    a, b = hi.as_integer_ratio()
    return Period(hi, (num * b - a * div) / (div * b), roots)
