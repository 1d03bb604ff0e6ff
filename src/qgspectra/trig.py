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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Term",
    "TrigSpectralFunction",
    "DerivativeLadder",
    "NormalizeError",
    "OrderCapError",
    "normalize",
    "evaluate",
    "eval_grid",
    "derivative_level",
    "regularity_sum",
    "REGULARITY_MARGIN",
    "is_regular",
    "build_ladder",
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

    def __call__(self, k):
        if isinstance(k, np.ndarray):
            return eval_grid(self, k)
        return evaluate(self, float(k))


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


def _canon_phase(gamma: float) -> float:
    # fmod is exact for doubles, so phases that differ by an even integer
    # collapse to bitwise-identical representatives.
    g = math.fmod(gamma, 2.0)
    if g < 0.0:
        g += 2.0
    return g + 0.0  # -0.0 -> +0.0


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
    g0c = _canon_phase(gamma0)
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
        g = _canon_phase(g)
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


def evaluate(f: TrigSpectralFunction, k: float) -> float:
    """Value of the cosine sum at a single point."""
    acc = math.cos(f.s0 * k - _PI * f.gamma0)
    for s, g, a in f.terms:
        acc -= a * math.cos(s * k - _PI * g)
    return acc


def eval_grid(f: TrigSpectralFunction, ks) -> np.ndarray:
    """Vectorized evaluation on an array of points."""
    ks = np.asarray(ks, dtype=float)
    acc = np.cos(f.s0 * ks - _PI * f.gamma0)
    for s, g, a in f.terms:
        acc = acc - a * np.cos(s * ks - _PI * g)
    return acc


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


def is_regular(f: TrigSpectralFunction) -> bool:
    """Whether roots are confined between leading-cosine extrema."""
    return regularity_sum(f) < 1.0 - REGULARITY_MARGIN


def build_ladder(f: TrigSpectralFunction, max_order: int = 64) -> DerivativeLadder:
    """Differentiate until the regularity condition holds.

    Returns the ladder of levels ``0..M`` where ``M`` is the smallest level
    judged regular by :func:`is_regular` (a sum of exactly one still forces
    another step).  Raises :class:`OrderCapError` when no level at or below
    ``max_order`` is regular.
    """
    if max_order < 0:
        raise ValueError(f"max_order must be nonnegative, got {max_order}")
    levels = [f]
    while not is_regular(levels[-1]):
        if len(levels) > max_order:
            raise OrderCapError(
                f"order cap exceeded: no regular level at or below m={max_order}"
            )
        levels.append(derivative_level(levels[-1], 1))
    return DerivativeLadder(tuple(levels))
