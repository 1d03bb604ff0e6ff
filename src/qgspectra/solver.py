"""Separator-bracketed root extraction over the derivative ladder.

At the regular level the extrema of the leading cosine separate the roots:
the function value at those points alternates in sign, so every interval
between consecutive separators brackets exactly one root.  One level down,
the roots just found act as separators (they are the extrema of the level
below), and a root may legitimately coincide with a separator; that case is
detected by a magnitude test before any interior search.  Descending level
by level yields the complete spectrum of the original function.

Why the regular level needs nothing beyond its separators: let
``sigma = sum_j |a_j| < 1``, ``psi_j = (s_j - s0)*k - pi*(gamma_j - gamma0)``,
``w_j = a_j*exp(i*psi_j)`` and ``Z = 1 - sum_j w_j``.  Then
``g = |Z|*cos(theta)`` with ``theta = s0*k - pi*gamma0 + arg Z`` and
``|Z| >= 1 - sigma > 0``, and differentiating gives
``theta'/s0 = Re((1 - sum_j (1 - rho_j)*w_j) / Z)`` with
``rho_j = (s0 - s_j)/s0`` in ``(0, 1]``.  That is affine in each
``rho_j``, so its extremes lie at a vertex of the box: ``rho_j = 0`` on a
set A of terms and ``rho_j = 1`` on the rest, B.  There it equals
``Re(1/(1 - u))`` with ``u = W_B/(1 - W_A)`` and
``|u| <= sigma_B/(1 - sigma_A) < 1``, which lies between
``1/(1 + sigma)`` and ``1/(1 - sigma)``.  Hence

    s0/(1 + sigma) <= theta' <= s0/(1 - sigma),

so ``theta`` increases strictly, every root is simple and solves
``theta = (n + 1/2)*pi``, each interval between consecutive separators
holds exactly one root, and ``|g| >= 1 - sigma`` on the separators.

Each level is solved in one batch and evaluated only at its boundaries;
every interval whose end values differ in sign is one bracket.  Two
checks on those values refuse an incomplete table of the level above
with ``SeparatorFailure``.  (a) Rolle parity, on every descent: level m
is monotone between roots of level m+1, so ``sign(g_m(b) - g_m(a))``
flips across each simple upper root and repeats across a coincident one;
differences within the coincidence threshold are not read, and the parity
is carried across them.  (b) When level m+1 is regular, the bound above
fixes its root count: the separator index at or below each window end,
plus one where ``g_{m+1}`` there is within the threshold or has the sign
opposite to the separator's ``(-1)**n``.  With no descent (M = 0) the
count checks level 0 itself.  The coincidence threshold is one constant,
``trig.COINCIDENCE_TOL``, applied in one place, ``Derivatives.near_zero``:
it judges the differences (a) skips, the window-end values (b) ranks,
the coincidences on separators and the window edges.  A table missing an
even number of roots below the regular level passes both; catching that
needs an exact per-level zero count.

The bracket around each single sign change is then refined by
``trig.refine_roots``, a vectorized safeguarded Halley iteration that
the oracle shares, on the analytic derivatives: ``g_m' = s0 * g_{m+1}``
is the next level of the ladder, and ``g_m'' = s0**2 * g_{m+2}`` is
level m shifted by half a turn, so it reads the same cosines as
``g_m``.  One ``trig.Derivatives`` per level gives all three from one
phase matrix per iteration, stacking the phases of levels m and m+1,
and their rounding bounds.  Every bracket runs between extrema, of the
leading cosine at the regular level and of ``g_m`` on a descent, so the
iteration starts at the root of the half cosine wave through the end
values,
``lo + (hi - lo)*arccos((flo + fhi)/(fhi - flo))/pi``, which is exact for
a pure cosine.  After each evaluation at ``x``, the values already in
hand test the Halley point ``y``: the quadratic Taylor model at ``x``
must certify a sign change of ``g`` within ``tol = ROOT_TOL + 4*eps*|y|``
of ``y`` (``trig._certifier`` states the margin).  The bracket holds
exactly one root, so that root is then within ``tol`` of ``y``, and
``y`` is returned; most brackets stop after two evaluations.  Where the
test fails, Brent's stopping rule (the last step within ``tol``) ends
the element; at large k, where the rounding of ``g`` is wider than
``tol``, that is what ends the loop.  An element still running after
the iteration cap raises ``RefinementStall``.  A bracket at most
``2*ROOT_TOL`` wide is not refined: its midpoint is within ``ROOT_TOL``
of its root.

A commensurate sum, whose actions are all integer multiples of one unit
``omega``, satisfies ``g(k + P) = g(k)`` exactly with ``P = 2*pi/omega``
(``trig.period``), at every level of the ladder.  For a window longer
than ``2*P``, ``solve_ladder`` runs the sweep and the descents above only
on a head window of about ``3*P`` and tiles the rest.  Each level is cut
at three of its own boundaries a period apart, ``low < mid < cut``: the
top level at its separators, with ``cut`` the last one at or below
``2.5*P``, and each level below at the roots of the level above that
bound that level's two periods.  A level keeps its head roots up to
``cut``, followed by the images ``r + q*P``, q = 2, 3, ..., of its head
roots in ``(low, mid]``, the period whose roots carry the least rounding,
each with its root's ``coincident`` flag.  Each image is rounded once from
the exact double-double sum.  So every kept head root comes from a
bracket that ends at or below ``cut``, touching neither the head's end
nor the window's, and the tables below ``k_max`` do not depend on it; and
a coincident image is bitwise the image of the root of the level above
that it sits on.  On this path a root is in the window when its image is
at most ``k_max``; ``_sweep`` judges the window end by its value instead.
The certificate of an image is its root's: the stored sum is exactly
periodic, so ``r* + q*P`` is a root wherever ``r*`` is, and the one
rounding takes a root within ``ROOT_TOL + 4*eps*r`` of ``r*`` to an image
within ``ROOT_TOL + 4*eps*k`` of ``r* + q*P``.  The direct pipeline
answers instead when a level has no root below its lower period in the
head, or when the head's two periods below the cut differ in their
coincidences.

A level's roots are kept as a ``RootTable`` of two columns: the ascending
roots ``ks`` (float64) and a bool mask ``coincident`` of those found on a
separator.  Each column goes as is to the next level down, to the oracle's
comparison and to the counting-law audit; per-root ``RootEntry`` rows
(index ``n``, root ``k``, ``kind``) are built only when a caller iterates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import ClassVar, Iterator

import numpy as np

from .trig import (
    COINCIDENCE_TOL,
    ROOT_TOL,
    DerivativeLadder,
    Derivatives,
    TrigSpectralFunction,
    build_ladder,
    is_regular,
    period,
    refine_roots,
    regularity_sum,
)

__all__ = [
    "INTERIOR",
    "SEPARATOR_COINCIDENCE",
    "SolverConfig",
    "RootEntry",
    "RootTable",
    "LadderSolution",
    "RefinementStall",
    "SeparatorFailure",
    "regular_separators",
    "descend_level",
    "solve_ladder",
]

INTERIOR = "interior"
SEPARATOR_COINCIDENCE = "separator-coincidence"

class RefinementStall(RuntimeError):
    """Bracketed refinement failed to converge."""


class SeparatorFailure(RuntimeError):
    """The roots of level ``level + 1`` fail check (a) or (b) on ``interval``;
    ``values`` is the ``g`` that check read at its ends.

    ``level`` is the level those roots were to separate, so it is -1 when
    check (b) refuses a regular level 0 (order M = 0), which ``solve_ladder``
    checks after its sweep since no descent follows.
    """

    def __init__(self, detail: str, interval: tuple[float, float], level: int,
                 values: tuple[float, float]):
        super().__init__(f"separator failure at level {level} on {interval}: {detail}; "
                         f"g = {values[0]!r}, {values[1]!r} at the ends")
        self.interval = interval
        self.level = level
        self.values = values


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """The window (0, k_max] of the ladder solver; nothing else is a setting.

    Roots are placed within ``trig.ROOT_TOL``, ``Derivatives.near_zero``
    applies ``trig.COINCIDENCE_TOL``, relative to ``1 + sum|a_j|`` of the
    level tested, and ``trig.MAX_ORDER`` caps the ladder.  ``root_tol``
    and ``coincidence_tol`` read the two tolerances, for a caller that
    hands them to ``scan_roots``.
    """

    coincidence_tol: ClassVar[float] = COINCIDENCE_TOL
    root_tol: ClassVar[float] = ROOT_TOL

    k_max: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k_max) and self.k_max > 0.0):
            raise ValueError(f"k_max must be positive and finite, got {self.k_max}")
        if not self.k_max > ROOT_TOL:  # _sweep starts the window at ROOT_TOL
            raise ValueError(f"k_max must exceed ROOT_TOL = {ROOT_TOL:g}, got {self.k_max}")


@dataclass(frozen=True, slots=True)
class RootEntry:
    n: int
    k: float
    kind: str


_KINDS = (INTERIOR, SEPARATOR_COINCIDENCE)


@dataclass(frozen=True, slots=True, eq=False)
class RootTable:
    """Roots of one ladder level as two read-only columns, ascending in k.

    ``ks`` holds the roots and ``coincident`` marks those that sit on a
    separator (zeros of even order).  Row ``i`` is root ``n = i + 1``;
    indexing and iteration build its ``RootEntry`` on demand.
    """

    level: int
    ks: np.ndarray
    coincident: np.ndarray

    def __post_init__(self) -> None:
        ks = np.array(self.ks, dtype=float)
        coincident = np.array(self.coincident, dtype=bool)
        if ks.ndim != 1 or coincident.shape != ks.shape:
            raise ValueError(
                "ks and coincident must be 1-d and of one length, got shapes "
                f"{ks.shape} and {coincident.shape}"
            )
        if not (np.isfinite(ks).all() and np.all(ks[1:] > ks[:-1])):
            raise ValueError(f"roots must be finite and strictly increase, got {ks}")
        ks.setflags(write=False)
        coincident.setflags(write=False)
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "coincident", coincident)

    def __len__(self) -> int:
        return self.ks.size

    def __getitem__(self, i: int) -> RootEntry:
        n = range(1, self.ks.size + 1)[operator.index(i)]
        return RootEntry(n, self.ks[n - 1].tolist(), _KINDS[self.coincident[n - 1].tolist()])

    def __iter__(self) -> Iterator[RootEntry]:
        rows = zip(self.ks.tolist(), self.coincident.tolist())
        for n, (k, c) in enumerate(rows, start=1):
            yield RootEntry(n, k, _KINDS[c])


@dataclass(frozen=True, slots=True)
class LadderSolution:
    """Ladder plus one root table per level, ordered from level M down to 0."""

    ladder: DerivativeLadder
    tables: tuple[RootTable, ...]

    @property
    def spectrum(self) -> RootTable:
        return self.tables[-1]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        ks = self.spectrum.ks
        return tuple((ks * ks).tolist())

    def table(self, level: int) -> RootTable:
        order = self.ladder.order
        if not 0 <= level <= order:
            raise ValueError(f"level must be in 0..{order}, got {level}")
        return self.tables[order - level]


def regular_separators(f: TrigSpectralFunction, k_max: float) -> np.ndarray:
    """Extrema of the leading cosine in (0, k_max], ascending.

    Only valid for regular functions: there the perturbation cannot flip
    the sign of the leading cosine at its extrema, so consecutive
    separators bracket exactly one root each.
    """
    if not is_regular(f):
        raise ValueError(
            "regularity condition violated: amplitude sum "
            f"{regularity_sum(f)} is not below 1"
        )
    spacing = math.pi / f.s0
    # One index past each end of the window; the mask below trims them.
    n = np.arange(math.floor(-f.gamma0), math.ceil(k_max / spacing - f.gamma0) + 2)
    ks = (f.gamma0 + n) * spacing
    return ks[(ks > 0.0) & (ks <= k_max)]


def _bracket_roots(derivs: Derivatives, lo, hi, flo, fhi) -> np.ndarray:
    """The root inside each sign-change bracket ``[lo, hi]``, all at once.

    Every bracket runs between extrema, of the leading cosine or of the
    level below, so ``trig.refine_roots`` starts at the root of the half
    cosine wave through the end values, exact for a pure cosine.  A
    stalled element raises ``RefinementStall``.
    """
    start = lo + (hi - lo) * np.arccos((flo + fhi) / (fhi - flo)) / math.pi
    ks, _ = refine_roots(derivs, lo, hi, flo, start, float(hi.max(initial=0.0)), ROOT_TOL)
    stalled = np.flatnonzero(np.isnan(ks))
    if stalled.size:
        i = stalled[0]
        raise RefinementStall(f"refinement stall on [{lo[i]}, {hi[i]}]")
    return ks


def _sweep(derivs: Derivatives, boundaries: np.ndarray, cfg: SolverConfig, level: int,
           upper_coincident: np.ndarray | None = None) -> RootTable:
    """Root table of ``f = derivs.f`` in (0, k_max], bracketed by the given
    boundary points.

    Boundaries are either regular-level separators (``upper_coincident`` is
    None) or the roots of the level above with its ``coincident`` column; in
    the latter case the values pass the Rolle check first, and a boundary
    where ``derivs.near_zero`` judges ``f`` zero is itself recorded as a
    root and its two adjacent intervals are skipped.
    The window edges get the same magnitude test: a vanishing value at the
    lower edge is the trivial zero at k=0, which is excluded from the
    counting, while one at ``k_max`` is recorded as a root.
    """
    lo, hi = ROOT_TOL, cfg.k_max
    inside = (lo < boundaries) & (boundaries < hi)
    pts = np.concatenate(([lo], boundaries[inside], [hi]))
    vals = derivs.g(pts)
    small = derivs.near_zero(vals)

    coinc = np.zeros(pts.size, dtype=bool)
    if upper_coincident is not None:
        coinc[1:-1] = small[1:-1]
        rise = np.diff(vals)
        read = np.flatnonzero(~derivs.near_zero(rise))
        flips = np.cumsum(np.concatenate(([False], ~upper_coincident[inside])))
        turned = (rise[read] > 0.0) ^ (flips[read] % 2 == 1)
        bad = np.flatnonzero(turned[1:] != turned[:-1])
        if bad.size:
            ends = [read[bad[0]], read[bad[0] + 1] + 1]
            raise SeparatorFailure("the directions do not alternate (Rolle)",
                                   tuple(pts[ends].tolist()), level, tuple(vals[ends].tolist()))
    skip = coinc[:-1] | coinc[1:]
    skip[0] |= small[0]
    # A tiled table (solve_ladder) has no window-end value to judge: there
    # a root is in the window when its image is at most k_max.
    edge = bool(small[-1] and not skip[-1])
    skip[-1] |= edge

    iv = np.flatnonzero(~skip & (vals[:-1] * vals[1:] < 0.0))
    # A bracket at most 2*ROOT_TOL wide already has its root within
    # ROOT_TOL of its midpoint.
    narrow = pts[iv + 1] - pts[iv] <= 2.0 * ROOT_TOL
    nv, iv = iv[narrow], iv[~narrow]
    interior = np.concatenate((
        0.5 * (pts[nv] + pts[nv + 1]),
        _bracket_roots(derivs, pts[iv], pts[iv + 1], vals[iv], vals[iv + 1]),
    ))

    ks = np.concatenate((pts[coinc], interior, pts[-1:] if edge else pts[:0]))
    is_coinc = np.arange(ks.size) < coinc.sum()
    order = np.argsort(ks, kind="stable")
    return RootTable(level, ks[order], is_coinc[order])


def descend_level(
    f_lower: TrigSpectralFunction,
    upper_roots: RootTable,
    cfg: SolverConfig,
) -> RootTable:
    """Roots of the level below, using the level above's roots as separators.

    ``upper_roots`` must be the complete root table of the derivative level
    of ``f_lower`` over the same window; if that level is regular, its
    size is checked first by the count (b).
    """
    derivs = Derivatives(f_lower)
    if derivs.regular(1):
        _check_count(derivs, 1, upper_roots, cfg)
    return _sweep(derivs, upper_roots.ks, cfg, upper_roots.level - 1, upper_roots.coincident)


def _check_count(derivs: Derivatives, level: int, roots: RootTable, cfg: SolverConfig) -> None:
    """Check (b): the table ``roots`` of the regular level ``level`` (0 or 1)
    of ``derivs`` holds as many roots as its separators give."""
    ends = np.array([ROOT_TOL, cfg.k_max])
    g = derivs.g(ends, level)
    # Level 1 keeps s0 and shifts the leading phase by -1/2.
    n = np.floor(ends / (math.pi / derivs.f.s0) - (derivs.f.gamma0 - 0.5 * level))
    rank = n + (derivs.near_zero(g, level=level) | ((g < 0.0) != (n % 2 == 1)))
    if len(roots) != rank[1] - rank[0]:
        raise SeparatorFailure(
            f"the regular level above holds {len(roots)} roots, its "
            f"separators give {int(rank[1] - rank[0])}",
            (ROOT_TOL, cfg.k_max), roots.level - 1, tuple(g.tolist()))


def _solve_direct(ladder: DerivativeLadder, cfg: SolverConfig) -> LadderSolution:
    """The tables of every level of ``ladder`` over (0, k_max], swept and
    descended over the whole window."""
    order = ladder.order
    top = Derivatives(ladder.top)
    seps = regular_separators(ladder.top, cfg.k_max)
    tables = [_sweep(top, seps, cfg, order)]
    if order == 0:
        # No descent checks level 0 against its separators, so check it here.
        _check_count(top, 0, tables[0], cfg)
    for m in range(order - 1, -1, -1):
        tables.append(descend_level(ladder[m], tables[-1], cfg))
    return LadderSolution(ladder=ladder, tables=tuple(tables))


def solve_ladder(f: TrigSpectralFunction, cfg: SolverConfig) -> LadderSolution:
    """Complete spectrum of ``f`` over (0, k_max].

    Builds the derivative ladder, extracts the regular level's roots
    between leading-cosine extrema, then walks the ladder back down with
    each level's roots separating the next.  Root tables are returned for
    every level, ordered M..0; eigenvalues are the squared level-0 roots.

    When ``trig.period`` finds the period ``P`` of ``f`` and the window is
    longer than ``2*P``, that pipeline runs only on a head window of about
    ``3*P``.  Each level keeps the head's roots up to a cut on one of its
    own boundaries and continues with the images ``r + q*P`` of one
    period of head roots below the cut (see the module docstring).  A
    root is then in the window when its image is at most ``k_max``, and
    each image, rounded once, is within ``ROOT_TOL + 4*eps*k`` of a root
    because the stored sum is exactly periodic.  Shorter windows, sums
    without a period and levels too sparse to tile take the whole window
    through the pipeline.
    """
    spacing = math.pi / f.s0
    # A root is placed within ROOT_TOL, so a tolerance of half the
    # separator spacing or more says nothing the separators do not.
    if not 2.0 * ROOT_TOL < spacing:
        raise ValueError(
            f"s0 = {f.s0} is too large: the separator spacing pi/s0 = {spacing} "
            f"must exceed twice the root tolerance, {2.0 * ROOT_TOL:g}"
        )
    ladder = build_ladder(f)
    per = period(f)
    if per is None or not cfg.k_max > 2.0 * per.hi:
        return _solve_direct(ladder, cfg)
    # The top level's separators are (gamma + n)*spacing, per.roots of
    # them to a period.  Cut at the last one at or below 2.5 periods, and
    # end the head half a period above it, on a separator too.
    gamma = ladder.top.gamma0
    n = math.floor(2.5 * per.roots - gamma)
    head = _solve_direct(ladder, replace(cfg, k_max=(gamma + n + per.roots // 2) * spacing))
    # Each level is cut at three of its boundaries a period apart: the cut
    # itself, the middle and the low end.
    cut = (gamma + n) * spacing
    bounds = (cut - 2.0 * per.hi, cut - per.hi, cut)
    tables = []
    for t in head.tables:
        low, mid, keep = np.searchsorted(t.ks, bounds, side="right")
        # The head's two periods below the cut must agree.
        if not (low and np.array_equal(t.coincident[low:mid], t.coincident[mid:keep])):
            return _solve_direct(ladder, cfg)
        # The lower period is imaged, where the roots carry the least rounding.
        stop = int((cfg.k_max - bounds[0]) // per.hi) + 2
        ks = np.concatenate((t.ks[:keep], per.images(t.ks[low:mid], 2, stop)))
        coincident = np.concatenate((t.coincident[:keep], np.tile(t.coincident[low:mid], stop - 2)))
        end = np.searchsorted(ks, cfg.k_max, side="right")
        tables.append(RootTable(t.level, ks[:end], coincident[:end]))
        bounds = t.ks[[low - 1, mid - 1, keep - 1]]
    return LadderSolution(ladder=ladder, tables=tuple(tables))
