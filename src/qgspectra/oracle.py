"""Root finding by derivative-bound cells, and cross-checks; independent of the ladder.

``scan_roots`` cuts the window into cells of width ``pi/(4*s0)`` and reads
``g``, ``g'`` and ``g''`` at each cell end from one cosine matrix, all
from one ``trig.Derivatives`` built per call.  ``B_p`` bounds the p-th
derivative of ``g`` everywhere, and the computed one is within the
rounding bound ``err_p(x)``, which grows linearly in ``x`` (both derived
in ``trig.Derivatives``; the solver's stopping rule shares them).  A
cell of width ``w`` is then, checking in this order:

- **root-free** when ``|g| > |g'| w + B2 w**2/2 + err_0`` at either end
  (Taylor's bound keeps ``g`` away from zero across the cell);
- **monotone** when ``max |g'| > B2 w + err_1``: it holds one root
  exactly when ``g`` changes sign;
- **one extremum** when ``max |g''| > B3 w + err_2``: if ``g'`` changes
  sign, its root is the extremum ``x*``, which is a tangent
  (double) root when ``|g(x*)|`` is within both ``err_0`` and
  ``coincidence_tol * (1 + sum|a|)``, as ``Derivatives.near_zero`` judges
  it; otherwise each side whose end value differs in sign from ``g(x*)``
  holds one simple root.  Without a sign change of ``g'`` the cell is
  monotone;
- otherwise halved, down to the floor ``B2 w**2/2 <= err_0``, where a
  cell gives a root only on a sign change of ``g``.

An exact zero of ``g`` at a cell's right end is a root; the left end
belongs to the cell before, or to the excluded window start.

The tangent test is the oracle's one value decision.  Three rules on
widths and distances are its own and do not go through
``Derivatives.near_zero``: the floor cell above, the cut of roots within
``refine_tol`` of the window start, and the merge of a root within
``4*refine_tol`` of the last one kept.  A certified near-zero decision
has to replace them too.

Each root of ``g``, and each extremum as a root of level 1 ``g'/s0`` on
its own ``trig.Derivatives``, is refined by ``trig.refine_roots``, the
certified Halley refinement the solver uses, started at the secant point
of the end values its cell already holds: every sign-change cell, both
sides of each split extremum, and each extremum.  An element it
certifies is within ``refine_tol + 4*eps*|k|`` of a sign change of the
level it refines.  An element it leaves uncertified, which its step rule
or a stall ends, as at a star's extremum at k = 0 or a near-double root,
is refined again from its cell by ``_refine``.

``_refine`` is a batched interval Newton (Moore; Tucker, *Validated
Numerics*, 2011), each cell stopping on its own.  At the midpoint ``m``
of a cell of half-width ``r`` it reads ``F = g(m)`` and ``D = g'(m)``
of the level it refines, with ``e = err_0(m)`` and
``delta = B_2 r + err_1(m)``.  Where ``|D| > delta`` the root
lies in ``m - [F - e, F + e] / [D - delta, D + delta]`` (mean value
theorem), rounded outward by two ulps, and the cell is cut to that.  The
cell is halved on the sign of ``F`` only where that sign is certain,
``|F| > e``, or Newton does not apply: a sign within rounding of zero
could cut the root away.  A cell stops when it is at most
``refine_tol`` wide, at an exact zero ``F == 0``, or when Newton
applies and ``|F| <= e``, since the enclosure, about ``2e/|D|`` wide,
is then as tight as rounding lets it be certified.  So every root the
scan reports carries a certificate.

The floor rule has a blind spot: a tangency where ``g''`` is also within
rounding of zero reaches the floor, and unless ``g`` changes sign there
it is missed.  More generally, where ``|g|`` stays within ``err_0`` over
a stretch, as around a triple root, the computed signs are rounding
noise and each sign flip counts as a root.  Both hold whichever routine
refines a cell's root, the certified one or ``_refine``: what the scan
counts is decided by its cells alone.  The same holds where a grid point
lands on a structural double root that the stored floats split.  The
worked star's stored amplitudes sum to ``1 - 5.55e-17``, so its double
roots at ``m*pi`` are two simple roots ``9.1e-10`` either side of it,
and ``g(float(m*pi))`` computes to ``+-5.55e-17``.  A cell seeing the
tangency from its ends reports one root; but where ``float(m*pi)`` is a
grid point, as on ``(0, 6*pi]``, the cells on both sides change sign
and give two, such as 3.141592652049879 and 3.1415926535898064.  On
``(0, 6*pi]`` the scan reports 113 roots and the solver 107.

**Periodic windows.**  A sum whose actions share a unit ``omega`` is
exactly periodic: ``g(k + P) = g(k)`` with ``P = 2*pi/omega``
(``trig.period``).  A window more than ``_TILE_PERIODS`` periods long is
then tiled.  The cell pass above runs, with one ``Derivatives``, only on
two stretches of the window's own cell grid: a head of about ``2.5*P``
from ``lo`` and a tail of one to two periods ending at ``hi``.  Each of
their cells is a cell of the whole-window scan, classified and refined
on its own, so their roots are bitwise that scan's, window ends
included.  The cut ``c`` is the right end of the first head cell above
``lo + P`` that Taylor's bound certifies root-free, so no root lies on
``c`` or on any image ``c + q*P``.  Period A is ``(c - P, c]`` and
period B ``(c, c + P]``.  The tail starts at least a cell below
``c_t``, the image of ``c`` one to two periods below ``hi``.  The scan
returns the head's roots up to ``c``, the images ``r + q*P`` of A's
roots that fill ``(c, c_t]``, each rounded once from the double-double
sum (``trig.Period.images``), and the tail's roots above ``c_t``.  Two
checks must pass, each pairing the roots off with the same count and
within ``refine_tol + 4*eps*k``: B less one period matches A, and the
tail's last full period ``(c_t, c_t + P]`` matches its images of A,
where rounding is largest.  Where no head cell qualifies for the cut,
or a check fails, the whole window is scanned.  The images rest on the
exact period of the stored sum: the image of a root of A carries that
root's certificate, and its one rounding adds at most half an ulp.

No derivative ladder past level 1, no separator structure, nothing
imported from the solver; this is the reference implementation the fast
solver is audited against.  It shares with the solver only ``trig``: the
evaluator, its bounds, level 1, the certified refinement and the period
with its images, none of which decides a count.

The Weyl audit checks the root count against the leading-order expectation
``s0 * k / pi``; for a regular function the deviation is bounded by the
number of perturbing terms plus one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .trig import (COINCIDENCE_TOL, ROOT_TOL, Derivatives, Period, TrigSpectralFunction,
                   derivative_level, period, refine_roots)

# A window is tiled when it is longer than this many periods; the cost
# behind the rule is in ``scan_roots``.
_TILE_PERIODS = 16

__all__ = [
    "OracleReport",
    "WeylAudit",
    "scan_roots",
    "compare",
    "weyl_audit",
]

@dataclass(frozen=True, slots=True)
class OracleReport:
    """Outcome of comparing a solver root list against an oracle scan."""

    scan_step: float
    # Largest deviation among the roots that matched before any failure;
    # 0.0 on a count mismatch.
    max_deviation: float
    verdict: str
    mismatch_index: int | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True, slots=True)
class WeylAudit:
    expected: float
    actual: int
    deviation: float

    def within(self, bound: float) -> bool:
        return self.deviation <= bound


def _refine(d: Derivatives, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
            tol: float) -> np.ndarray:
    """Per-element interval Newton on ``g = d.f`` over cells ``[lo, hi]``.

    ``d`` gives the values and bounds, and ``flo`` has the sign of ``g``
    at ``lo``; each cell holds a sign change.  The step and its
    stop rule are in the module docstring; a cell also stops after 200
    steps.  Finished cells leave the batch, so only live ones are evaluated.
    """
    out = 0.5 * (lo + hi)
    live = hi - lo > tol
    idx, lo, hi, flo = np.flatnonzero(live), lo[live], hi[live], flo[live]
    for _ in range(200):
        if not idx.size:
            break
        mid = 0.5 * (lo + hi)
        fm, dm, _ = d(mid)
        e = d.err(0, mid)
        delta = d.B[2] * np.maximum(mid - lo, hi - mid) + d.err(1, mid)
        # Newton applies where g' has no zero on the cell; where it does
        # and g is within rounding of zero, the cell stops.
        newton = np.abs(dm) > delta
        halve = (np.abs(fm) > e) | ~newton
        left = halve & (flo * fm < 0.0)
        right = halve & ~left
        hi = np.where(left, mid, hi)
        lo, flo = np.where(right, mid, lo), np.where(right, fm, flo)
        # The root is in mid - [fm - e, fm + e] / [dm - delta, dm + delta].
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.stack([(fm + s * e) / (dm + t * delta) for s in (-1, 1) for t in (-1, 1)])
        nlo = np.nextafter(np.nextafter(mid - q.max(axis=0), -np.inf), -np.inf)
        nhi = np.nextafter(np.nextafter(mid - q.min(axis=0), np.inf), np.inf)
        lo = np.where(newton, np.maximum(lo, nlo), lo)
        hi = np.where(newton, np.minimum(hi, nhi), hi)
        hit = fm == 0.0
        out[idx] = np.where(hit, mid, 0.5 * (lo + hi))
        live = halve & ~hit & (hi - lo > tol)
        idx, lo, hi, flo = idx[live], lo[live], hi[live], flo[live]
    return out


def _certified_roots(d: Derivatives, lo: np.ndarray, hi: np.ndarray,
                     flo: np.ndarray, fhi: np.ndarray, x_max: float, tol: float) -> np.ndarray:
    """The root of ``g = d.f`` in each cell ``[lo, hi]`` whose end values
    ``flo`` and ``fhi``, of ``g`` or any positive multiple of it, differ
    in sign.

    ``trig.refine_roots`` starts each cell at the secant point of its end
    values; the cells it leaves uncertified go to ``_refine``.
    """
    start = lo + flo * (hi - lo) / (flo - fhi)
    roots, certified = refine_roots(d, lo, hi, flo, start, x_max, tol)
    rest = ~certified
    roots[rest] = _refine(d, lo[rest], hi[rest], flo[rest], tol)
    return roots


def scan_roots(
    f: TrigSpectralFunction,
    window: tuple[float, float],
    refine_tol: float = ROOT_TOL,
    coincidence_tol: float = COINCIDENCE_TOL,
) -> tuple[np.ndarray, float]:
    """All roots of ``f`` in ``(lo, hi]`` by derivative-bound cells.

    Tangent roots are counted once.  Returns the ascending roots as an
    array and the starting cell width, ``pi/(4*s0)``; see the module
    docstring for the rules.  Both tolerances must be positive and
    finite; they default to the solver's, ``trig.ROOT_TOL`` and
    ``trig.COINCIDENCE_TOL``.
    A root certified by ``trig.refine_roots`` lies within
    ``refine_tol + 4*eps*|k|`` of a root of ``f``, the solver's rule,
    rather than within ``refine_tol``: 2.3e-12 at k = 1500 with the
    default ``refine_tol``.  Any other lies in its interval-Newton
    enclosure, at most ``refine_tol`` wide or as tight as rounding allows.

    A window of a periodic sum (``trig.period``) more than
    ``_TILE_PERIODS`` = 16 periods long is tiled: only a head and a tail
    stretch of the window's cell grid are scanned, bitwise as the whole
    window would scan them, and the middle is imaged from one period of
    the head.  Where its two checks or its cut fail, the whole window is
    scanned (see the module docstring).  The rule comes from the cost.
    The tiled scan runs the cell pass on at most ``4.5*P`` of grid and
    three cells, but pays a second stretch, the images and the checks:
    on the worked star and chain (2-core x86-64) it breaks even with the
    whole-window scan at about 10 periods, 1.35 ms against 1.40 and
    0.73 ms against 0.73, and at 16 takes 0.81x and 0.73x of its time.
    Above 16 periods it scans under 30% of the grid, and the
    repository's specs, at most 8 periods at their own windows, stay on
    the whole-window scan.
    """
    lo, hi = window
    if not (0.0 <= lo < hi < math.inf):
        raise ValueError(f"bad window ({lo}, {hi})")
    _check_tol("refine_tol", refine_tol)
    _check_tol("coincidence_tol", coincidence_tol)
    step = math.pi / (4.0 * f.s0)
    d = Derivatives(f)
    xs = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / step)) + 1)
    per = period(f)
    if per is not None and hi - lo > _TILE_PERIODS * per.hi:
        roots = _tiled(d, xs, per, refine_tol, coincidence_tol)
        if roots is not None:
            return roots, step
    v = np.stack(d(xs))
    return _scan(d, xs[:-1], xs[1:], v[:, :-1], v[:, 1:], lo, hi, refine_tol,
                 coincidence_tol), step


def _check_tol(name: str, tol: float) -> None:
    # Any other tolerance gives a wrong answer, not an error: compare passes
    # every deviation against nan, and the scan drops or adds roots.
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {tol}")


def _free(vl: np.ndarray, vr: np.ndarray, w: np.ndarray, curv: np.ndarray,
          e0: np.ndarray) -> np.ndarray:
    """Where Taylor's bound keeps ``g`` from zero across cells of width ``w``,
    given ``curv = B2 w**2/2`` and the rounding bound ``e0`` of ``g``."""
    return ((np.abs(vl[0]) > np.abs(vl[1]) * w + curv + e0)
            | (np.abs(vr[0]) > np.abs(vr[1]) * w + curv + e0))


def _scan(d: Derivatives, xl: np.ndarray, xr: np.ndarray, vl: np.ndarray, vr: np.ndarray,
          lo: float, hi: float, refine_tol: float, coincidence_tol: float) -> np.ndarray:
    """The roots of ``g = d.f`` in the cells ``[xl, xr]`` of the window ``(lo, hi]``.

    ``vl`` and ``vr`` hold ``g``, ``g'`` and ``g''`` at the cell ends.
    Each cell is classified, split and refined on its own, so a cell's
    roots do not depend on which other cells are scanned with it.
    """
    b = d.B
    settled, zeros = [], []
    while xl.size:
        w = xr - xl
        e0 = d.err(0, xr)
        curv = 0.5 * b[2] * w * w
        free = _free(vl, vr, w, curv, e0)
        mono = np.maximum(np.abs(vl[1]), np.abs(vr[1])) > b[2] * w + d.err(1, xr)
        ext = np.maximum(np.abs(vl[2]), np.abs(vr[2])) > b[3] * w + d.err(2, xr)
        done = ~free & (mono | ext | (curv <= e0))
        # A cell with one extremum turns where g' changes sign; one where
        # it does not is monotone.  Only cells that turn or change sign
        # can hold a root inside; the rest give at most their exact
        # right-end zero.
        turn = ext & ~mono & (vl[1] * vr[1] < 0.0)
        zeros.append(xr[done & (vr[0] == 0.0)])
        keep = done & (turn | (vl[0] * vr[0] < 0.0))
        settled.append((xl[keep], xr[keep], vl[:, keep], vr[:, keep], turn[keep]))
        split = ~free & ~done
        xm = 0.5 * (xl[split] + xr[split])
        vm = np.stack(d(xm))
        xl, xr = np.concatenate((xl[split], xm)), np.concatenate((xm, xr[split]))
        vl = np.concatenate((vl[:, split], vm), axis=1)
        vr = np.concatenate((vm, vr[:, split]), axis=1)
    xl, xr, vl, vr, turn = (np.concatenate(parts, axis=-1) for parts in zip(*settled))

    # An extremum is a root of level 1, g'/s0: the end values of g' have its signs.
    x_star = _certified_roots(Derivatives(derivative_level(d.f, 1)), xl[turn], xr[turn],
                              vl[1, turn], vr[1, turn], hi, refine_tol)
    g_star = d.g(x_star)
    tangent = d.near_zero(g_star, coincidence_tol, x=x_star)
    left = ~tangent & (vl[0, turn] * g_star < 0.0)
    right = ~tangent & (vr[0, turn] * g_star < 0.0)
    cross = ~turn & (vl[0] * vr[0] < 0.0)
    refined = _certified_roots(
        d,
        np.concatenate((xl[cross], xl[turn][left], x_star[right])),
        np.concatenate((xr[cross], x_star[left], xr[turn][right])),
        np.concatenate((vl[0, cross], vl[0, turn][left], g_star[right])),
        np.concatenate((vr[0, cross], g_star[left], vr[0, turn][right])),
        hi, refine_tol,
    )
    roots = np.sort(np.concatenate((x_star[tangent], refined, *zeros)))
    return _merge_close(roots[roots > lo + refine_tol], refine_tol)


def _tiled(d: Derivatives, xs: np.ndarray, per: Period, refine_tol: float,
           coincidence_tol: float) -> np.ndarray | None:
    """The roots of the periodic ``g = d.f`` on the grid ``xs``, scanning a
    head and a tail stretch of it and imaging the rest; None where no head
    cell qualifies for the cut or a check fails.

    The cut ``c`` is the right end of the first root-free head cell in
    ``(lo + P + 2 cells, lo + 1.5 P]``, so that no root of ``g`` lies on
    ``c`` or on any image ``c + q P``.  Period A is ``(c - P, c]`` and
    period B ``(c, c + P]``; the tail runs from a cell below the last
    image ``c_t`` of ``c`` at or below ``hi - P`` to ``hi``.
    """
    lo, hi = float(xs[0]), float(xs[-1])
    head = xs[:np.searchsorted(xs, lo + 2.5 * per.hi) + 1]
    vh = np.stack(d(head))
    w = head[1:] - head[:-1]
    free = _free(vh[:, :-1], vh[:, 1:], w, 0.5 * d.B[2] * w * w, d.err(0, head[1:]))
    ends = head[1:][free]
    ends = ends[(ends > lo + per.hi + 2.0 * w[0]) & (ends <= lo + 1.5 * per.hi)]
    if not ends.size:
        return None
    c = ends[:1]
    periods = int((hi - c[0]) // per.hi)
    cuts = per.images(c, 1, periods + 1)
    tail = xs[np.searchsorted(xs, cuts[-2]) - 2:]
    vt = np.stack(d(tail))
    roots = _scan(d, np.concatenate((head[:-1], tail[:-1])), np.concatenate((head[1:], tail[1:])),
                  np.concatenate((vh[:, :-1], vt[:, :-1]), axis=1),
                  np.concatenate((vh[:, 1:], vt[:, 1:]), axis=1),
                  lo, hi, refine_tol, coincidence_tol)
    bounds = np.searchsorted(roots, [c[0] - per.hi, c[0], cuts[0], cuts[-2], cuts[-1]],
                             side="right")
    a = roots[bounds[0]:bounds[1]]
    images = per.images(a, 1, periods + 1).reshape(periods, a.size)
    # B less one period matches A, and so does the tail's last full period
    # less its count of periods, where the rounding is largest.
    if not (_matches(images[0], roots[bounds[1]:bounds[2]], refine_tol)
            and _matches(images[-1], roots[bounds[3]:bounds[4]], refine_tol)):
        return None
    return np.concatenate((roots[:bounds[1]], images[:-1].ravel(), roots[bounds[3]:]))


def _matches(images: np.ndarray, roots: np.ndarray, tol: float) -> bool:
    """Whether ``images`` and ``roots`` pair off within ``tol + 4*eps*k``."""
    return images.size == roots.size and bool(
        np.all(np.abs(images - roots) <= tol + 4.0 * np.finfo(float).eps * roots))


def _merge_close(roots: np.ndarray, tol: float) -> np.ndarray:
    """The ascending ``roots`` less each one within ``4*tol`` of the last kept.

    A root more than ``4*tol`` above the one before it is that far above
    every kept root too (rounded subtraction is monotone), so only the
    others are measured again, in order, from the last root kept.
    """
    keep = np.diff(roots, prepend=-np.inf) > 4.0 * tol
    last = 0
    for i in np.flatnonzero(~keep).tolist():
        if keep[i - 1]:
            last = i - 1
        keep[i] = roots[i] - roots[last] > 4.0 * tol
    return roots[keep]


def compare(
    solver_roots: Sequence[float] | np.ndarray,
    oracle_roots: Sequence[float] | np.ndarray,
    tol: float = 1e-9,
    scan_step: float = float("nan"),
) -> OracleReport:
    """Position-by-position match of two ascending root sequences."""
    _check_tol("tol", tol)
    a = np.asarray(solver_roots, dtype=float)
    b = np.asarray(oracle_roots, dtype=float)
    m = min(a.size, b.size)
    dev = np.abs(a[:m] - b[:m])
    # Not dev > tol: a nan deviation must fail at its index, as inf does.
    bad = np.flatnonzero(~(dev <= tol))
    # The first index where the lists disagree; when the common prefix
    # matches and the counts differ, the divergence is right past it.
    where = int(bad[0]) if bad.size else m
    if a.size != b.size:
        return OracleReport(scan_step, 0.0, "fail", where, (
            f"count mismatch: solver found {a.size} roots, oracle found {b.size} "
            f"(lists diverge at index {where})"
        ))
    max_deviation = float(dev[:where].max(initial=0.0))
    if bad.size:
        return OracleReport(scan_step, max_deviation, "fail", where, (
            f"root {where + 1} deviates by {dev[where]:.3e} (solver {float(a[where])!r}, "
            f"oracle {float(b[where])!r}, tol {tol:g})"
        ))
    return OracleReport(scan_step, max_deviation, "pass")


def weyl_audit(
    roots,
    s0: float,
    window: tuple[float, float],
) -> WeylAudit:
    """Root count against the leading-order counting law ``s0*k/pi``.

    The expected count over ``(lo, hi]`` is ``s0*(hi-lo)/pi``; the audit
    reports the absolute deviation of the actual count.  ``roots`` is a
    sequence of numbers, each counting once, or a root table: anything
    with a ``ks`` column and a bool ``coincident`` column of the same
    length.  A coincident root is a zero of even order and counts twice,
    which is what the counting law sees.
    """
    lo, hi = window
    if hi <= lo:
        return WeylAudit(expected=0.0, actual=0, deviation=0.0)
    ks = np.asarray(getattr(roots, "ks", roots), dtype=float)
    weight = 1 + np.asarray(getattr(roots, "coincident", False), dtype=int)
    actual = int(np.sum(weight * ((lo < ks) & (ks <= hi))))
    expected = s0 * (hi - lo) / math.pi
    return WeylAudit(expected=expected, actual=actual, deviation=abs(actual - expected))
