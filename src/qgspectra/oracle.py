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

Each root of ``g`` (p = 0) and each extremum, a root of ``g'`` (p = 1),
is refined by ``trig.refine_roots``, the certified Halley refinement the
solver uses, started at the secant point of the end values its cell
already holds: every sign-change cell, both sides of each split
extremum, and each extremum.  An element it certifies is within
``refine_tol + 4*eps*|k|`` of a sign change of ``g^(p)``.  An element
it leaves uncertified, which its step rule or a stall ends, as at a
star's extremum at k = 0 or a near-double root, is refined again from
its cell by ``_refine``.

``_refine`` is a batched interval Newton (Moore; Tucker, *Validated
Numerics*, 2011), each cell stopping on its own.  At the midpoint ``m``
of a cell of half-width ``r`` it reads ``F = g^(p)(m)`` and
``D = g^(p+1)(m)``, with ``e = err_p(m)`` and
``delta = B_{p+2} r + err_{p+1}(m)``.  Where ``|D| > delta`` the root
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
counts is decided by its cells alone.

No derivative ladder, no separator structure, nothing imported from the
solver; this is the reference implementation the fast solver is audited
against.  It shares with the solver only ``trig``: the evaluator, its
bounds and the certified refinement, none of which decides a count.

The Weyl audit checks the root count against the leading-order expectation
``s0 * k / pi``; for a regular function the deviation is bounded by the
number of perturbing terms plus one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .trig import Derivatives, TrigSpectralFunction, refine_roots

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


def _refine(d: Derivatives, p: int, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
            tol: float) -> np.ndarray:
    """Per-element interval Newton on ``g^(p)`` over cells ``[lo, hi]``.

    ``d`` gives the values and bounds, and ``flo`` has the sign of
    ``g^(p)`` at ``lo``; each cell holds a sign change.  The step and its
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
        fm, dm = d(mid)[p:p + 2]
        e = d.err(p, mid)
        delta = d.B[p + 2] * np.maximum(mid - lo, hi - mid) + d.err(p + 1, mid)
        # Newton applies where g^(p+1) has no zero on the cell; where it
        # does and g^(p) is within rounding of zero, the cell stops.
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


def _certified_roots(d: Derivatives, p: int, lo: np.ndarray, hi: np.ndarray,
                     flo: np.ndarray, fhi: np.ndarray, x_max: float, tol: float) -> np.ndarray:
    """The root of ``g^(p)`` in each cell ``[lo, hi]`` whose end values
    ``flo`` and ``fhi`` differ in sign.

    ``trig.refine_roots`` starts each cell at the secant point of its end
    values; the cells it leaves uncertified go to ``_refine``.
    """
    start = lo + flo * (hi - lo) / (flo - fhi)
    roots, certified = refine_roots(d, p, lo, hi, flo, start, x_max, tol)
    rest = ~certified
    roots[rest] = _refine(d, p, lo[rest], hi[rest], flo[rest], tol)
    return roots


def scan_roots(
    f: TrigSpectralFunction,
    window: tuple[float, float],
    refine_tol: float = 1e-12,
    coincidence_tol: float = 1e-10,
) -> tuple[list[float], float]:
    """All roots of ``f`` in ``(lo, hi]`` by derivative-bound cells.

    Tangent roots are counted once.  Returns the roots and the starting
    cell width, ``pi/(4*s0)``; see the module docstring for the rules.
    A root certified by ``trig.refine_roots`` lies within
    ``refine_tol + 4*eps*|k|`` of a root of ``f``, the solver's rule,
    rather than within ``refine_tol``: 2.3e-12 at k = 1500 with the
    default ``refine_tol``.  Any other lies in its interval-Newton
    enclosure, at most ``refine_tol`` wide or as tight as rounding allows.
    """
    lo, hi = window
    if not (0.0 <= lo < hi < math.inf):
        raise ValueError(f"bad window ({lo}, {hi})")
    step = math.pi / (4.0 * f.s0)
    d = Derivatives(f)
    b = d.B
    xs = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / step)) + 1)
    v = np.stack(d(xs))
    xl, xr, vl, vr = xs[:-1], xs[1:], v[:, :-1], v[:, 1:]
    settled, zeros = [], []
    while xl.size:
        w = xr - xl
        e0 = d.err(0, xr)
        curv = 0.5 * b[2] * w * w
        free = ((np.abs(vl[0]) > np.abs(vl[1]) * w + curv + e0)
                | (np.abs(vr[0]) > np.abs(vr[1]) * w + curv + e0))
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

    x_star = _certified_roots(d, 1, xl[turn], xr[turn], vl[1, turn], vr[1, turn], hi,
                              refine_tol)
    g_star = d.g(x_star)
    tangent = d.near_zero(g_star, coincidence_tol, x=x_star)
    left = ~tangent & (vl[0, turn] * g_star < 0.0)
    right = ~tangent & (vr[0, turn] * g_star < 0.0)
    cross = ~turn & (vl[0] * vr[0] < 0.0)
    refined = _certified_roots(
        d, 0,
        np.concatenate((xl[cross], xl[turn][left], x_star[right])),
        np.concatenate((xr[cross], x_star[left], xr[turn][right])),
        np.concatenate((vl[0, cross], vl[0, turn][left], g_star[right])),
        np.concatenate((vr[0, cross], g_star[left], vr[0, turn][right])),
        hi, refine_tol,
    )
    roots = np.sort(np.concatenate((x_star[tangent], refined, *zeros)))
    return _merge_close(roots[roots > lo + refine_tol], refine_tol).tolist(), step


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
    oracle_roots: Sequence[float],
    tol: float = 1e-9,
    scan_step: float = float("nan"),
) -> OracleReport:
    """Position-by-position match of two ascending root sequences."""
    a = np.asarray(solver_roots, dtype=float)
    b = np.asarray(oracle_roots, dtype=float)
    m = min(a.size, b.size)
    dev = np.abs(a[:m] - b[:m])
    bad = np.flatnonzero(dev > tol)
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
