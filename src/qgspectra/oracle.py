"""Dense-scan root finding and cross-checks, independent of the ladder.

Everything here treats the spectral function as a black box on a window:
sample it on a fine grid, bisect every sign-change cell, and probe small-
magnitude dips for tangent (double) roots via the sign of a central
difference.  One batched bisection, each cell stopping on its own, finds
the roots in the grid's sign-change cells, the extremum of each dip and
the two roots of a dip that splits.  No derivative ladder, no separator
structure, nothing imported from the solver; this is the reference
implementation the fast solver is audited against, so it shares as little
machinery with it as possible.

The Weyl audit checks the root count against the leading-order expectation
``s0 * k / pi``; for a regular function the deviation is bounded by the
number of perturbing terms plus one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .trig import TrigSpectralFunction, eval_grid, regularity_sum

__all__ = [
    "OracleReport",
    "WeylAudit",
    "scan_roots",
    "compare",
    "weyl_audit",
]

# Grid values below this (scaled) floor are exact zeros for sign purposes;
# cosine sums evaluated at machine-representable multiples of pi can land
# within a few ulps of zero without crossing.
_ZERO_FLOOR = 1e-13

# |f| below this fraction of the scale at a grid point flags a dip worth
# probing for a tangency even without a sign change nearby.
_DIP_FRACTION = 0.05


@dataclass(frozen=True, slots=True)
class OracleReport:
    """Outcome of comparing a solver root list against an oracle scan."""

    roots: tuple[float, ...]
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


def _bisect(fn, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray, tol: float) -> np.ndarray:
    """Per-element bisection of cells ``[lo, hi]`` on the sign of ``fn``.

    ``flo`` holds ``fn`` at ``lo``, and each cell must hold a sign change.
    A cell stops when it is at most ``tol`` wide (returning the midpoint),
    when ``fn`` is exactly zero at a midpoint (returning that midpoint), or
    after 200 halvings.  The width is the starting one halved exactly at
    every step, so rounding in the midpoints never costs a step: a cell
    that meets no exact zero takes ``ceil(log2(width / tol))`` of them.
    Finished cells leave the batch, so only live ones are evaluated.
    """
    out = np.empty_like(lo)
    idx = np.arange(lo.size)
    # Every live cell has been halved t times, so the narrowest one says
    # whether any cell is done without a pass over the batch.
    width = hi - lo
    narrowest = float(width.min(initial=np.inf))
    for t in range(200):
        if narrowest <= tol:
            done = np.ldexp(width, -t) <= tol
            out[idx[done]] = 0.5 * (lo[done] + hi[done])
            keep = ~done
            idx, lo, hi, flo, width = idx[keep], lo[keep], hi[keep], flo[keep], width[keep]
            narrowest = math.ldexp(width.min(initial=np.inf), -t)
        if not idx.size:
            return out
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if not fmid.all():
            hit = fmid == 0.0
            out[idx[hit]] = mid[hit]
            keep = ~hit
            idx, lo, hi, flo, width = idx[keep], lo[keep], hi[keep], flo[keep], width[keep]
            mid, fmid = mid[keep], fmid[keep]
        # The sign change is in [lo, mid] or else in [mid, hi].
        left = flo * fmid < 0.0
        lo, hi, flo = np.where(left, lo, mid), np.where(left, mid, hi), np.where(left, flo, fmid)
        narrowest *= 0.5
    out[idx] = 0.5 * (lo + hi)
    return out


def _slope(f: TrigSpectralFunction, x: np.ndarray, h: float) -> np.ndarray:
    """Central difference ``f(x+h) - f(x-h)``, unscaled: only its sign is used."""
    return eval_grid(f, x + h) - eval_grid(f, x - h)


def _probe_dips(
    f: TrigSpectralFunction,
    lo: np.ndarray,
    hi: np.ndarray,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
    step: float,
    refine_tol: float,
    coincidence_tol: float,
    scale: float,
) -> list[float]:
    """Inspect small-|f| dips ``[lo, hi]`` for roots the grid signs missed.

    ``f_lo`` and ``f_hi`` are the grid values at the dip ends.  Each dip's
    interior critical point is located by bisecting on the sign of the
    central difference f(x+h)-f(x-h); a single extremum inside the dip is
    assumed, which holds at dip width a few grid cells.  Dips whose edge
    slopes share a sign hold no extremum and are dropped first.
    Classification at the critical point x*:

    - |f(x*)| within the coincidence threshold: tangent root at x*.
    - f(x*) opposite in sign to the dip edges: two simple roots straddle
      x*, found by bisection on each side.
    - otherwise: the dip does not reach zero; nothing to report.

    All dips advance together; each element sees the same operations, in
    the same order, as it would if probed alone.
    """
    h = step / 32.0
    sa = _slope(f, lo, h)
    keep = ~(sa * _slope(f, hi, h) > 0.0)
    lo, hi, f_lo, f_hi = lo[keep], hi[keep], f_lo[keep], f_hi[keep]
    x_star = _bisect(lambda x: _slope(f, x, h), lo, hi, sa[keep], refine_tol)
    f_star = eval_grid(f, x_star)
    tangent = np.abs(f_star) <= coincidence_tol * scale
    split = (f_star * f_lo < 0.0) & (f_star * f_hi < 0.0) & ~tangent
    pairs = _bisect(
        lambda x: eval_grid(f, x),
        np.concatenate((lo[split], x_star[split])),
        np.concatenate((x_star[split], hi[split])),
        np.concatenate((f_lo[split], f_star[split])),
        refine_tol,
    )
    return x_star[tangent].tolist() + pairs.tolist()


def scan_roots(
    f: TrigSpectralFunction,
    window: tuple[float, float],
    scan_step: float | None = None,
    refine_tol: float = 1e-12,
    coincidence_tol: float = 1e-10,
) -> tuple[list[float], float]:
    """All roots of ``f`` in ``(lo, hi]`` by dense grid scan.

    Tangent roots are counted once.  Returns the roots and the grid step
    actually used (default: a fortieth of the shortest oscillation
    half-period, pi/(40*s0)).
    """
    lo, hi = window
    if not (0.0 <= lo < hi):
        raise ValueError(f"bad window ({lo}, {hi})")
    if scan_step is None:
        scan_step = math.pi / (40.0 * f.s0)
    elif not scan_step <= math.pi / (4.0 * f.s0):
        # The leading cosine must be oversampled well past Nyquist or the
        # sign pattern on the grid is meaningless.
        raise ValueError(
            f"scan_step {scan_step} too coarse: need at most pi/(4*s0) = "
            f"{math.pi / (4.0 * f.s0)}"
        )
    n_cells = max(1, math.ceil((hi - lo) / scan_step))
    xs = np.linspace(lo, hi, n_cells + 1)
    step = xs[1] - xs[0]
    ys = eval_grid(f, xs)
    scale = 1.0 + regularity_sum(f)

    # Exact zeros on the grid: collapse runs of consecutive near-zero
    # samples to their minimum-|y| representative, the first on ties.
    zero_mask = np.abs(ys) <= _ZERO_FLOOR * scale
    zero_idx = np.flatnonzero(zero_mask)
    run_start = np.diff(zero_idx, prepend=-2) != 1
    # Stable sort by run, then |y|: each run's first entry is its argmin.
    by_run = np.lexsort((np.abs(ys[zero_idx]), np.cumsum(run_start)))
    grid_roots = xs[zero_idx[by_run[np.flatnonzero(run_start)]]].tolist()

    # Neither endpoint is an exact zero, so both lie above the zero floor,
    # their product cannot underflow, and its sign is the product of signs.
    cross = (ys[:-1] * ys[1:] < 0.0) & ~zero_mask[:-1] & ~zero_mask[1:]
    idx = np.flatnonzero(cross)
    crossing_roots = _bisect(
        lambda x: eval_grid(f, x), xs[idx], xs[idx + 1], ys[idx], refine_tol
    ).tolist()

    # Dip probing: small |f| at a grid point with no sign change or exact
    # zero in the neighboring cells may hide a tangency.  Consecutive dip
    # points form one cluster, probed between its outer neighbors.
    dip = (np.abs(ys) < _DIP_FRACTION * scale) & ~zero_mask
    dip[idx] = False
    dip[idx + 1] = False
    dip_idx = np.flatnonzero(dip)
    c_lo = dip_idx[np.diff(dip_idx, prepend=-2) != 1]
    c_hi = dip_idx[np.diff(dip_idx, append=xs.size + 1) != 1]
    d_lo = np.maximum(c_lo - 1, 0)
    d_hi = np.minimum(c_hi + 1, xs.size - 1)
    probe_roots = _probe_dips(
        f,
        xs[d_lo],
        xs[d_hi],
        ys[d_lo],
        ys[d_hi],
        float(step),
        refine_tol,
        coincidence_tol,
        scale,
    )

    roots = sorted(grid_roots + crossing_roots + probe_roots)
    roots = [r for r in roots if r > lo + refine_tol]
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 4.0 * refine_tol:
            deduped.append(r)
    return deduped, float(step)


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
    roots = tuple(oracle_roots)
    if a.size != b.size:
        return OracleReport(roots, scan_step, 0.0, "fail", where, (
            f"count mismatch: solver found {a.size} roots, oracle found {b.size} "
            f"(lists diverge at index {where})"
        ))
    max_deviation = float(dev[:where].max(initial=0.0))
    if bad.size:
        return OracleReport(roots, scan_step, max_deviation, "fail", where, (
            f"root {where + 1} deviates by {dev[where]:.3e} (solver {float(a[where])!r}, "
            f"oracle {float(b[where])!r}, tol {tol:g})"
        ))
    return OracleReport(roots, scan_step, max_deviation, "pass")


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
