"""Command line front end.

Four commands, all reading a graph description file (``--graph``):

``solve``
    Compute the spectrum and write CSV (``n,k,E,kind``) to stdout or
    ``--out``.  E is k squared; kind is ``interior`` or
    ``separator-coincidence``.

``order``
    Report the regularization order M and the per-level amplitude sums.

``verify``
    Re-derive the spectrum with the independent oracle and compare, then,
    for a network spec, audit the root count against the counting law.
    Exit 3 on mismatch.

``eval``
    Tabulate every ladder level on a k grid as CSV.

Exit codes: 0 success, 1 usage or file errors, 2 solver contract
violations (separator failure, order cap, refinement trouble), 3
verification mismatch.  Data goes to stdout, diagnostics to stderr; reruns
with the same inputs produce byte-identical output (floats are written
with repr-faithful 17 significant digits).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import Sequence

from .oracle import _check_tol, compare, scan_roots, weyl_audit
from .solver import (
    INTERIOR,
    SEPARATOR_COINCIDENCE,
    RefinementStall,
    SeparatorFailure,
    SolverConfig,
    solve_ladder,
)
from .specfile import LoadedSpec, load_graph_spec
from .trig import ROOT_TOL, Derivatives, OrderCapError, build_ladder, regularity_sum

__all__ = ["main"]

_DEFAULT_COMPARE_TOL = 1e-9
# Rows formatted per block, of an eval grid or a solve spectrum, so that
# memory stays flat on a long window.
_BLOCK_ROWS = 4096


class _Parser(argparse.ArgumentParser):
    # Usage problems are exit code 1 in this tool, not argparse's 2.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _g17(x: float) -> str:
    return format(x, ".17g")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="qgspectra",
        description="Spectra of scaling quantum graphs via the derivative ladder.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p: _Parser, kmax: bool = True) -> None:
        p.add_argument("--graph", required=True, metavar="FILE",
                       help="graph description file (YAML)")
        if kmax:
            p.add_argument("--kmax", type=float, default=None,
                           help="upper end of the search window (0, kmax]")

    p_solve = sub.add_parser("solve", help="compute the spectrum as CSV")
    common(p_solve)
    p_solve.add_argument("--out", metavar="FILE", default=None,
                         help="write CSV here instead of stdout")
    p_solve.set_defaults(func=_cmd_solve)

    p_order = sub.add_parser("order", help="report the regularization order")
    common(p_order, kmax=False)
    p_order.set_defaults(func=_cmd_order)

    p_verify = sub.add_parser(
        "verify", help="cross-check the solver against an independent scan"
    )
    common(p_verify)
    p_verify.add_argument("--tol", type=float, default=_DEFAULT_COMPARE_TOL,
                          help=f"comparison tolerance (default {_DEFAULT_COMPARE_TOL:g})")
    p_verify.set_defaults(func=_cmd_verify)

    p_eval = sub.add_parser("eval", help="tabulate the ladder on a k grid")
    common(p_eval)
    p_eval.add_argument("--k", type=float, action="append", default=None,
                        help="evaluation point (repeatable; overrides the grid)")
    p_eval.add_argument("--kmin", type=float, default=None,
                        help="grid start (default 0)")
    p_eval.add_argument("--step", type=float, default=None,
                        help="grid spacing")
    p_eval.add_argument("--out", metavar="FILE", default=None,
                        help="write CSV here instead of stdout")
    p_eval.set_defaults(func=_cmd_eval)

    return parser


def _kmax(spec: LoadedSpec, args) -> float:
    """The window's upper end: ``--kmax``, else the file's ``solver.k_max``."""
    kmax = spec.solver_overrides.get("k_max") if args.kmax is None else args.kmax
    if kmax is None:
        raise ValueError("no search window: pass --kmax or set solver.k_max in the file")
    return kmax


def _output(path: str | None):
    """``--out``'s file, opened for writing and closed on leaving, or stdout."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


def _cmd_solve(args) -> int:
    spec = load_graph_spec(args.graph)
    cfg = SolverConfig(_kmax(spec, args))
    solution = solve_ladder(spec.function, cfg)
    spectrum = solution.spectrum
    kinds = (INTERIOR, SEPARATOR_COINCIDENCE)
    with _output(args.out) as out:
        out.write("n,k,E,kind\n")
        for start in range(0, len(spectrum), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            rows = zip(spectrum.ks[block].tolist(), spectrum.coincident[block].tolist())
            out.write("".join(f"{n},{_g17(k)},{_g17(k * k)},{kinds[c]}\n"
                              for n, (k, c) in enumerate(rows, start=start + 1)))
    print(
        f"order M={solution.ladder.order}; {len(solution.spectrum)} roots "
        f"in (0, {cfg.k_max:g}]",
        file=sys.stderr,
    )
    return 0


def _cmd_order(args) -> int:
    ladder = build_ladder(load_graph_spec(args.graph).function)
    print(f"M = {ladder.order}")
    for m, level in enumerate(ladder.levels):
        print(f"level {m}: regularity sum = {_g17(regularity_sum(level))}")
    return 0


def _cmd_verify(args) -> int:
    spec = load_graph_spec(args.graph)
    # Refused before the solve, which a bad tolerance would only waste.
    _check_tol("--tol", args.tol)
    refine_tol = min(ROOT_TOL, args.tol / 10.0)
    if refine_tol == 0.0:
        raise ValueError(f"--tol {args.tol!r} is too small: a tenth of it, the scan's "
                         "refinement tolerance, underflows to 0")
    cfg = SolverConfig(_kmax(spec, args))
    solution = solve_ladder(spec.function, cfg)
    ks = solution.spectrum.ks
    oracle_roots, step = scan_roots(spec.function, (0.0, cfg.k_max), refine_tol=refine_tol)
    report = compare(ks, oracle_roots, tol=args.tol, scan_step=step)
    print(f"order: M = {solution.ladder.order}")
    print(
        f"comparison: {report.verdict} ({len(ks)} solver roots, "
        f"{len(oracle_roots)} scan roots, max deviation "
        f"{report.max_deviation:.3e}, scan step {step:.6g})"
    )
    if report.message:
        print(f"comparison detail: {report.message}")
    ok = report.ok
    # The bound T + 1 on level 0's count is a theorem for networks only; a
    # raw sum's regular level count is already the solver's exact check.
    if spec.graph is None:
        print("weyl: not audited for a raw sum; the solver checked the regular "
              "level's exact count")
    else:
        audit = weyl_audit(solution.spectrum, spec.function.s0, (0.0, cfg.k_max))
        bound = spec.function.n_terms + 1
        print(
            f"weyl: expected {audit.expected:.6f}, actual {audit.actual}, "
            f"deviation {audit.deviation:.6f}, bound {bound}"
        )
        ok = ok and audit.within(bound)
    print(f"verdict: {'pass' if ok else 'fail'}")
    return 0 if ok else 3


def _grid_rows(kmin: float, kmax: float, step: float) -> int:
    """Number of rows of the ``--kmin``/``--kmax``/``--step`` grid."""
    if not all(map(math.isfinite, (kmin, kmax, step))):
        raise ValueError("grid needs finite kmin, kmax and step")
    if step <= 0.0 or kmax <= kmin:
        raise ValueError("grid needs step > 0 and kmax > kmin")
    steps = (kmax - kmin) / step
    if not math.isfinite(steps):
        raise ValueError(f"grid from {kmin} to {kmax} by {step} has too many rows")
    # Whole steps that fit below kmax; a kmax a whole number of steps from
    # kmin stays on the grid despite rounding in the quotient.
    return math.floor(steps + 1e-9) + 1


def _cmd_eval(args) -> int:
    spec = load_graph_spec(args.graph)
    if args.k:
        if not (args.kmin is None and args.kmax is None and args.step is None):
            raise ValueError("--k points take no grid: drop --kmin, --kmax and --step")
        if not all(map(math.isfinite, args.k)):
            raise ValueError("evaluation points must be finite")
        blocks = [list(args.k)]
    else:
        if args.step is None:
            raise ValueError("eval needs --k points, or --kmax with --step")
        kmin = 0.0 if args.kmin is None else args.kmin
        kmax, step = _kmax(spec, args), args.step
        count = _grid_rows(kmin, kmax, step)
        blocks = (
            [min(kmin + i * step, kmax) for i in range(start, min(start + _BLOCK_ROWS, count))]
            for start in range(0, count, _BLOCK_ROWS)
        )
    ladder = build_ladder(spec.function)
    levels = [Derivatives(level) for level in ladder.levels]
    with _output(args.out) as out:
        print("k," + ",".join(f"g{m}" for m in range(ladder.order + 1)), file=out)
        for ks in blocks:
            columns = [d.g(ks).tolist() for d in levels]
            for row in zip(ks, *columns):
                print(",".join(map(_g17, row)), file=out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SeparatorFailure, OrderCapError, RefinementStall) as exc:
        print(f"qgspectra: solver failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # SpecFileError is a ValueError
        print(f"qgspectra: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
