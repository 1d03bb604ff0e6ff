"""Measuring loop of the qgspectra benchmark.

One run is a closed loop with one client: operations run one after
another in this process, alternating between command-line subprocesses
(``qgspectra solve`` / ``qgspectra verify`` on the repository's spec files)
and in-process verify pipelines on the workload's cases, each side getting
its workload's share of the measured time.  Every operation is checked and
counted; a failure is never dropped.

In a traced run each operation runs twice, first plain and then with spans
and cosine counters, and only the per-layer figures are reported.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

import qgspectra
import tracer as tr
from cli_boot import SPANS_PREFIX
from qgspectra import (
    SEPARATOR_COINCIDENCE,
    compare,
    scan_roots,
    solve_ladder,
    weyl_audit,
)
from workloads import Case, build_workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

COMPARE_TOL = 1e-9
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
# What the ``qgspectra`` console script runs.
CLI_SHIM = "import sys; from qgspectra.cli import main; sys.exit(main())"
SETUP_PROBE = "import time, qgspectra; print(time.perf_counter())"

END_TO_END = {
    "setup_s": "s",
    "cli_solve_s": "s",
    "cli_solve_s_p90": "s",
    "cli_verify_s": "s",
    "cli_verify_s_p90": "s",
    "solve_roots_per_s": "1/s",
    "verify_roots_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import.s": "s",
    "specfile.load_s": "s",
    "cli.post_import_s": "s",
    "trig.build_ladder_s": "s",
    "trig.ladder_order": "count",
    "solver.solve_s": "s",
    "solver.regular_s": "s",
    "solver.separators_s": "s",
    "solver.descend_s": "s",
    "solver.descend_calls": "count",
    "solver.us_per_root": "us",
    "solver.cos_evals_per_root": "count",
    "solver.coincidences": "count",
    "oracle.scan_s": "s",
    "oracle.us_per_root": "us",
    "oracle.cos_evals_per_root": "count",
    "oracle.compare_s": "s",
    "oracle.audit_s": "s",
    "trace.overhead_ratio": "ratio",
}

# The in-process pipeline below calls these through this module's namespace.
PIPELINE_PATCHES = tr.SOLVER_PATCHES + tuple(
    (sys.modules[__name__], name)
    for name in ("solve_ladder", "scan_roots", "compare", "weyl_audit")
)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, problem: str) -> None:
        """Count one operation; a non-empty ``problem`` marks it failed."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.messages.append(problem)


@dataclass
class Outcome:
    """One in-process verify pipeline: its checks and its timings."""

    ok: bool
    detail: str
    roots: int
    order: int
    coincidences: int
    solve_s: float
    pipeline_s: float


def verify_case(case: Case) -> Outcome:
    """``solve_ladder``, then ``scan_roots``, ``compare`` and ``weyl_audit``.

    The roots must match the scan within ``COMPARE_TOL``.  The counting law
    is audited with bound ``n_terms + 1`` on the regular level, where the
    separators guarantee it, and on level 0 of a network.
    """
    f, cfg = case.f, case.config
    window = (0.0, cfg.k_max)
    t0 = time.perf_counter()
    sol = solve_ladder(f, cfg)
    t1 = time.perf_counter()
    ks = sol.spectrum.ks
    oracle_roots, step = scan_roots(f, window, refine_tol=min(1e-12, COMPARE_TOL / 10.0),
                                    coincidence_tol=cfg.coincidence_tol)
    report = compare(ks, oracle_roots, tol=COMPARE_TOL, scan_step=step)
    audits = [(t.level, weyl_audit(t, f.s0, window))
              for t in sol.tables if t.level == sol.ladder.order or (case.network and t.level == 0)]
    t2 = time.perf_counter()
    bound = f.n_terms + 1
    bad = [f"level {m}: counting-law deviation {a.deviation:.3f} > {bound}"
           for m, a in audits if not a.within(bound)]
    if not report.ok:
        bad.insert(0, report.message)
    coincidences = sum(e.kind == SEPARATOR_COINCIDENCE for t in sol.tables for e in t)
    return Outcome(not bad, "; ".join(bad), len(ks), sol.ladder.order, coincidences,
                   t1 - t0, t2 - t0)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_time(env) -> float:
    """Fresh interpreter start until ``import qgspectra`` returns."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.split()[-1]) - t0


def run_cli(command: str, spec: Path, env, traced: bool):
    """One CLI process; returns its wall time and the finished process."""
    head = [sys.executable, str(BENCH / "cli_boot.py")] if traced else [sys.executable, "-c", CLI_SHIM]
    argv = head + [command, "--graph", str(spec.relative_to(ROOT))]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def check_cli(command: str, spec: Path, proc, expected_rows: int, first_csv: dict) -> str:
    """Empty when the process passes its checks, else what went wrong."""
    name = f"{command} {spec.name}"
    if proc.returncode != 0:
        err = proc.stderr.decode(errors="replace").strip().splitlines()
        return f"{name}: exit {proc.returncode}: {err[-1] if err else ''}"
    if command == "verify":
        return "" if b"verdict: pass" in proc.stdout else f"{name}: no pass verdict"
    rows = proc.stdout.count(b"\n") - 1
    if rows != expected_rows:
        return f"{name}: {rows} CSV rows, in-process solve found {expected_rows}"
    if first_csv.setdefault(spec, proc.stdout) != proc.stdout:
        return f"{name}: CSV differs from this run's first solve"
    return ""


def child_spans(proc) -> list:
    lines = proc.stderr.decode(errors="replace").splitlines()
    if not lines or not lines[-1].startswith(SPANS_PREFIX):
        raise RuntimeError("traced CLI process wrote no spans")
    return json.loads(lines[-1][len(SPANS_PREFIX):])


def p90(xs: list[float]) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
        "qgspectra": str(Path(qgspectra.__file__).parent.relative_to(ROOT)),
    }


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(spans, outcomes: list[Outcome], children, traced_s: float, plain_s: float) -> dict:
    """Per-layer figures from the in-process spans and the traced CLI processes.

    Times under ``solver.`` and ``trig.`` are seconds per ``solve_ladder``
    call, so ``solver.solve_s`` is the sum of ``trig.build_ladder_s``,
    ``solver.separators_s``, ``solver.descend_s`` and ``solver.regular_s``
    (the self time of ``solve_ladder``).  ``oracle.`` times are per call.
    """
    dur, own, cos = tr.durations(spans), tr.self_times(spans), tr.subtree_cosines(spans)

    def total(name, values):
        return sum(v for s, v in zip(spans, values) if s[tr.NAME] == name)

    def calls(name):
        return sum(s[tr.NAME] == name for s in spans)

    n_solve, roots = calls("solve_ladder"), sum(o.roots for o in outcomes)
    imports, loads, post = [], [], []
    for wall, cs in children:
        d = dict.fromkeys(("import", "load_graph_spec"), 0.0)
        for s in cs:
            if s[tr.NAME] in d:
                d[s[tr.NAME]] += s[tr.END] - s[tr.START]
        imports.append(d["import"])
        loads.append(d["load_graph_spec"])
        post.append(wall - d["import"])
    return {
        "import.s": statistics.median(imports),
        "specfile.load_s": statistics.median(loads),
        "cli.post_import_s": statistics.median(post),
        "trig.build_ladder_s": _per(total("build_ladder", dur), n_solve),
        "trig.ladder_order": _per(sum(o.order for o in outcomes), len(outcomes)),
        "solver.solve_s": _per(total("solve_ladder", dur), n_solve),
        "solver.regular_s": _per(total("solve_ladder", own), n_solve),
        "solver.separators_s": _per(total("regular_separators", dur), n_solve),
        "solver.descend_s": _per(total("descend_level", dur), n_solve),
        "solver.descend_calls": _per(calls("descend_level"), n_solve),
        "solver.us_per_root": _per(total("solve_ladder", dur) * 1e6, roots),
        "solver.cos_evals_per_root": _per(total("solve_ladder", cos), roots),
        "solver.coincidences": _per(sum(o.coincidences for o in outcomes), len(outcomes)),
        "oracle.scan_s": _per(total("scan_roots", dur), calls("scan_roots")),
        "oracle.us_per_root": _per(total("scan_roots", dur) * 1e6, roots),
        "oracle.cos_evals_per_root": _per(total("scan_roots", cos), roots),
        "oracle.compare_s": _per(total("compare", dur), calls("compare")),
        "oracle.audit_s": _per(total("weyl_audit", dur), calls("weyl_audit")),
        "trace.overhead_ratio": _per(traced_s, plain_s),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Measure one workload; returns ``(metrics, notes, tally, machine)``.

    ``metrics`` maps each reported name to its value, and ``notes`` holds a
    few more facts for the printed report (sample counts, fail ratio).
    """
    env = child_env()
    setup = [] if trace else [setup_time(env) for _ in range(SETUP_SAMPLES)]
    wl = build_workload(workload, seed, ROOT, smoke)
    expected_rows = {p: len(solve_ladder(c.f, c.config).spectrum)
                     for p, c in zip(wl.cli_specs, wl.spec_cases)}
    cli_ops = [(cmd, p) for p in wl.cli_specs for cmd in ("solve", "verify")]
    # One pass over the CLI operations plus a second solve of the first
    # spec, so every run compares two solves' CSV byte for byte.
    cli_min = len(cli_ops) + 1

    tally = Tally()
    tracer = tr.Tracer()
    first_csv: dict = {}
    cli_times: dict[str, list[float]] = {"solve": [], "verify": []}
    solve_times: list[list[float]] = [[] for _ in wl.cases]
    pipeline_times: list[list[float]] = [[] for _ in wl.cases]
    case_roots = [0] * len(wl.cases)
    outcomes: list[Outcome] = []
    children: list = []
    plain_s = traced_s = 0.0

    def cli_op(i: int) -> None:
        nonlocal plain_s, traced_s
        command, spec = cli_ops[i % len(cli_ops)]
        for traced in (False, True) if trace else (False,):
            try:
                wall, proc = run_cli(command, spec, env, traced)
                problem = check_cli(command, spec, proc, expected_rows[spec], first_csv)
                if traced:
                    children.append((wall, child_spans(proc)))
                    traced_s += wall
                else:
                    cli_times[command].append(wall)
                    plain_s += wall
            except (OSError, subprocess.SubprocessError, RuntimeError, ValueError) as exc:
                problem = f"{command} {spec.name}: {exc!r}"
            tally.record(problem)

    def case_op(i: int) -> None:
        nonlocal plain_s, traced_s
        j = i % len(wl.cases)
        case = wl.cases[j]
        for traced in (False, True) if trace else (False,):
            try:
                if traced:
                    with tracer.installed(PIPELINE_PATCHES):
                        out = verify_case(case)
                    outcomes.append(out)
                    traced_s += out.pipeline_s
                else:
                    out = verify_case(case)
                    solve_times[j].append(out.solve_s)
                    pipeline_times[j].append(out.pipeline_s)
                    case_roots[j] = out.roots
                    plain_s += out.pipeline_s
                problem = "" if out.ok else f"{case.name}: {out.detail}"
            except Exception as exc:  # a solver error is a counted failure
                problem = f"{case.name}: {exc!r}"
            tally.record(problem)

    share = wl.cli_share
    n_cli = n_case = 0
    spent_cli = spent_case = 0.0
    start = time.perf_counter()
    while True:
        if time.perf_counter() - start < seconds:
            do_cli = spent_cli * (1.0 - share) <= spent_case * share
        elif n_cli < cli_min:
            do_cli = True
        elif n_case < len(wl.cases):
            do_cli = False
        else:
            break
        t0 = time.perf_counter()
        if do_cli:
            cli_op(n_cli)
            n_cli += 1
            spent_cli += time.perf_counter() - t0
        else:
            case_op(n_case)
            n_case += 1
            spent_case += time.perf_counter() - t0

    notes = {
        "cli_solve_s": f"{len(cli_times['solve'])} processes",
        "cli_verify_s": f"{len(cli_times['verify'])} processes",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "fail_ratio": f"{_per(tally.failed, tally.attempted):.6g} ({tally.failed} failed of {tally.attempted} operations)",
    }
    if trace:
        metrics = layer_metrics(tracer.spans, outcomes, children, traced_s, plain_s)
        return metrics, notes, tally, machine()

    # Throughput from each case's mean time: the machine's speed wanders
    # from second to second, and a mean over many runs of each case is the
    # steadiest estimate (steadier than the median or the fastest run).
    done = [j for j, ts in enumerate(solve_times) if ts]
    roots = sum(case_roots[j] for j in done)
    metrics = {
        "setup_s": statistics.median(setup),
        "cli_solve_s": statistics.median(cli_times["solve"]),
        "cli_solve_s_p90": p90(cli_times["solve"]),
        "cli_verify_s": statistics.median(cli_times["verify"]),
        "cli_verify_s_p90": p90(cli_times["verify"]),
        "solve_roots_per_s": _per(roots, sum(statistics.fmean(solve_times[j]) for j in done)),
        "verify_roots_per_s": _per(roots, sum(statistics.fmean(pipeline_times[j]) for j in done)),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, notes, tally, machine()
