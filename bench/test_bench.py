"""Tests of the benchmark itself: input generators, metric names, tracing.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(wl):
    return [(c.name, c.f, c.config) for c in wl.cases], list(wl.cli_specs)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_repeat_per_seed(name):
    a = workloads.build_workload(name, 11, ROOT)
    b = workloads.build_workload(name, 11, ROOT)
    assert _inputs(a) == _inputs(b)
    other = workloads.build_workload(name, 12, ROOT)
    assert _inputs(a) != _inputs(other)


def test_wide_sums_follow_their_distribution():
    wl = workloads.build_workload("wide-sums", 3, ROOT)
    assert len(wl.cases) == workloads.WIDE_DRAWS
    for c in wl.cases:
        f = c.f
        assert f.s0 == workloads.WIDE_S0 and f.n_terms == workloads.WIDE_TERMS
        assert all(0.0 <= t.s < workloads.WIDE_S_MAX for t in f.terms)
        assert math.fsum(abs(t.a) for t in f.terms) == pytest.approx(workloads.WIDE_AMP_SUM, rel=1e-12)


def test_networks_include_the_worked_examples():
    wl = workloads.build_workload("networks-highk", 5, ROOT)
    by_name = {c.name: c.f for c in wl.cases}
    assert by_name["worked-star"] == workloads.worked_star()
    assert by_name["worked-chain"] == workloads.worked_chain()
    assert len(wl.cases) == 2 + 2 * workloads.NETWORK_DRAWS


def test_cli_specs_are_the_repository_specs_in_seeded_order():
    wl = workloads.build_workload("cli-specs", 2, ROOT)
    assert sorted(wl.cli_specs) == sorted((ROOT / "specs").glob("*.yaml"))
    assert [c.name for c in wl.cases] == [p.stem for p in wl.cli_specs]


def test_benchmark_json_matches_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"][:2] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("lower", "higher")
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_reported_metrics_are_the_declared_ones(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_self_times_and_cosines_fold_into_parents():
    spans = [
        ["solve_ladder", -1, 0.0, 10.0, 5],
        ["build_ladder", 0, 1.0, 2.0, 0],
        ["descend_level", 0, 3.0, 7.0, 40],
        ["scan_roots", -1, 11.0, 12.0, 7],
    ]
    assert tr.self_times(spans) == [5.0, 1.0, 4.0, 1.0]
    assert tr.subtree_cosines(spans) == [45, 0, 40, 7]


def test_traced_pipeline_splits_solve_ladder_exactly():
    case = workloads.case("worked-star", workloads.worked_star(), 40.0, network=True)
    tracer = tr.Tracer()
    with tracer.installed(harness.PIPELINE_PATCHES):
        out = harness.verify_case(case)
    assert out.ok and out.order == 1
    # The patches are gone again.
    assert harness.solve_ladder.__module__ == "qgspectra.solver"
    assert math.cos(0.0) == 1.0 and not tracer._stack
    names = [s[tr.NAME] for s in tracer.spans]
    assert names == ["solve_ladder", "build_ladder", "regular_separators", "descend_level",
                     "scan_roots", "compare", "weyl_audit", "weyl_audit"]
    m = harness.layer_metrics(tracer.spans, [out], [(1.0, [["import", -1, 0.0, 0.5, 0]])], 2.0, 1.0)
    parts = sum(m[k] for k in ("trig.build_ladder_s", "solver.separators_s",
                               "solver.descend_s", "solver.regular_s"))
    assert parts == pytest.approx(m["solver.solve_s"], rel=1e-9)
    # The solver evaluates point by point, four cosines each: the leading
    # one and three terms.
    solver_cosines = round(m["solver.cos_evals_per_root"] * out.roots)
    assert solver_cosines > 0 and solver_cosines % 4 == 0
    assert m["solver.descend_calls"] == 1 and m["trace.overhead_ratio"] == 2.0
    assert m["cli.post_import_s"] == 0.5


def test_counting_law_is_audited_at_level_0_only_for_networks():
    f = workloads.build_workload("wide-sums", 0, ROOT).cases[0].f
    as_sum = harness.verify_case(workloads.case("sum", f, 100.0, network=False))
    assert as_sum.ok, as_sum.detail
    # A wide sum has far fewer real roots than s0*k/pi, though the scan
    # agrees with every one the solver finds.
    as_network = harness.verify_case(workloads.case("sum", f, 100.0, network=True))
    assert not as_network.ok and as_network.detail.startswith("level 0: counting-law deviation")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide-sums", "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert "fail_ratio" in proc.stdout


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-specs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
