import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import qgspectra
from qgspectra import (Derivatives, SolverConfig, WeylAudit, build_ladder, load_graph_spec,
                       solve_ladder)
from qgspectra import cli, solver, trig
from qgspectra.cli import main

SPECS_DIR = Path(__file__).resolve().parents[1] / "specs"
DATA_DIR = Path(__file__).resolve().parent / "data"

STAR_YAML = """\
kind: star
alpha: [1.0, 7.0, 11.0]
beta: [0.1, 0.2, 0.5]
"""

# A cosine sum whose root count breaks the counting law's bound: it is not
# the secular function of any self-adjoint network, so the count in a long
# window falls short of S0*K/pi by more than the term budget.  The solver
# and the scan still agree with each other.
UNPHYSICAL_YAML = """\
kind: trig
leading:
  S0: 6.0
  gamma0: 0.25
terms:
  - {S: 3.5, gamma: 0.0, a: 0.55}
  - {S: 1.25, gamma: 1.5, a: -0.4}
  - {S: 5.0, gamma: 0.75, a: 0.35}
solver:
  k_max: 40.0
"""

# A raw sum whose one term, added below, sits at the leading action S0 = 6.
TRIG_AT_S0 = "kind: trig\nleading: {S0: 6.0, gamma0: 0.0}\nterms:\n"


@pytest.fixture()
def star_file(tmp_path):
    p = tmp_path / "star.yaml"
    p.write_text(STAR_YAML, encoding="utf-8")
    return str(p)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSolve:
    def test_csv_shape(self, capsys, star_file):
        rc, out, err = run(capsys, ["solve", "--graph", star_file, "--kmax", "4"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,E,kind"
        for i, line in enumerate(lines[1:], start=1):
            n, k, e, kind = line.split(",")
            assert int(n) == i
            assert float(e) == pytest.approx(float(k) ** 2, rel=1e-15)
            assert kind in ("interior", "separator-coincidence")
        assert float(lines[-1].split(",")[1]) <= 4.0
        assert "order M=1;" in err and "roots in (0, 4]" in err

    def test_coincidence_row(self, capsys, star_file):
        rc, out, _ = run(capsys, ["solve", "--graph", star_file, "--kmax", "4"])
        assert rc == 0
        fields = out.splitlines()[18].split(",")
        assert fields[0] == "18"
        assert abs(float(fields[1]) - math.pi) < 1e-10
        assert fields[3] == "separator-coincidence"

    def test_csv_matches_root_entries(self, capsys):
        # The CSV is formatted from the spectrum's columns in one pass; it
        # must read exactly as rows built from the table's RootEntry rows.
        kinds = set()
        for name in ("star.yaml", "chain.yaml"):
            spec = load_graph_spec(str(SPECS_DIR / name))
            table = solve_ladder(spec.function, SolverConfig(k_max=40.0)).spectrum
            expected = "n,k,E,kind\n" + "".join(
                f"{e.n},{e.k:.17g},{e.k * e.k:.17g},{e.kind}\n" for e in table
            )
            rc, out, _ = run(capsys, ["solve", "--graph", str(SPECS_DIR / name), "--kmax", "40"])
            assert rc == 0
            assert out == expected, name
            kinds.update(e.kind for e in table)
        assert kinds == {"interior", "separator-coincidence"}

    def test_csv_written_in_blocks_reads_as_one_string(self, capsys, tmp_path):
        # About 5,700 rows, more than one block: the blocks join into the
        # CSV formatted in one string, on stdout and in a file alike.
        spec = load_graph_spec(str(SPECS_DIR / "star.yaml"))
        table = solve_ladder(spec.function, SolverConfig(k_max=1000.0)).spectrum
        assert len(table) > cli._BLOCK_ROWS
        kinds = ("interior", "separator-coincidence")
        rows = zip(table.ks.tolist(), table.coincident.tolist())
        expected = "n,k,E,kind\n" + "".join(
            f"{n},{k:.17g},{k * k:.17g},{kinds[c]}\n" for n, (k, c) in enumerate(rows, start=1)
        )
        argv = ["solve", "--graph", str(SPECS_DIR / "star.yaml"), "--kmax", "1000"]
        rc, out, _ = run(capsys, argv)
        assert rc == 0 and out == expected
        dest = tmp_path / "roots.csv"
        assert main(argv + ["--out", str(dest)]) == 0
        assert dest.read_bytes() == expected.encode()

    def test_reruns_byte_identical(self, capsys, star_file):
        _, first, _ = run(capsys, ["solve", "--graph", star_file, "--kmax", "6"])
        _, second, _ = run(capsys, ["solve", "--graph", star_file, "--kmax", "6"])
        assert first == second

    def test_out_file(self, capsys, star_file, tmp_path):
        dest = tmp_path / "roots.csv"
        rc, out, err = run(
            capsys,
            ["solve", "--graph", star_file, "--kmax", "4", "--out", str(dest)],
        )
        assert rc == 0
        assert out == ""
        assert "order M=1" in err
        text = dest.read_text(encoding="utf-8")
        assert text.startswith("n,k,E,kind\n")
        assert "separator-coincidence" in text

    def test_shipped_examples(self, capsys):
        for name in ("star.yaml", "star_bonds.yaml", "chain.yaml", "trig.yaml"):
            rc, out, _ = run(capsys, ["solve", "--graph", str(SPECS_DIR / name)])
            assert rc == 0, name
            assert out.startswith("n,k,E,kind\n"), name
            assert len(out.splitlines()) > 10, name

    def test_wide_sum_has_no_fake_coincidences(self, capsys):
        # 212 roots, as the scan finds.  A threshold looser than
        # trig.COINCIDENCE_TOL, 1e-4, gives 213, one a fake coincidence.
        rc, out, _ = run(capsys, ["solve", "--graph", str(DATA_DIR / "wide_sum.yaml")])
        assert rc == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 212
        assert not any(row.endswith(",separator-coincidence") for row in rows)


class TestOrder:
    def test_worked_star(self, capsys, star_file):
        rc, out, _ = run(capsys, ["order", "--graph", star_file])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "M = 1"
        sums = [float(line.rpartition("= ")[2]) for line in lines[1:]]
        assert sums[0] == pytest.approx(1.5, abs=1e-14)
        assert sums[1] == pytest.approx(16 / 19, abs=1e-14)

    def test_no_window_needed(self, capsys, star_file):
        # order never searches, so --kmax must not be required
        rc, _, _ = run(capsys, ["order", "--graph", star_file])
        assert rc == 0


class TestVerify:
    def test_pass(self, capsys, star_file):
        rc, out, _ = run(capsys, ["verify", "--graph", star_file, "--kmax", "20"])
        assert rc == 0
        assert "comparison: pass" in out
        assert "verdict: pass" in out
        assert "order: M = 1" in out

    def test_tol_is_the_comparison_tolerance(self, capsys, star_file):
        argv = ["verify", "--graph", star_file, "--kmax", "20", "--tol", "1e-6"]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        assert "verdict: pass" in out
        # The same on the repository spec and its own window.
        rc, out, _ = run(capsys, ["verify", "--graph", str(SPECS_DIR / "star.yaml"), "--tol", "1e-6"])
        assert rc == 0
        assert "comparison: pass" in out and "verdict: pass" in out

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tol_must_be_positive_and_finite(self, capsys, star_file, tol, monkeypatch):
        # nan would pass any deviation, -1 none, and inf any: all are
        # refused before the solver runs.
        def unreachable(*args, **kwargs):
            raise AssertionError("solved despite a bad --tol")

        monkeypatch.setattr(cli, "solve_ladder", unreachable)
        rc, out, err = run(capsys, ["verify", "--graph", star_file, "--kmax", "20", "--tol", tol])
        assert rc == 1
        assert out == ""
        assert f"--tol must be positive and finite, got {float(tol)}" in err

    def test_counting_law_failure(self, capsys, star_file, monkeypatch):
        # A network's level-0 count is audited: a count off by more than
        # the bound T + 1 = 4 fails verify although solver and scan agree.
        monkeypatch.setattr(cli, "weyl_audit", lambda roots, s0, window: WeylAudit(
            expected=s0 * window[1] / math.pi, actual=len(roots) - 5, deviation=5.0))
        rc, out, _ = run(capsys, ["verify", "--graph", star_file, "--kmax", "20"])
        assert rc == 3
        assert "comparison: pass" in out
        assert "bound 4" in out
        assert "verdict: fail" in out

    def test_raw_sums_are_not_audited(self, capsys, tmp_path):
        # The bound T + 1 on level 0 is no theorem for a raw sum: both fall
        # short of S0*K/pi by more than it, the wide sum by 106 of 318.
        unphysical = tmp_path / "unphysical.yaml"
        unphysical.write_text(UNPHYSICAL_YAML, encoding="utf-8")
        for path in (unphysical, DATA_DIR / "wide_sum.yaml"):
            rc, out, _ = run(capsys, ["verify", "--graph", str(path)])
            assert rc == 0
            assert "comparison: pass" in out
            assert "weyl: not audited for a raw sum" in out
            assert "verdict: pass" in out

    def test_sunk_tangency_is_a_count_mismatch(self, capsys):
        # Two simple roots 7.7e-7 apart at pi, which the solver reports as
        # one double root and the scan does not.
        rc, out, _ = run(capsys, ["verify", "--graph", str(DATA_DIR / "star_sunk_tangency.yaml")])
        assert rc == 3
        assert "count mismatch" in out


class TestEval:
    def test_explicit_points(self, capsys, star_file):
        rc, out, _ = run(
            capsys, ["eval", "--graph", star_file, "--k", "0.5", "--k", "1.5"]
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "k,g0,g1"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0.5"

    def test_grid(self, capsys, star_file):
        rc, out, _ = run(
            capsys,
            ["eval", "--graph", star_file, "--kmin", "0", "--kmax", "1",
             "--step", "0.5"],
        )
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert [row.split(",")[0] for row in lines[1:]] == ["0", "0.5", "1"]

    def test_grid_stops_at_kmax(self, capsys):
        trig_file = str(SPECS_DIR / "trig.yaml")
        rc, out, _ = run(
            capsys,
            ["eval", "--graph", trig_file, "--kmin", "0", "--kmax", "1",
             "--step", "0.35"],
        )
        assert rc == 0
        ks = [row.split(",")[0] for row in out.splitlines()[1:]]
        assert ks == ["0", "0.34999999999999998", "0.69999999999999996"]
        # A kmax a whole number of steps away is kept, though 3*0.1 > 0.3.
        rc, out, _ = run(
            capsys,
            ["eval", "--graph", trig_file, "--kmin", "0", "--kmax", "0.3",
             "--step", "0.1"],
        )
        assert rc == 0
        assert [row.split(",")[0] for row in out.splitlines()[1:]][-1] == "0.29999999999999999"

    @pytest.mark.parametrize("grid, reason", [
        (["--kmax", "inf", "--step", "0.1"], "grid needs finite kmin, kmax and step"),
        (["--kmax", "1e300", "--step", "1e-300"], "has too many rows"),
        (["--kmax", "1", "--step", "nan"], "grid needs finite kmin, kmax and step"),
        (["--kmin", "nan", "--kmax", "1", "--step", "0.1"], "grid needs finite"),
        (["--kmin=-1e308", "--kmax", "1e308", "--step", "1"], "has too many rows"),
        (["--k", "0.5", "--k", "inf"], "evaluation points must be finite"),
        # --k points would silently drop a grid, so the two are refused together.
        (["--k", "1", "--kmin", "3"], "--k points take no grid"),
        (["--k", "1", "--kmax", "9"], "--k points take no grid"),
        (["--k", "1", "--step", "0.5", "--kmin", "3", "--kmax", "9"],
         "--k points take no grid: drop --kmin, --kmax and --step"),
        (["--kmin", "5", "--kmax", "1", "--step", "0.5"], "grid needs step > 0 and kmax > kmin"),
        (["--kmax", "1", "--step", "0"], "grid needs step > 0 and kmax > kmin"),
    ])
    def test_rejects_grids_that_cannot_be_tabulated(self, capsys, star_file, grid, reason):
        rc, out, err = run(capsys, ["eval", "--graph", star_file, *grid])
        assert rc == 1
        assert out == ""
        assert err.startswith("qgspectra: error: ") and reason in err

    def test_grid_is_tabulated_in_blocks(self, capsys, star_file, monkeypatch):
        argv = ["eval", "--graph", star_file, "--kmax", "2", "--step", "0.1"]
        rc, whole, _ = run(capsys, argv)
        assert rc == 0
        sizes = []

        class Recording(Derivatives):
            def g(self, ks, level=0):
                sizes.append(len(ks))
                return super().g(ks, level)

        monkeypatch.setattr(cli, "_BLOCK_ROWS", 6)
        monkeypatch.setattr(cli, "Derivatives", Recording)
        rc, blocked, _ = run(capsys, argv)
        assert rc == 0 and blocked == whole
        # 21 rows, two ladder levels, at most six rows per call.
        assert sizes == [6, 6, 6, 6, 6, 6, 3, 3]

    def test_grid_matches_scalar_cosines(self, capsys):
        # The CSV is the same as a scalar evaluation, term by term, with the
        # kernel's cosine would write, and each value is within err(0, |k|)
        # of the true one.
        mpmath = pytest.importorskip("mpmath")
        spec = load_graph_spec(str(SPECS_DIR / "star.yaml"))
        ladder = build_ladder(spec.function)
        bounds = [Derivatives(level).err for level in ladder.levels]
        rc, out, _ = run(capsys, ["eval", "--graph", str(SPECS_DIR / "star.yaml"),
                                  "--kmin", "-3", "--kmax", "60", "--step", "0.0731"])
        assert rc == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 862

        def cos(phase):
            return float(trig._half_angle_cos(np.array(0.5 * phase)))

        for row in rows:
            k, *values = (float(v) for v in row.split(","))
            expected = []
            for level, err, value in zip(ladder.levels, bounds, values):
                acc = cos(level.s0 * k - math.pi * level.gamma0)
                for s, g, a in level.terms:
                    acc -= a * cos(s * k - math.pi * g)
                expected.append(acc)
                with mpmath.workdps(30):
                    exact = mpmath.cos(level.s0 * k - mpmath.pi * level.gamma0) - mpmath.fsum(
                        a * mpmath.cos(s * k - mpmath.pi * g) for s, g, a in level.terms)
                assert abs(value - exact) <= err(0, abs(k))
            assert values == expected

    def test_needs_grid_or_points(self, capsys, star_file):
        rc, _, err = run(capsys, ["eval", "--graph", star_file])
        assert rc == 1
        assert "eval needs" in err


class TestFailureModes:
    def test_missing_graph_flag(self, capsys):
        rc, _, err = run(capsys, ["solve"])
        assert rc == 1
        assert "--graph" in err

    def test_unreadable_file(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, ["solve", "--graph", str(tmp_path / "nope.yaml"), "--kmax", "4"]
        )
        assert rc == 1
        assert "cannot read" in err

    def test_bad_contents_reported_with_position(self, capsys, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("kind: pentagram\n", encoding="utf-8")
        rc, _, err = run(capsys, ["solve", "--graph", str(p), "--kmax", "4"])
        assert rc == 1
        assert f"{p}:1:" in err

    @pytest.mark.parametrize("text, line, message", [
        pytest.param(TRIG_AT_S0 + "  - {S: 6.0, gamma: 0.25, a: 0.5}\n", 4,
                     "unfoldable top action: term at the leading action has phase 0.25 (mod 2) "
                     "incompatible with the leading phase 0.0 (mod 2)", id="unfoldable-top-action"),
        pytest.param(TRIG_AT_S0 + "  - {S: 6.0, gamma: 0.0, a: 1.0}\n", 4,
                     "degenerate leading term: top-action terms cancel the leading coefficient "
                     "exactly", id="trig-degenerate-leading-term"),
        pytest.param("kind: chain\nactions: [1.0, 1.0, 0.5, -1.0]\nbeta: [1.0, 3.0, 9.0]\n", 2,
                     "degenerate leading term: top-action terms cancel the leading coefficient "
                     "exactly", id="chain-degenerate-leading-term"),
        # The file's window is judged as the flag's is, and anchored at its line.
        pytest.param(STAR_YAML + "solver:\n  k_max: 1.0e-13\n", 5,
                     "k_max must exceed ROOT_TOL = 1e-12, got 1e-13", id="window-below-root-tol"),
    ])
    def test_refusal_exits_1_at_its_line(self, capsys, tmp_path, text, line, message):
        p = tmp_path / "bad.yaml"
        p.write_text(text, encoding="utf-8")
        rc, out, err = run(capsys, ["solve", "--graph", str(p)])
        assert (rc, out) == (1, "")
        assert err == f"qgspectra: error: {p}:{line}: {message}\n"

    def test_no_search_window(self, capsys, star_file):
        rc, _, err = run(capsys, ["solve", "--graph", star_file])
        assert rc == 1
        assert "no search window" in err

    def test_non_finite_window(self, capsys, star_file):
        rc, out, err = run(capsys, ["solve", "--graph", star_file, "--kmax", "inf"])
        assert rc == 1
        assert out == ""
        assert "k_max must be positive and finite, got inf" in err

    def test_non_finite_window_in_file(self, capsys, tmp_path):
        p = tmp_path / "star.yaml"
        p.write_text(STAR_YAML + "solver:\n  k_max: .inf\n", encoding="utf-8")
        rc, _, err = run(capsys, ["solve", "--graph", str(p)])
        assert rc == 1
        assert f"{p}:5: k_max must be positive and finite" in err

    def test_root_tol_too_wide_for_the_separators(self, capsys, tmp_path):
        # pi/s0 = 1.57e-12 is less than 2*ROOT_TOL = 2e-12; the message
        # names s0, which the file gives.
        p = tmp_path / "dense.yaml"
        p.write_text("kind: trig\nleading: {S0: 2.0e12, gamma0: 0.0}\nterms: []\n",
                     encoding="utf-8")
        rc, out, err = run(capsys, ["solve", "--graph", str(p), "--kmax", "1"])
        assert rc == 1
        assert out == ""
        assert ("s0 = 2000000000000.0 is too large: the separator spacing pi/s0 = "
                "1.5707963267948965e-12 must exceed twice the root tolerance, 2e-12") in err

    def test_window_inside_the_root_tolerance(self, capsys, star_file):
        # Every window starts at ROOT_TOL; the message names the flag's
        # value, not a setting the user never gave.
        rc, out, err = run(capsys, ["solve", "--graph", star_file, "--kmax", "1e-13"])
        assert (rc, out) == (1, "")
        assert err == "qgspectra: error: k_max must exceed ROOT_TOL = 1e-12, got 1e-13\n"

    def test_order_cap_is_solver_failure(self, capsys):
        rc, out, err = run(capsys, ["solve", "--graph", str(DATA_DIR / "deep_ladder.yaml")])
        assert (rc, out) == (2, "")
        assert "solver failure: order cap exceeded: no regular level at or below m=64" in err

    def test_order_cap_is_not_a_solver_setting(self, capsys, tmp_path):
        p = tmp_path / "star.yaml"
        p.write_text(STAR_YAML + "solver:\n  max_order: 8\n", encoding="utf-8")
        rc, out, err = run(capsys, ["solve", "--graph", str(p), "--kmax", "4"])
        assert (rc, out) == (1, "")
        assert f"{p}:5: unknown key 'max_order' (allowed: k_max)" in err

    def test_coincidence_threshold_is_not_a_solver_setting(self, capsys, tmp_path):
        p = tmp_path / "star.yaml"
        p.write_text(STAR_YAML + "solver:\n  coincidence_tol: 1e-9\n", encoding="utf-8")
        rc, out, err = run(capsys, ["solve", "--graph", str(p), "--kmax", "4"])
        assert (rc, out) == (1, "")
        assert f"{p}:5: unknown key 'coincidence_tol' (allowed: k_max)" in err

    def test_root_tolerance_is_not_a_solver_setting(self, capsys, tmp_path):
        p = tmp_path / "star.yaml"
        p.write_text(STAR_YAML + "solver:\n  root_tol: 1e-9\n", encoding="utf-8")
        rc, out, err = run(capsys, ["solve", "--graph", str(p), "--kmax", "4"])
        assert (rc, out) == (1, "")
        assert err == f"qgspectra: error: {p}:5: unknown key 'root_tol' (allowed: k_max)\n"

    def test_separator_failure_prints_the_end_values(self, capsys, star_file, monkeypatch):
        # Without separators the regular level yields at most one root, and
        # the descent refuses that table by its count.
        monkeypatch.setattr(solver, "regular_separators", lambda f, k_max: np.empty(0))
        rc, out, err = run(capsys, ["solve", "--graph", star_file, "--kmax", "4"])
        assert (rc, out) == (2, "")
        assert "separator failure at level 0 on (1e-12, 4.0): the regular level above" in err
        assert re.search(r"; g = \S+, \S+ at the ends$", err.strip())

    def test_regular_level_zero_is_counted(self, capsys, monkeypatch):
        # specs/trig.yaml is regular at level 0 (M = 0), so no descent
        # checks its table; with every other separator it still fails.
        separators = solver.regular_separators
        monkeypatch.setattr(solver, "regular_separators",
                            lambda f, k_max: separators(f, k_max)[::2])
        rc, out, err = run(capsys, ["solve", "--graph", str(SPECS_DIR / "trig.yaml")])
        assert (rc, out) == (2, "")
        assert "separator failure at level -1 on (1e-12, 40.0)" in err
        assert "separators give 76" in err

    def test_unwritable_out_file(self, capsys, star_file, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        argv = ["solve", "--graph", star_file, "--kmax", "4", "--out", str(path)]
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (1, "")
        assert err.startswith("qgspectra: error: ")
        assert str(path) in err

    @pytest.mark.parametrize("argv", [
        ["order", "--tol", "5"],
        ["order", "--coincidence-tol", "7"],
        ["eval", "--k", "1", "--tol", "5"],
        ["solve", "--kmax", "4", "--max-order", "8"],
        # The coincidence threshold is a constant, trig.COINCIDENCE_TOL.
        ["solve", "--kmax", "4", "--coincidence-tol", "1e-4"],
        ["verify", "--kmax", "4", "--coincidence-tol", "1e-4"],
        # The root tolerance is a constant, trig.ROOT_TOL; --tol is verify's.
        ["solve", "--kmax", "4", "--tol", "1e-6"],
    ])
    def test_flags_a_command_does_not_read_are_refused(self, capsys, star_file, argv):
        rc, out, err = run(capsys, argv[:1] + ["--graph", star_file] + argv[1:])
        assert (rc, out) == (1, "")
        assert err.startswith("usage: qgspectra ")
        assert "unrecognized arguments" in err

    def test_unknown_command(self, capsys):
        rc, _, err = run(capsys, ["frobnicate"])
        assert rc == 1
        assert "invalid choice" in err

    def test_help_exits_clean(self, capsys):
        rc, out, _ = run(capsys, ["--help"])
        assert rc == 0
        assert "solve" in out and "verify" in out

    @pytest.mark.parametrize("command, text", [
        ("verify", "comparison tolerance (default 1e-09)"),
    ])
    def test_tol_help_per_command(self, capsys, command, text):
        rc, out, _ = run(capsys, [command, "--help"])
        assert rc == 0
        assert text in " ".join(out.split())


def test_import_does_not_load_scipy():
    src = Path(qgspectra.__file__).resolve().parents[1]
    code = "import sys, qgspectra.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point(star_file):
    proc = subprocess.run(
        [sys.executable, "-m", "qgspectra", "order", "--graph", star_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "M = 1"
