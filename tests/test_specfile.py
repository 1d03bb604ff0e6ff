import json
import math
import textwrap

import pytest
import yaml

from qgspectra import (
    ChainGraphSpec,
    SpecFileError,
    StarGraphSpec,
    load_graph_spec,
    trig_spec_data,
)


def write(tmp_path, text, name="graph.yaml"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(p)


class TestStarFiles:
    def test_alpha_beta(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: star
            alpha: [1.0, 7.0, 11.0]
            beta: [0.1, 0.2, 0.5]
            """,
        )
        spec = load_graph_spec(path)
        assert spec.kind == "star"
        assert isinstance(spec.graph, StarGraphSpec)
        assert spec.function.s0 == pytest.approx(19.0, abs=1e-13)
        assert spec.solver_overrides == {}

    def test_bond_parameterization(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: star
            L: [10.0, 35.0, 22.0]
            lambda: [0.99, 0.96, 0.75]
            """,
        )
        spec = load_graph_spec(path)
        assert spec.graph.alpha == pytest.approx((1.0, 7.0, 11.0), abs=1e-12)

    def test_mixed_parameterizations_rejected(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: star
            L: [10.0, 35.0, 22.0]
            beta: [0.1, 0.2, 0.5]
            """,
        )
        with pytest.raises(SpecFileError, match="not a mix"):
            load_graph_spec(path)

    def test_missing_partner_key(self, tmp_path):
        path = write(tmp_path, "kind: star\nalpha: [1.0, 2.0, 3.0]\n")
        with pytest.raises(SpecFileError, match="beta"):
            load_graph_spec(path)

    def test_no_parameterization(self, tmp_path):
        path = write(tmp_path, "kind: star\n")
        with pytest.raises(SpecFileError, match="L with lambda"):
            load_graph_spec(path)

    def test_wrong_arity(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: star
            alpha: [1.0, 7.0]
            beta: [0.1, 0.2, 0.5]
            """,
        )
        with pytest.raises(SpecFileError, match="expected 3 entries") as e:
            load_graph_spec(path)
        assert e.value.line == 2

    def test_invalid_physics_anchored(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: star
            alpha: [1.0, 7.0, 11.0]
            beta: [0.1, 0.2, 1.5]
            """,
        )
        with pytest.raises(SpecFileError) as e:
            load_graph_spec(path)
        assert e.value.line is not None


class TestChainFiles:
    def test_basic(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: chain
            actions: [19.0, 17.0, 5.0, -3.0]
            beta: [0.4, 0.5, 0.3]
            solver:
              k_max: 50.0
            """,
        )
        spec = load_graph_spec(path)
        assert spec.kind == "chain"
        assert isinstance(spec.graph, ChainGraphSpec)
        assert spec.solver_overrides == {"k_max": 50.0}

    def test_oversized_action_anchored(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: chain
            actions: [10.0, 17.0, 5.0, -3.0]
            beta: [0.4, 0.5, 0.3]
            """,
        )
        with pytest.raises(SpecFileError, match="exceeds the total action") as e:
            load_graph_spec(path)
        assert e.value.line == 2


class TestTrigFiles:
    def test_basic(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: trig
            leading:
              S0: 6.0
              gamma0: 0.25
            terms:
              - {S: 3.5, gamma: 0.0, a: 0.45}
              - {S: 1.25, gamma: 1.5, a: -0.3}
            """,
        )
        spec = load_graph_spec(path)
        assert spec.kind == "trig"
        assert spec.graph is None
        assert spec.function.s0 == 6.0
        assert len(spec.function.terms) == 2

    def test_action_beyond_leading_anchored(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: trig
            leading:
              S0: 6.0
              gamma0: 0.0
            terms:
              - {S: 7.0, gamma: 0.0, a: 0.1}
            """,
        )
        with pytest.raises(SpecFileError, match="exceeds S0") as e:
            load_graph_spec(path)
        assert e.value.line == 6

    def test_string_numbers_accepted(self, tmp_path):
        # YAML 1.1 reads dot-less scientific notation as a string; the
        # loader must still take it as a number.
        path = write(
            tmp_path,
            """\
            kind: trig
            leading: {S0: 6.0, gamma0: 0.0}
            terms: []
            solver:
              k_max: "1e1"
            """,
        )
        spec = load_graph_spec(path)
        assert spec.solver_overrides == {"k_max": 10.0}

    def test_round_trip(self, tmp_path, worked_star):
        data = trig_spec_data(worked_star)
        path = tmp_path / "dump.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        again = load_graph_spec(str(path))
        assert again.function == worked_star


class TestSchemaErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecFileError, match="cannot read"):
            load_graph_spec(str(tmp_path / "absent.yaml"))

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(SpecFileError, match="empty"):
            load_graph_spec(path)

    def test_not_a_mapping(self, tmp_path):
        path = write(tmp_path, "- 1\n- 2\n")
        with pytest.raises(SpecFileError, match="must be a mapping"):
            load_graph_spec(path)

    def test_missing_kind(self, tmp_path):
        path = write(tmp_path, "alpha: [1, 2, 3]\n")
        with pytest.raises(SpecFileError, match="kind"):
            load_graph_spec(path)

    def test_unknown_kind_anchored(self, tmp_path):
        path = write(tmp_path, "kind: pentagram\n")
        with pytest.raises(SpecFileError, match="unknown kind") as e:
            load_graph_spec(path)
        assert e.value.line == 1

    def test_unknown_key_rejected(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: star
            alpha: [1.0, 7.0, 11.0]
            beta: [0.1, 0.2, 0.5]
            flavor: strange
            """,
        )
        with pytest.raises(SpecFileError, match="unknown key 'flavor'") as e:
            load_graph_spec(path)
        assert e.value.line == 4

    def test_duplicate_key_anchored(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: star
            alpha: [1.0, 7.0, 11.0]
            alpha: [2.0, 7.0, 11.0]
            beta: [0.1, 0.2, 0.5]
            """,
        )
        with pytest.raises(SpecFileError, match="duplicate key") as e:
            load_graph_spec(path)
        assert e.value.line == 3

    def test_bool_is_not_a_number(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: star
            alpha: [true, 7.0, 11.0]
            beta: [0.1, 0.2, 0.5]
            """,
        )
        with pytest.raises(SpecFileError, match="expected a number"):
            load_graph_spec(path)

    def test_text_is_not_a_number(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: star
            alpha: [small, 7.0, 11.0]
            beta: [0.1, 0.2, 0.5]
            """,
        )
        with pytest.raises(SpecFileError, match="expected a number"):
            load_graph_spec(path)

    def test_yaml_syntax_error(self, tmp_path):
        path = write(tmp_path, "kind: [unclosed\n")
        with pytest.raises(SpecFileError, match="not valid YAML"):
            load_graph_spec(path)

    def test_bad_solver_override(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: star
            alpha: [1.0, 7.0, 11.0]
            beta: [0.1, 0.2, 0.5]
            solver:
              k_max: -1.0
            """,
        )
        with pytest.raises(SpecFileError, match="must be positive") as e:
            load_graph_spec(path)
        assert e.value.line == 5

    @pytest.mark.parametrize("block, overrides", [
        ("{}", {}),
        # Just above ROOT_TOL, where every window starts.
        ("{k_max: 2.0e-12}", {"k_max": 2e-12}),
    ])
    def test_solver_block_loads(self, tmp_path, block, overrides):
        path = write(tmp_path, _STAR + f"solver: {block}\n")
        assert load_graph_spec(path).solver_overrides == overrides

    @pytest.mark.parametrize("key", ["k_max", "root_tol", "coincidence_tol"])
    @pytest.mark.parametrize("value", [".inf", ".nan", "-.inf"])
    def test_non_finite_solver_override(self, tmp_path, key, value):
        path = write(
            tmp_path,
            f"""\
            kind: star
            alpha: [1.0, 7.0, 11.0]
            beta: [0.1, 0.2, 0.5]
            solver:
              {"# the window" if key == "k_max" else "k_max: 30"}
              {key}: {value}
            """,
        )
        # The tolerances are no settings, so they are refused whatever their value.
        message = (f"unknown key '{key}' (allowed: k_max)" if key != "k_max"
                   else f"{key} must be positive and finite")
        with pytest.raises(SpecFileError) as e:
            load_graph_spec(path)
        assert str(e.value).startswith(f"{path}:6: {message}")

    def test_integer_too_large_for_a_float(self, tmp_path):
        path = write(
            tmp_path,
            f"""\
            kind: star
            alpha: [1.0, 7.0, 11.0]
            beta: [0.1, 0.2, 0.5]
            solver:
              k_max: 1{"0" * 400}
            """,
        )
        with pytest.raises(SpecFileError, match="integer too large") as e:
            load_graph_spec(path)
        assert e.value.line == 5

    def test_bad_max_order(self, tmp_path):
        path = write(
            tmp_path,
            """\
            kind: star
            alpha: [1.0, 7.0, 11.0]
            beta: [0.1, 0.2, 0.5]
            solver:
              max_order: 8
            """,
        )
        # The ladder's depth is no setting, so the key is unknown.
        with pytest.raises(SpecFileError) as e:
            load_graph_spec(path)
        assert (e.value.line, e.value.message) == (
            5, "unknown key 'max_order' (allowed: k_max)")

    def test_message_carries_path_and_line(self, tmp_path):
        path = write(tmp_path, "kind: pentagram\n")
        with pytest.raises(SpecFileError) as e:
            load_graph_spec(path)
        assert str(e.value).startswith(f"{path}:1:")

    def test_json_is_valid_input(self, tmp_path):
        doc = {
            "kind": "chain",
            "actions": [19.0, 17.0, 5.0, -3.0],
            "beta": [0.4, 0.5, 0.3],
        }
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        spec = load_graph_spec(str(path))
        assert spec.kind == "chain"
        assert math.isclose(spec.function.s0, 19.0)


_STAR = "kind: star\nalpha: [1.0, 7.0, 11.0]\nbeta: [0.1, 0.2, 0.5]\n"
_LEADING = "kind: trig\nleading: {S0: 6.0, gamma0: 0.0}\n"


class TestLoaderErrors:
    """One malformed file per row, with the message and line it reports.

    Where a file has several faults the row pins which one wins: unknown
    keys before missing ones, the graph before the ``solver`` block, and
    the solver keys in their fixed order, not file order.
    """

    @pytest.mark.parametrize("text, line, message", [
        pytest.param("kind: [star]\nalpha: [1.0, 7.0, 11.0]\n", 1,
                     "unknown kind ['star'] (expected one of: star, chain, trig)", id="list-kind"),
        pytest.param("kind: {star: 1}\n", 1,
                     "unknown kind {'star': 1} (expected one of: star, chain, trig)", id="map-kind"),
        pytest.param("alpha: [1.0, 7.0, 11.0]\nkind:\n", 2,
                     "unknown kind None (expected one of: star, chain, trig)", id="null-kind"),
        pytest.param("42\n", 1, "document must be a mapping", id="scalar-document"),
        pytest.param("extra: 1\n", 1, "missing required key 'kind'", id="no-kind-and-unknown-key"),
        pytest.param("kind: star\nL: [10.0, 35.0, 22.0]\nbeta: [0.1, 0.2, 0.5]\nflavor: strange\n", 4,
                     "unknown key 'flavor' (allowed: kind, L, lambda, alpha, beta, solver)",
                     id="unknown-key-and-mix"),
        pytest.param("kind: star\nL: [10.0, 35.0, 22.0]\nbeta: [0.1, 0.2, 0.5]\n", 1,
                     "give either L with lambda, or alpha with beta, not a mix", id="mix"),
        pytest.param("kind: star\nL: [10.0, 35.0, 22.0]\n", 1,
                     "missing required key 'lambda'", id="L-only"),
        pytest.param("kind: star\nlambda: [0.9, 0.5, 0.2]\n", 1,
                     "missing required key 'L'", id="lambda-only"),
        pytest.param("kind: star\nL: 10.0\nlambda: [0.99, 0.5, 0.75]\n", 2,
                     "expected a list of 3 numbers", id="L-scalar"),
        pytest.param("kind: star\nL: [10.0, 35.0, 22.0]\nlambda: [0.99, 1.5, 0.75]\n", 3,
                     "potential strength must satisfy 0 <= lambda < 1, got 1.5", id="bad-lambda"),
        pytest.param("kind: star\nlambda: [0.99, 1.5, 0.75]\nL: [10.0, 35.0, 22.0]\n", 2,
                     "potential strength must satisfy 0 <= lambda < 1, got 1.5", id="bad-lambda-listed-first"),
        pytest.param("kind: star\nL: [10.0, -35.0, 22.0]\nlambda: [0.99, 0.5, 0.75]\n", 2,
                     "bond length must be positive, got -35.0", id="bad-L"),
        pytest.param("kind: star\nalpha: [1.0, 7.0, 11.0]\nbeta: [0.1, 0.2, 1.5]\nsolver:\n  k_max: -1.0\n", 3,
                     "momentum rescaling must satisfy 0 < beta <= 1, got 1.5", id="bad-beta-and-bad-solver"),
        pytest.param("kind: chain\n", 1, "missing required key 'actions'", id="chain-missing-both"),
        pytest.param("kind: chain\nbeta: [0.4, 0.5, 0.3]\n", 1,
                     "missing required key 'actions'", id="chain-missing-actions"),
        pytest.param("kind: chain\nactions: [19.0, 17.0, 5.0, -3.0]\nbeta: [0.4, -0.5, 0.3]\n", 3,
                     "momentum rescaling must be positive, got -0.5", id="chain-bad-beta"),
        pytest.param("kind: trig\nextra: 1\n", 2,
                     "unknown key 'extra' (allowed: kind, leading, terms, solver)", id="trig-unknown-key"),
        pytest.param("kind: trig\nleading: 6.0\nterms: []\n", 2,
                     "leading must be a mapping", id="leading-scalar"),
        pytest.param("kind: trig\nleading:\n  S0: 6.0\n  gamma0: 0.0\n  S1: 2.0\nterms: []\n", 5,
                     "unknown key 'S1' (allowed: S0, gamma0)", id="leading-unknown-key"),
        pytest.param("kind: trig\nterms: []\nleading:\n  S0: 6.0\n", 4,
                     "missing required key 'gamma0'", id="leading-missing-key"),
        pytest.param("kind: trig\nleading:\n  S0: .nan\n  gamma0: 0.0\nterms: []\n", 3,
                     "S0 must be positive, got nan", id="S0-nan"),
        pytest.param("kind: trig\nleading: {S0: -6.0, gamma0: x}\nterms: []\n", 2,
                     "expected a number, got 'x'", id="S0-negative-and-gamma0-text"),
        pytest.param(_LEADING + "terms:\n  S: 1.0\n", 4, "terms must be a list", id="terms-map"),
        pytest.param(_LEADING + "terms:\n  - {S: 3.5, gamma: 0.0, a: 0.45}\n  - 7\n", 5,
                     "terms.1 must be a mapping", id="scalar-term"),
        pytest.param(_LEADING + "terms:\n  - {S: 3.5, gamma: 0.0, a: 0.45}\n  - {S: 3.5, gamma: 0.0}\n", 5,
                     "missing required key 'a'", id="term-missing-a"),
        pytest.param(_LEADING + "terms:\n  - S: 3.5\n    gamma: zero\n    a: 0.45\n", 5,
                     "expected a number, got 'zero'", id="term-not-a-number"),
        pytest.param(_LEADING + "terms:\n  - {S: .inf, gamma: 0.0, a: 0.45}\n", 4,
                     "|S| = inf exceeds S0 = 6.0", id="term-S-inf"),
        pytest.param(_LEADING + "terms:\n  - {S: 7.0, gamma: x, a: 0.1}\n", 4,
                     "|S| = 7.0 exceeds S0 = 6.0", id="term-S-too-big-and-gamma-text"),
        pytest.param(_LEADING + "terms:\n  - {S: 1.0, gamma: .inf, a: x}\n", 4,
                     "expected a number, got 'x'", id="term-gamma-inf-and-a-text"),
        pytest.param(_LEADING + "terms:\n  - {S: 6.0, gamma: 0.25, a: 0.5}\n", 4,
                     "unfoldable top action: term at the leading action has phase 0.25 "
                     "(mod 2) incompatible with the leading phase 0.0 (mod 2)",
                     id="trig-unfoldable-top-action"),
        pytest.param(_LEADING + "terms:\n  - {S: 6.0, gamma: 0.0, a: 1.0}\n", 4,
                     "degenerate leading term: top-action terms cancel the leading "
                     "coefficient exactly", id="trig-degenerate-leading-term"),
        pytest.param("kind: chain\nactions: [1.0, 1.0, 0.5, -1.0]\nbeta: [1.0, 3.0, 9.0]\n", 2,
                     "degenerate leading term: top-action terms cancel the leading "
                     "coefficient exactly", id="chain-degenerate-leading-term"),
        pytest.param(_STAR + "solver: 50\n", 4, "solver must be a mapping", id="solver-scalar"),
        pytest.param(_STAR + "solver:\n  k_max: 50.0\n  tolerance: 1e-9\n", 6,
                     "unknown key 'tolerance' (allowed: k_max)",
                     id="solver-unknown-key"),
        # Positive, but inside the root tolerance where every window starts.
        pytest.param(_STAR + "solver:\n  k_max: 1.0e-13\n", 5,
                     "k_max must exceed ROOT_TOL = 1e-12, got 1e-13", id="solver-k-max-below-root-tol"),
        # The root tolerance is no setting: a file that sets it is refused
        # at its line, before the bad k_max below it.
        pytest.param(_STAR + "solver:\n  root_tol: 1e-9\n  k_max: -5.0\n", 5,
                     "unknown key 'root_tol' (allowed: k_max)", id="solver-root-tol"),
        pytest.param(_STAR + "solver:\n  max_order: true\n", 5,
                     "unknown key 'max_order' (allowed: k_max)",
                     id="max-order-bool"),
        pytest.param("kind: star\n1: [1.0, 7.0, 11.0]\n", 2,
                     "mapping keys must be strings, got 1", id="non-string-key"),
    ])
    def test_message_and_line(self, tmp_path, text, line, message):
        path = write(tmp_path, text)
        with pytest.raises(SpecFileError) as e:
            load_graph_spec(path)
        assert (e.value.line, e.value.message) == (line, message)

    @pytest.mark.parametrize("text, line, message", [
        pytest.param("kind: trig\nleading:\n  S0: .inf\n  gamma0: 0.0\nterms:\n  - {S: 3.5, gamma: 0.0, a: 0.45}\n",
                     3, "S0 must be finite, got inf", id="S0"),
        pytest.param("kind: trig\nleading:\n  S0: 6.0\n  gamma0: .nan\nterms:\n  - {S: 3.5, gamma: 0.0, a: 0.45}\n",
                     4, "gamma0 must be finite, got nan", id="gamma0"),
        pytest.param(_LEADING + "terms:\n  - {S: 3.5, gamma: 0.0, a: 0.45}\n  - {S: 1.5, gamma: .inf, a: 0.2}\n",
                     5, "gamma must be finite, got inf", id="second-term-gamma"),
        pytest.param(_LEADING + "terms:\n  - {S: 1.0, gamma: 0.0, a: .nan}\n",
                     4, "a must be finite, got nan", id="term-a"),
    ])
    def test_non_finite_trig_number_anchored_at_its_line(self, tmp_path, text, line, message):
        path = write(tmp_path, text)
        with pytest.raises(SpecFileError) as e:
            load_graph_spec(path)
        assert (e.value.line, e.value.message) == (line, message)
