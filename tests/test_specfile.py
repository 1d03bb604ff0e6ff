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
              root_tol: "1e-12"
              k_max: 1e+1
            """,
        )
        spec = load_graph_spec(path)
        assert spec.solver_overrides["root_tol"] == 1e-12
        assert spec.solver_overrides["k_max"] == 10.0

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
              root_tol: -1.0
            """,
        )
        with pytest.raises(SpecFileError, match="must be positive") as e:
            load_graph_spec(path)
        assert e.value.line == 5

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
              max_order: 8
              {key}: {value}
            """,
        )
        with pytest.raises(SpecFileError, match=f"{key} must be positive and finite") as e:
            load_graph_spec(path)
        assert str(e.value).startswith(f"{path}:6:")

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
              max_order: 3.5
            """,
        )
        with pytest.raises(SpecFileError, match="max_order"):
            load_graph_spec(path)

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
