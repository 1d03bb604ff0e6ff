"""Graph description files: YAML schema, validation, anchored errors.

A description file is a single YAML mapping with a ``kind`` discriminator:

``star``
    Three-bond star.  Exactly one parameterization: either ``L`` (bond
    lengths) with ``lambda`` (potential strengths in [0, 1)), or ``alpha``
    (scaled actions) with ``beta`` (scaling factors in (0, 1]).  Each is a
    list of three numbers.

``chain``
    Four-bond chain, given by ``actions`` (four numbers, the first
    positive and dominating the rest in magnitude) and ``beta`` (three
    positive vertex scaling factors).

``trig``
    Raw cosine sum: ``leading`` is a map with ``S0`` and ``gamma0``, and
    ``terms`` is a list of maps with keys ``S``, ``gamma``, ``a``.  Phases
    are in units of pi.

Any kind may carry an optional ``solver`` map overriding ``k_max``,
``root_tol``, ``coincidence_tol``, ``max_order``.

Errors raised here are :class:`SpecFileError` and carry the file path and
the line of the offending element, formatted ``path:line: message``.  JSON
files parse too (YAML is a superset), with the same anchoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import yaml

from .graphs import ChainGraphSpec, StarGraphSpec, build_chain, build_star
from .trig import NormalizeError, TrigSpectralFunction, normalize

__all__ = [
    "SpecFileError",
    "LoadedSpec",
    "load_graph_spec",
    "trig_spec_data",
]

_KINDS = ("star", "chain", "trig")
_SOLVER_KEYS = ("k_max", "root_tol", "coincidence_tol", "max_order")


class SpecFileError(ValueError):
    """A graph description file failed to parse or validate."""

    def __init__(self, message: str, path: str, line: int | None = None):
        self.message = message
        self.path = path
        self.line = line
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.line is not None:
            return f"{self.path}:{self.line}: {self.message}"
        return f"{self.path}: {self.message}"


@dataclass(frozen=True, slots=True)
class LoadedSpec:
    """A parsed description file, ready to hand to the solver."""

    kind: str
    function: TrigSpectralFunction
    graph: StarGraphSpec | ChainGraphSpec | None
    solver_overrides: dict[str, Any] = field(default_factory=dict)
    path: str = "<memory>"


class _Doc:
    """Parsed YAML document plus source lines for every element."""

    def __init__(self, data: Any, marks: dict[tuple, int], path: str):
        self.data = data
        self.marks = marks
        self.path = path

    def line(self, *path_t: Any) -> int | None:
        return self.marks.get(tuple(path_t))

    def fail(self, message: str, *path_t: Any) -> "SpecFileError":
        return SpecFileError(message, self.path, self.line(*path_t))


def _parse_with_marks(path: str) -> _Doc:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read file: {exc.strerror}", path) from exc
    loader = yaml.SafeLoader(text)
    try:
        try:
            node = loader.get_single_node()
        except yaml.YAMLError as exc:
            line = None
            mark = getattr(exc, "problem_mark", None)
            if mark is not None:
                line = mark.line + 1
            raise SpecFileError(f"not valid YAML: {exc}", path, line) from exc
        if node is None:
            raise SpecFileError("file is empty", path, 1)
        marks: dict[tuple, int] = {}
        data = _build(node, (), marks, loader, path)
    finally:
        loader.dispose()
    return _Doc(data, marks, path)


def _build(node: yaml.Node, path_t: tuple, marks: dict[tuple, int], loader, path: str) -> Any:
    marks[path_t] = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        out: dict[str, Any] = {}
        for key_node, val_node in node.value:
            key = loader.construct_object(key_node, deep=True)
            if not isinstance(key, str):
                raise SpecFileError(
                    f"mapping keys must be strings, got {key!r}",
                    path,
                    key_node.start_mark.line + 1,
                )
            if key in out:
                raise SpecFileError(
                    f"duplicate key {key!r}", path, key_node.start_mark.line + 1
                )
            out[key] = _build(val_node, path_t + (key,), marks, loader, path)
        return out
    if isinstance(node, yaml.SequenceNode):
        return [
            _build(child, path_t + (i,), marks, loader, path)
            for i, child in enumerate(node.value)
        ]
    return loader.construct_object(node, deep=True)


def _num(doc: _Doc, value: Any, *path_t: Any) -> float:
    # YAML 1.1 only recognizes floats with a dot, so "1e-12" arrives as a
    # string; accept it.  Booleans are ints in Python and must not slip by.
    if isinstance(value, bool):
        raise doc.fail(f"expected a number, got {value!r}", *path_t)
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            raise doc.fail("integer too large for a float", *path_t) from None
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise doc.fail(f"expected a number, got {value!r}", *path_t)


def _numbers(doc: _Doc, count: int, *path_t: Any) -> tuple[float, ...]:
    value = _get(doc, *path_t)
    if not isinstance(value, list):
        raise doc.fail(f"expected a list of {count} numbers", *path_t)
    if len(value) != count:
        raise doc.fail(
            f"expected {count} entries, got {len(value)}", *path_t
        )
    return tuple(_num(doc, v, *path_t, i) for i, v in enumerate(value))


def _get(doc: _Doc, *path_t: Any) -> Any:
    cur = doc.data
    for p in path_t:
        cur = cur[p]
    return cur


def _require_map(doc: _Doc, allowed: tuple[str, ...], *path_t: Any) -> dict:
    value = _get(doc, *path_t) if path_t else doc.data
    if not isinstance(value, dict):
        where = ".".join(str(p) for p in path_t) or "document"
        raise doc.fail(f"{where} must be a mapping", *path_t)
    for key in value:
        if key not in allowed:
            raise doc.fail(
                f"unknown key {key!r} (allowed: {', '.join(allowed)})",
                *path_t,
                key,
            )
    return value


def _require_key(doc: _Doc, container: dict, key: str, *path_t: Any) -> None:
    if key not in container:
        raise doc.fail(f"missing required key {key!r}", *path_t)


def _solver_overrides(doc: _Doc) -> dict[str, Any]:
    if "solver" not in doc.data:
        return {}
    block = _require_map(doc, _SOLVER_KEYS, "solver")
    out: dict[str, Any] = {}
    for key in ("k_max", "root_tol", "coincidence_tol"):
        if key in block:
            v = _num(doc, block[key], "solver", key)
            if not (math.isfinite(v) and v > 0.0):
                raise doc.fail(f"{key} must be positive and finite, got {v}", "solver", key)
            out[key] = v
    if "max_order" in block:
        v = block["max_order"]
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise doc.fail(
                f"max_order must be a nonnegative integer, got {v!r}",
                "solver",
                "max_order",
            )
        out["max_order"] = v
    return out


def _load_star(doc: _Doc) -> LoadedSpec:
    _require_map(doc, ("kind", "L", "lambda", "alpha", "beta", "solver"))
    data = doc.data
    by_bond = "L" in data or "lambda" in data
    by_scale = "alpha" in data or "beta" in data
    if by_bond and by_scale:
        raise doc.fail(
            "give either L with lambda, or alpha with beta, not a mix"
        )
    if by_bond:
        _require_key(doc, data, "L")
        _require_key(doc, data, "lambda")
        lengths = _numbers(doc, 3, "L")
        lambdas = _numbers(doc, 3, "lambda")
        try:
            graph = StarGraphSpec.from_bonds(lengths, lambdas)
        except ValueError as exc:
            raise doc.fail(str(exc), "L") from exc
    elif by_scale:
        _require_key(doc, data, "alpha")
        _require_key(doc, data, "beta")
        alpha = _numbers(doc, 3, "alpha")
        beta = _numbers(doc, 3, "beta")
        try:
            graph = StarGraphSpec(alpha, beta)
        except ValueError as exc:
            raise doc.fail(str(exc), "alpha") from exc
    else:
        raise doc.fail("star needs L with lambda, or alpha with beta")
    return LoadedSpec(
        kind="star",
        function=build_star(graph),
        graph=graph,
        solver_overrides=_solver_overrides(doc),
        path=doc.path,
    )


def _load_chain(doc: _Doc) -> LoadedSpec:
    _require_map(doc, ("kind", "actions", "beta", "solver"))
    data = doc.data
    _require_key(doc, data, "actions")
    _require_key(doc, data, "beta")
    actions = _numbers(doc, 4, "actions")
    beta = _numbers(doc, 3, "beta")
    for i, s in enumerate(actions[1:], start=1):
        if abs(s) > actions[0]:
            raise doc.fail(
                f"action {s} exceeds the total action {actions[0]} in magnitude",
                "actions",
                i,
            )
    try:
        graph = ChainGraphSpec(actions, beta)
        fn = build_chain(graph)
    except (ValueError, NormalizeError) as exc:
        raise doc.fail(str(exc), "actions") from exc
    return LoadedSpec(
        kind="chain",
        function=fn,
        graph=graph,
        solver_overrides=_solver_overrides(doc),
        path=doc.path,
    )


def _load_trig(doc: _Doc) -> LoadedSpec:
    _require_map(doc, ("kind", "leading", "terms", "solver"))
    data = doc.data
    _require_key(doc, data, "leading")
    _require_key(doc, data, "terms")
    lead = _require_map(doc, ("S0", "gamma0"), "leading")
    _require_key(doc, lead, "S0", "leading")
    _require_key(doc, lead, "gamma0", "leading")
    s0 = _num(doc, lead["S0"], "leading", "S0")
    gamma0 = _num(doc, lead["gamma0"], "leading", "gamma0")
    if not s0 > 0.0:
        raise doc.fail(f"S0 must be positive, got {s0}", "leading", "S0")
    terms_raw = _get(doc, "terms")
    if not isinstance(terms_raw, list):
        raise doc.fail("terms must be a list", "terms")
    triples: list[tuple[float, float, float]] = []
    for i, entry in enumerate(terms_raw):
        block = _require_map(doc, ("S", "gamma", "a"), "terms", i)
        for key in ("S", "gamma", "a"):
            _require_key(doc, block, key, "terms", i)
        s = _num(doc, block["S"], "terms", i, "S")
        if abs(s) > s0:
            raise doc.fail(
                f"|S| = {abs(s)} exceeds S0 = {s0}", "terms", i, "S"
            )
        triples.append(
            (s, _num(doc, block["gamma"], "terms", i, "gamma"), _num(doc, block["a"], "terms", i, "a"))
        )
    try:
        fn = normalize(s0, gamma0, triples)
    except NormalizeError as exc:
        raise doc.fail(str(exc), "terms") from exc
    return LoadedSpec(
        kind="trig",
        function=fn,
        graph=None,
        solver_overrides=_solver_overrides(doc),
        path=doc.path,
    )


def load_graph_spec(path: str) -> LoadedSpec:
    """Parse and validate a description file; see the module docstring."""
    doc = _parse_with_marks(path)
    if not isinstance(doc.data, dict):
        raise doc.fail("document must be a mapping")
    if "kind" not in doc.data:
        raise doc.fail("missing required key 'kind'")
    kind = doc.data["kind"]
    if kind not in _KINDS:
        raise doc.fail(
            f"unknown kind {kind!r} (expected one of: {', '.join(_KINDS)})",
            "kind",
        )
    if kind == "star":
        return _load_star(doc)
    if kind == "chain":
        return _load_chain(doc)
    return _load_trig(doc)


def trig_spec_data(f: TrigSpectralFunction) -> dict[str, Any]:
    """Description-file mapping for a canonical function (round trips)."""
    return {
        "kind": "trig",
        "leading": {"S0": f.s0, "gamma0": f.gamma0},
        "terms": [{"S": t.s, "gamma": t.gamma, "a": t.a} for t in f.terms],
    }
