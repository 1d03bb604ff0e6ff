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

Any kind may carry an optional ``solver`` map of ``solver.SolverConfig``'s
fields, today only ``k_max``: the window, judged as ``SolverConfig``
judges it and refused at its line.  The tolerances are no settings
(``trig.ROOT_TOL``, ``trig.COINCIDENCE_TOL``), so a ``root_tol`` or
``coincidence_tol`` key is refused as unknown.

A kind is one ``_KINDS`` entry: its loader and the top-level keys it
reads.  ``load_graph_spec`` checks those keys, the loader builds the
function and graph, and the ``solver`` block is read last.

Errors raised here are :class:`SpecFileError` and carry the file path and
the line of the offending element, formatted ``path:line: message``.  A
file with several faults reports the first met in that fixed order: keys
in file order before missing keys, a kind's own keys before ``solver``.
JSON files parse too (YAML is a superset), with the same anchoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any

import yaml

from .graphs import ChainGraphSpec, GraphParameterError, StarGraphSpec, build_chain, build_star
from .solver import SolverConfig
from .trig import NormalizeError, TrigSpectralFunction, normalize

__all__ = [
    "SpecFileError",
    "LoadedSpec",
    "load_graph_spec",
    "trig_spec_data",
]

_LEADING_KEYS = ("S0", "gamma0")
_TERM_KEYS = ("S", "gamma", "a")


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
    solver_overrides: dict[str, float]


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


def _numbers(doc: _Doc, value: Any, count: int, *path_t: Any) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise doc.fail(f"expected a list of {count} numbers", *path_t)
    if len(value) != count:
        raise doc.fail(f"expected {count} entries, got {len(value)}", *path_t)
    return tuple(_num(doc, v, *path_t, i) for i, v in enumerate(value))


def _finite(doc: _Doc, values: dict[str, float], *path_t: Any) -> tuple[float, ...]:
    """The values of the map at ``path_t``, in order, each checked finite."""
    for key, x in values.items():
        if not math.isfinite(x):
            raise doc.fail(f"{key} must be finite, got {x}", *path_t, key)
    return tuple(values.values())


def _mapping(doc: _Doc, value: Any, allowed: tuple | None, required: tuple, *path_t: Any) -> dict:
    """``value`` (the element at ``path_t``) as a mapping whose keys are all
    ``allowed`` (any, if None) and include every ``required`` one; errors
    name the first offending key in file order, then in ``required`` order."""
    if not isinstance(value, dict):
        where = ".".join(str(p) for p in path_t) or "document"
        raise doc.fail(f"{where} must be a mapping", *path_t)
    for key in value:
        if allowed is not None and key not in allowed:
            raise doc.fail(f"unknown key {key!r} (allowed: {', '.join(allowed)})", *path_t, key)
    for key in required:
        if key not in value:
            raise doc.fail(f"missing required key {key!r}", *path_t)
    return value


def _solver_overrides(doc: _Doc, data: dict) -> dict[str, float]:
    if "solver" not in data:
        return {}
    keys = tuple(f.name for f in fields(SolverConfig))
    block = _mapping(doc, data["solver"], keys, (), "solver")
    out: dict[str, float] = {}
    for key in keys:
        if key in block:
            out[key] = _num(doc, block[key], "solver", key)
            try:  # each key alone, while SolverConfig's other fields have defaults
                SolverConfig(**{key: out[key]})
            except ValueError as exc:
                raise doc.fail(str(exc), "solver", key) from exc
    return out


# What each kind's loader returns: the cosine sum and the graph behind it.
_Loaded = tuple[TrigSpectralFunction, StarGraphSpec | ChainGraphSpec | None]

# The star's two parameterizations: a pair of keys, each three numbers, and
# the constructor they feed.
_STAR_PAIRS = (
    ("L", "lambda", StarGraphSpec.from_bonds),
    ("alpha", "beta", StarGraphSpec),
)


def _load_star(doc: _Doc, data: dict) -> _Loaded:
    given = [pair for pair in _STAR_PAIRS if pair[0] in data or pair[1] in data]
    if len(given) > 1:
        raise doc.fail("give either L with lambda, or alpha with beta, not a mix")
    if not given:
        raise doc.fail("star needs L with lambda, or alpha with beta")
    (first, second, construct), = given
    _mapping(doc, data, None, (first, second))
    values = [_numbers(doc, data[key], 3, key) for key in (first, second)]
    try:
        graph = construct(*values)
    except GraphParameterError as exc:
        raise doc.fail(str(exc), exc.field) from exc
    return build_star(graph), graph


def _load_chain(doc: _Doc, data: dict) -> _Loaded:
    actions = _numbers(doc, data["actions"], 4, "actions")
    beta = _numbers(doc, data["beta"], 3, "beta")
    for i, s in enumerate(actions[1:], start=1):
        if abs(s) > actions[0]:
            raise doc.fail(
                f"action {s} exceeds the total action {actions[0]} in magnitude",
                "actions",
                i,
            )
    try:
        graph = ChainGraphSpec(actions, beta)
        return build_chain(graph), graph
    except GraphParameterError as exc:
        raise doc.fail(str(exc), exc.field) from exc
    except NormalizeError as exc:
        raise doc.fail(str(exc), "actions") from exc


def _load_trig(doc: _Doc, data: dict) -> _Loaded:
    lead = _mapping(doc, data["leading"], _LEADING_KEYS, _LEADING_KEYS, "leading")
    s0, gamma0 = (_num(doc, lead[key], "leading", key) for key in _LEADING_KEYS)
    if not s0 > 0.0:
        raise doc.fail(f"S0 must be positive, got {s0}", "leading", "S0")
    _finite(doc, dict(zip(_LEADING_KEYS, (s0, gamma0))), "leading")
    terms = data["terms"]
    if not isinstance(terms, list):
        raise doc.fail("terms must be a list", "terms")
    triples: list[tuple[float, ...]] = []
    for i, entry in enumerate(terms):
        term = _mapping(doc, entry, _TERM_KEYS, _TERM_KEYS, "terms", i)
        s = _num(doc, term["S"], "terms", i, "S")
        if abs(s) > s0:
            raise doc.fail(f"|S| = {abs(s)} exceeds S0 = {s0}", "terms", i, "S")
        gamma, a = (_num(doc, term[key], "terms", i, key) for key in ("gamma", "a"))
        triples.append(_finite(doc, dict(zip(_TERM_KEYS, (s, gamma, a))), "terms", i))
    try:
        return normalize(s0, gamma0, triples), None
    except NormalizeError as exc:
        raise doc.fail(str(exc), "terms") from exc


# Each kind: its loader, returning (function, graph), the keys it reads
# besides ``kind`` and ``solver``, and those of them that are required.
_KINDS = {
    "star": (_load_star, ("L", "lambda", "alpha", "beta"), ()),
    "chain": (_load_chain, ("actions", "beta"), ("actions", "beta")),
    "trig": (_load_trig, ("leading", "terms"), ("leading", "terms")),
}


def load_graph_spec(path: str) -> LoadedSpec:
    """Parse and validate a description file; see the module docstring."""
    doc = _parse_with_marks(path)
    data = _mapping(doc, doc.data, None, ("kind",))
    kind = data["kind"]
    # A list or map kind is unhashable: test the type before the lookup.
    if not (isinstance(kind, str) and kind in _KINDS):
        raise doc.fail(
            f"unknown kind {kind!r} (expected one of: {', '.join(_KINDS)})",
            "kind",
        )
    load, keys, required = _KINDS[kind]
    _mapping(doc, data, ("kind", *keys, "solver"), required)
    function, graph = load(doc, data)
    return LoadedSpec(kind, function, graph, _solver_overrides(doc, data))


def trig_spec_data(f: TrigSpectralFunction) -> dict[str, Any]:
    """Description-file mapping for a canonical function (round trips)."""
    return {
        "kind": "trig",
        "leading": {"S0": f.s0, "gamma0": f.gamma0},
        "terms": [{"S": t.s, "gamma": t.gamma, "a": t.a} for t in f.terms],
    }
