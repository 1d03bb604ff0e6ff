"""In-memory spans and cosine counters for the traced benchmark run.

Spans are recorded around qgspectra's public functions by replacing the
name in the namespace of the module that calls it (for example
``qgspectra.solver.descend_level``), so the package itself is untouched.
Each span is ``[name, parent, start, end, cosines]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``cosines`` counts the
cosine evaluations made while this span was the innermost open one, one
per scalar ``math.cos`` call and one per element of a ``numpy.cos`` result.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager

NAME, PARENT, START, END, COS = range(5)

# Names replaced in qgspectra's own modules: the solver's calls into the
# ladder builder, the separator table and the descent.
SOLVER_PATCHES = (
    ("qgspectra.solver", "build_ladder"),
    ("qgspectra.solver", "regular_separators"),
    ("qgspectra.solver", "descend_level"),
)

# Names the command line front end calls.
CLI_PATCHES = SOLVER_PATCHES + tuple(
    ("qgspectra.cli", name)
    for name in ("load_graph_spec", "build_ladder", "solve_ladder", "scan_roots",
                 "compare", "weyl_audit")
)


class Tracer:
    """Span recorder; patches are applied by :meth:`installed`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def _cosine_counters(self):
        import numpy

        spans, stack = self.spans, self._stack
        math_cos, numpy_cos = math.cos, numpy.cos

        def counted_math_cos(x):
            if stack:
                spans[stack[-1]][COS] += 1
            return math_cos(x)

        def counted_numpy_cos(x, *args, **kwargs):
            out = numpy_cos(x, *args, **kwargs)
            if stack:
                spans[stack[-1]][COS] += numpy.size(out)
            return out

        return [(math, "cos", counted_math_cos), (numpy, "cos", counted_numpy_cos)]

    @contextmanager
    def installed(self, targets):
        """Wrap ``(module, attribute)`` targets and count cosines inside."""
        replacements = self._cosine_counters()
        for owner, attr in targets:
            if isinstance(owner, str):
                owner = importlib.import_module(owner)
            replacements.append((owner, attr, self.wrap(getattr(owner, attr), attr)))
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
        try:
            for owner, attr, new in replacements:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)


def durations(spans) -> list[float]:
    return [s[END] - s[START] for s in spans]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = durations(spans)
    for s, d in zip(spans, durations(spans)):
        if s[PARENT] >= 0:
            out[s[PARENT]] -= d
    return out


def subtree_cosines(spans) -> list[int]:
    """Cosines counted in each span and all spans nested in it."""
    out = [s[COS] for s in spans]
    # Children are opened after their parent, so a reverse sweep sees every
    # descendant before the span it is folded into.
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i][PARENT]
        if p >= 0:
            out[p] += out[i]
    return out
