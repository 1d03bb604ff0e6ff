"""Constructors for dressed scaling networks: three-bond stars and
four-vertex chains.

Each bond carries a length ``L`` and a scaling potential strength
``lambda`` (the potential is proportional to the energy, so the momentum on
a bond is rescaled by ``beta = sqrt(1 - lambda)``).  The reduced bond action
``alpha = beta * L`` is what actually enters the spectral function, so the
star spec stores ``(alpha, beta)`` canonically and derives ``(L, lambda)``
on demand; both parameterizations are accepted on input.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .trig import TrigSpectralFunction, normalize

__all__ = [
    "GraphParameterError",
    "StarGraphSpec",
    "ChainGraphSpec",
    "star_actions",
    "star_amplitudes",
    "build_star",
    "chain_reflections",
    "build_chain",
    "random_star",
    "random_chain",
]

_Triple = tuple[float, float, float]


class GraphParameterError(ValueError):
    """A graph parameter is out of range; ``field`` names it (``L``, ``beta``, ...)."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _check(field: str, values: Sequence[float], ok, message: str) -> None:
    """Reject the first value that is not finite or fails ``ok``, naming it in ``message``."""
    for v in values:
        if not (math.isfinite(v) and ok(v)):
            raise GraphParameterError(field, message.format(v))


def _triple(values: Sequence[float], what: str) -> _Triple:
    vals = tuple(float(v) for v in values)
    if len(vals) != 3:
        raise GraphParameterError(what, f"{what} needs exactly 3 entries, got {len(vals)}")
    return vals  # type: ignore[return-value]


@dataclass(frozen=True, slots=True)
class StarGraphSpec:
    """Three bonds joined at a central vertex, outer ends Dirichlet.

    Fields are the reduced actions ``alpha_l = beta_l * L_l`` and the
    momentum rescalings ``beta_l = sqrt(1 - lambda_l)``; bond lengths must
    be positive and ``0 <= lambda < 1`` (so ``0 < beta <= 1``).
    """

    alpha: _Triple
    beta: _Triple

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _triple(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _triple(self.beta, "beta"))
        _check("alpha", self.alpha, lambda a: a > 0.0, "bond action must be positive, got {}")
        _check("beta", self.beta, lambda b: 0.0 < b <= 1.0,
               "momentum rescaling must satisfy 0 < beta <= 1, got {}")

    @classmethod
    def from_bonds(cls, lengths: Sequence[float], lambdas: Sequence[float]) -> "StarGraphSpec":
        """Build from bond lengths and potential strengths."""
        lengths = _triple(lengths, "L")
        lambdas = _triple(lambdas, "lambda")
        _check("L", lengths, lambda x: x > 0.0, "bond length must be positive, got {}")
        _check("lambda", lambdas, lambda x: 0.0 <= x < 1.0,
               "potential strength must satisfy 0 <= lambda < 1, got {}")
        beta = tuple(math.sqrt(1.0 - lam) for lam in lambdas)
        alpha = tuple(b * length for b, length in zip(beta, lengths))
        return cls(alpha, beta)  # type: ignore[arg-type]

    @property
    def lengths(self) -> _Triple:
        return tuple(a / b for a, b in zip(self.alpha, self.beta))  # type: ignore[return-value]

    @property
    def lambdas(self) -> _Triple:
        return tuple(1.0 - b * b for b in self.beta)  # type: ignore[return-value]


@dataclass(frozen=True, slots=True)
class ChainGraphSpec:
    """Linear chain of three bonds (four vertices), given directly by its
    four reduced actions and the three bond rescalings."""

    actions: tuple[float, float, float, float]
    beta: _Triple

    def __post_init__(self) -> None:
        acts = tuple(float(v) for v in self.actions)
        if len(acts) != 4:
            raise GraphParameterError("actions", f"actions needs exactly 4 entries, got {len(acts)}")
        object.__setattr__(self, "actions", acts)
        object.__setattr__(self, "beta", _triple(self.beta, "beta"))
        _check("actions", acts[:1], lambda s: s > 0.0, "leading action must be positive, got {}")
        _check("actions", acts[1:], lambda s: True, "non-finite action {}")
        _check("beta", self.beta, lambda b: b > 0.0, "momentum rescaling must be positive, got {}")


def star_actions(spec: StarGraphSpec) -> tuple[float, float, float, float]:
    """Raw actions (S0, S1, S2, S3) of the star's spectral function.

    S0 is the total action; each S_j flips the sign of one bond's
    contribution.  S3 may come out zero or negative; normalization
    straightens that out.
    """
    a1, a2, a3 = spec.alpha
    return (a1 + a2 + a3, -a1 + a2 + a3, a1 - a2 + a3, a1 + a2 - a3)


def star_amplitudes(spec: StarGraphSpec) -> _Triple:
    """Raw amplitudes (a1, a2, a3); they always sum to one."""
    b1, b2, b3 = spec.beta
    total = b1 + b2 + b3
    return (
        (-b1 + b2 + b3) / total,
        (b1 - b2 + b3) / total,
        (b1 + b2 - b3) / total,
    )


def build_star(spec: StarGraphSpec) -> TrigSpectralFunction:
    """Spectral function of a dressed three-bond star (leading phase 0)."""
    s = star_actions(spec)
    a = star_amplitudes(spec)
    return normalize(
        s[0],
        0.0,
        [(s[1], 0.0, a[0]), (s[2], 0.0, a[1]), (s[3], 0.0, a[2])],
    )


def chain_reflections(spec: ChainGraphSpec) -> tuple[float, float]:
    """Reflection coefficients (r2, r3) at the two interior vertices."""
    b1, b2, b3 = spec.beta
    return ((b1 - b2) / (b1 + b2), (b2 - b3) / (b2 + b3))


def build_chain(spec: ChainGraphSpec) -> TrigSpectralFunction:
    """Spectral function of a dressed four-vertex chain.

    The chain's secular equation is a sine sum

        sin(S0 k) + r2 sin(S1 k) + r2 r3 sin(S2 k) - r3 sin(S3 k) = 0,

    encoded here in cosine form with every phase equal to 1/2.
    """
    r2, r3 = chain_reflections(spec)
    s0, s1, s2, s3 = spec.actions
    return normalize(
        s0,
        0.5,
        [(s1, 0.5, -r2), (s2, 0.5, -r2 * r3), (s3, 0.5, r3)],
    )


def random_star(rng: random.Random) -> TrigSpectralFunction:
    """A star with bond lengths in [0.5, 20] and potentials lambda in [0, 0.99]."""
    lengths = tuple(rng.uniform(0.5, 20.0) for _ in range(3))
    lambdas = tuple(rng.uniform(0.0, 0.99) for _ in range(3))
    return build_star(StarGraphSpec.from_bonds(lengths, lambdas))


def random_chain(rng: random.Random) -> TrigSpectralFunction:
    """A chain over the star combinations of three bond actions in [0.5, 10].

    Those combinations keep every |S_j| strictly under S0 with enough
    margin that the ladder terminates quickly; beta is drawn in [0.05, 1].
    """
    bond = tuple(rng.uniform(0.5, 10.0) for _ in range(3))
    actions = (
        bond[0] + bond[1] + bond[2],
        -bond[0] + bond[1] + bond[2],
        bond[0] - bond[1] + bond[2],
        bond[0] + bond[1] - bond[2],
    )
    beta = tuple(rng.uniform(0.05, 1.0) for _ in range(3))
    return build_chain(ChainGraphSpec(actions, beta))
