"""Seeded inputs for the benchmark workloads.

Every workload is a pure function of its seed: the same seed gives the same
cosine sums, windows and spec-file order.  qgspectra only ever sees the
generated functions (or, for ``cli-specs``, the repository's own spec
files).  Draws are never resampled or filtered: a draw the program fails
on counts as a failed operation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from qgspectra import (
    ChainGraphSpec,
    SolverConfig,
    StarGraphSpec,
    TrigSpectralFunction,
    build_chain,
    build_star,
    load_graph_spec,
    normalize,
)

WORKLOADS = ("cli-specs", "networks-highk", "wide-sums")

# The worked three-bond star and the chain over the same bond actions, as
# in the acceptance suite.
WORKED_ALPHA = (1.0, 7.0, 11.0)
WORKED_BETA = (0.1, 0.2, 0.5)
WORKED_CHAIN_ACTIONS = (19.0, 17.0, 5.0, -3.0)
WORKED_CHAIN_BETA = (0.4, 0.5, 0.3)

# Wide sums: S0 = 10, term actions uniform below 9, amplitude sum 8.  Each
# derivative damps a term by S_j/S0 < 0.9, and the ladder is 4-5 levels deep
# for about three draws in four (2-9 over 2000 draws).
WIDE_TERMS = 32
WIDE_S0 = 10.0
WIDE_S_MAX = 9.0
WIDE_AMP_SUM = 8.0

# Draws per workload: enough that the mix of ladder depths, and with it the
# per-root cost, changes little from seed to seed.
NETWORK_DRAWS = 4
WIDE_DRAWS = 16


@dataclass(frozen=True)
class Case:
    """One function and the solver settings it is solved with.

    ``network`` marks the secular function of a network, whose spectrum
    obeys the counting law ``N(k) ~ s0*k/pi`` at level 0.  A raw cosine sum
    far from regular (such as a wide sum) has fewer real roots than that.
    """

    name: str
    f: TrigSpectralFunction
    config: SolverConfig
    network: bool

    @property
    def k_max(self) -> float:
        return self.config.k_max


def case(name: str, f: TrigSpectralFunction, k_max: float, network: bool) -> Case:
    return Case(name, f, SolverConfig(k_max=k_max), network)


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload.

    ``cases`` are solved and verified in-process.  ``cli_specs`` are the
    repository's spec files, run through ``qgspectra solve`` and
    ``qgspectra verify`` subprocesses, with ``spec_cases`` their in-process
    counterparts.  ``cli_share`` is the fraction of the measured time spent
    in those subprocesses.
    """

    name: str
    cases: tuple[Case, ...]
    cli_specs: tuple[Path, ...]
    spec_cases: tuple[Case, ...]
    cli_share: float


def worked_star() -> TrigSpectralFunction:
    return build_star(StarGraphSpec(WORKED_ALPHA, WORKED_BETA))


def worked_chain() -> TrigSpectralFunction:
    return build_chain(ChainGraphSpec(WORKED_CHAIN_ACTIONS, WORKED_CHAIN_BETA))


# random_star and random_chain draw from the acceptance-suite distribution
# (tests/conftest.py); keep them in step with it.
def random_star(rng: random.Random) -> TrigSpectralFunction:
    lengths = tuple(rng.uniform(0.5, 20.0) for _ in range(3))
    lambdas = tuple(rng.uniform(0.0, 0.99) for _ in range(3))
    return build_star(StarGraphSpec.from_bonds(lengths, lambdas))


def random_chain(rng: random.Random) -> TrigSpectralFunction:
    bond = tuple(rng.uniform(0.5, 10.0) for _ in range(3))
    actions = (
        bond[0] + bond[1] + bond[2],
        -bond[0] + bond[1] + bond[2],
        bond[0] - bond[1] + bond[2],
        bond[0] + bond[1] - bond[2],
    )
    beta = tuple(rng.uniform(0.05, 1.0) for _ in range(3))
    return build_chain(ChainGraphSpec(actions, beta))


def wide_sum(rng: random.Random) -> TrigSpectralFunction:
    actions = [rng.uniform(0.0, WIDE_S_MAX) for _ in range(WIDE_TERMS)]
    phases = [rng.uniform(0.0, 2.0) for _ in range(WIDE_TERMS)]
    raw = [rng.uniform(-1.0, 1.0) for _ in range(WIDE_TERMS)]
    scale = WIDE_AMP_SUM / sum(abs(a) for a in raw)
    terms = [(s, g, a * scale) for s, g, a in zip(actions, phases, raw)]
    return normalize(WIDE_S0, rng.uniform(0.0, 2.0), terms)


def spec_cases(root: Path, rng: random.Random) -> tuple[list[Path], list[Case]]:
    """The repository's spec files in a seeded order, and their cases.

    A case's settings are the file's ``solver`` block over the defaults,
    which is what the command line resolves when given no flags.
    """
    paths = sorted((root / "specs").glob("*.yaml"))
    rng.shuffle(paths)
    cases = []
    for p in paths:
        spec = load_graph_spec(str(p))
        cases.append(Case(p.stem, spec.function, SolverConfig(**spec.solver_overrides),
                          network=spec.kind != "trig"))
    return paths, cases


def build_workload(name: str, seed: int, root: Path, smoke: bool = False) -> Workload:
    """Inputs of workload ``name`` for ``seed``; ``smoke`` shrinks every size."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (expected one of: {', '.join(WORKLOADS)})")
    rng = random.Random(f"{name}:{seed}")
    paths, specs = spec_cases(root, rng)
    if smoke:
        paths, specs = paths[:1], specs[:1]
    # Every workload reports every metric, so each runs the CLI on the specs
    # too: most of the time on cli-specs, half of it on the others.
    if name == "cli-specs":
        return Workload(name, tuple(specs), tuple(paths), tuple(specs), cli_share=0.8)
    if name == "networks-highk":
        big, small = (60.0, 30.0) if smoke else (1500.0, 300.0)
        cases = [case("worked-star", worked_star(), big, True),
                 case("worked-chain", worked_chain(), big, True)]
        cases += [case(f"star-{i}", random_star(rng), small, True) for i in range(NETWORK_DRAWS)]
        cases += [case(f"chain-{i}", random_chain(rng), small, True) for i in range(NETWORK_DRAWS)]
    else:
        k_max = 10.0 if smoke else 100.0
        cases = [case(f"sum-{i}", wide_sum(rng), k_max, False)
                 for i in range(2 if smoke else WIDE_DRAWS)]
    return Workload(name, tuple(cases), tuple(paths), tuple(specs), cli_share=0.5)
