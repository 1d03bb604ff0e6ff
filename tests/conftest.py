import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from qgspectra import (
    ChainGraphSpec,
    StarGraphSpec,
    build_chain,
    build_star,
    normalize,
    random_chain,
    random_star,
)

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

# The worked three-bond star: actions (19, 17, 5, -3), amplitudes
# (3/4, 1/2, -1/4), regular at level 1 with sum 16/19.
WORKED_ALPHA = (1.0, 7.0, 11.0)
WORKED_BETA = (0.1, 0.2, 0.5)

# Chain over the same bond actions whose reflection coefficients come out
# small: r2 = -1/9, r3 = 1/4, amplitude sum 7/18, regular as given.
WORKED_CHAIN_ACTIONS = (19.0, 17.0, 5.0, -3.0)
WORKED_CHAIN_BETA = (0.4, 0.5, 0.3)


@pytest.fixture(scope="session")
def worked_star():
    return build_star(StarGraphSpec(WORKED_ALPHA, WORKED_BETA))


@pytest.fixture(scope="session")
def worked_chain():
    return build_chain(ChainGraphSpec(WORKED_CHAIN_ACTIONS, WORKED_CHAIN_BETA))


@pytest.fixture(scope="session")
def shifted_star(worked_star):
    """The worked star minus a constant ``eps``: ``g(pi)`` moves to ``-eps``."""
    return lambda eps: normalize(
        worked_star.s0, worked_star.gamma0, list(worked_star.terms) + [(0.0, 0.0, eps)]
    )


@pytest.fixture(scope="session")
def case_suite(worked_star, worked_chain):
    """The 52 functions the oracle-equivalence criteria run on."""
    rng = random.Random(7)
    cases = [("worked-star", worked_star), ("worked-chain", worked_chain)]
    cases += [(f"star-{i}", random_star(rng)) for i in range(25)]
    cases += [(f"chain-{i}", random_chain(rng)) for i in range(25)]
    return cases


@pytest.fixture(scope="session")
def bench_workloads():
    """``bench/workloads.py``, which builds the benchmark's seeded cases."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  root / "bench" / "workloads.py")
    # Its dataclasses look their module up in sys.modules.
    workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads
