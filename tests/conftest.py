import os

# Order <= 101 systems gain nothing from BLAS threads, and multithreaded
# OpenBLAS can stall such calls for hundreds of milliseconds, which the
# timing of acceptance criterion 3 would read: pin BLAS before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

import matryoshkan as mk

# Benchmark-style fixtures used throughout: (spec, horizon).
FIXTURES = {
    "hawkes": (mk.HawkesSpec(lambda_star=1.0, alpha=1.0, beta=2.0), 10.0),
    "shotnoise": (
        mk.ShotNoiseSpec(rate=1.0, decay=4.0, jumps=mk.LogNormalJumps(0.0, 1.0)),
        5.0,
    ),
    "cir": (mk.ItoSpec(mu=1.0, theta=1.0, sigma=1.0, gamma=1.0, x0=1.0), 5.0),
    "growthcollapse": (mk.GrowthCollapseSpec(growth=1.0, collapse_rate=0.5), 8.0),
    "ephemeral": (mk.EphemeralSpec(baseline=1.0, jump=2.0, expiry=3.0), 5.0),
}

# Fixtures with strictly negative diagonals (steady states exist).
STABLE = ("hawkes", "shotnoise", "growthcollapse", "ephemeral")

# Nonnegative-valued jump processes (moment sequences must be log-convex).
NONNEGATIVE = ("hawkes", "shotnoise", "growthcollapse", "ephemeral")


def build_fixture(name: str, order: int):
    spec, horizon = FIXTURES[name]
    system, init = mk.build(spec, order)
    return spec, system, init, horizon


def random_matryoshkan(
    rng: np.random.Generator,
    order: int,
    diag_low: float = -10.0,
    diag_high: float = -1.0,
    entry_scale: float = 1.0,
) -> mk.MatryoshkanMatrix:
    """Random member with well-separated diagonals.

    Diagonal slots are evenly spread over [diag_low, diag_high] with jitter
    below 40% of the slot spacing, so pairwise gaps stay above 60% of it.
    """
    span = diag_high - diag_low
    slots = np.arange(order, dtype=np.float64) + rng.uniform(0.0, 0.4, order)
    diag = diag_low + slots * (span / order)
    rng.shuffle(diag)
    dense = np.zeros((order, order))
    for i in range(order):
        dense[i, :i] = rng.uniform(-entry_scale, entry_scale, i)
        dense[i, i] = diag[i]
    return mk.MatryoshkanMatrix(dense)


def taylor_exp(dense: np.ndarray, t: float, terms: int = 60) -> np.ndarray:
    """Truncated power-series exponential, the independent oracle for exp."""
    n = dense.shape[0]
    acc = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ (dense * t) / k
        acc = acc + term
    return acc


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
