"""Closed-form transient and stationary moments of one-dimensional Markov
processes via nested triangular matrix recursions, with an explicit-Euler
baseline and an exact-simulation Monte Carlo cross-check."""

import importlib

from .core import (
    EigenPair,
    MatryoshkanMatrix,
    add,
    eigendecompose,
    exp_scaled,
    extend,
    inverse,
    multiply,
    power,
    solve_lower,
)
from .engine import (
    CoefficientSystem,
    InitialMomentVector,
    MomentVector,
    ValidationReport,
    steady_nth,
    steady_vector,
    transient_scalar,
    transient_vector,
    validate,
)
from .errors import (
    DegenerateSpectrum,
    EstimatePrecisionWarning,
    InsufficientMoments,
    InvalidDimension,
    InvalidInput,
    MatryoshkanError,
    MomentSequenceWarning,
    NonStationary,
    Overflow,
    SingularMatrix,
    UnsupportedGamma,
)
from .processes import (
    DeterministicJumps,
    EphemeralSpec,
    ExplicitJumps,
    ExponentialJumps,
    GenericGeneratorSpec,
    GrowthCollapseSpec,
    HawkesSpec,
    ItoSpec,
    JumpMoments,
    LogNormalJumps,
    ShotNoiseSpec,
    UniformJumps,
    build,
    ito_gamma_bounds,
    pascal_lower,
    pascal_matryoshkan,
)

__version__ = "0.1.0"

# the names of euler and mc -> their module, imported on first access
_LAZY = dict.fromkeys(("BenchRecord", "EulerConfig", "bench", "error_metrics", "euler_solve"), "euler")
_LAZY.update(dict.fromkeys(("MomentEstimate", "SimConfig", "estimate_moments", "simulate"), "mc"))

__all__ = [
    "BenchRecord", "CoefficientSystem", "DegenerateSpectrum", "DeterministicJumps", "EigenPair",
    "EphemeralSpec", "EstimatePrecisionWarning", "EulerConfig", "ExplicitJumps", "ExponentialJumps",
    "GenericGeneratorSpec", "GrowthCollapseSpec", "HawkesSpec", "InitialMomentVector",
    "InsufficientMoments", "InvalidDimension", "InvalidInput", "ItoSpec", "JumpMoments",
    "LogNormalJumps", "MatryoshkanError", "MatryoshkanMatrix", "MomentEstimate",
    "MomentSequenceWarning", "MomentVector", "NonStationary", "Overflow", "ShotNoiseSpec",
    "SimConfig", "SingularMatrix", "UniformJumps", "UnsupportedGamma", "ValidationReport", "add",
    "bench", "build", "eigendecompose", "error_metrics", "estimate_moments", "euler_solve",
    "exp_scaled", "extend", "inverse", "ito_gamma_bounds", "multiply", "pascal_lower",
    "pascal_matryoshkan", "power", "simulate", "solve_lower", "steady_nth", "steady_vector",
    "transient_scalar", "transient_vector", "validate",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
