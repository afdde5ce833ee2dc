"""Closed-form transient and stationary moments of one-dimensional Markov
processes via nested triangular matrix recursions, with an explicit-Euler
baseline and an exact-simulation Monte Carlo cross-check."""

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
from .euler import BenchRecord, EulerConfig, bench, error_metrics, euler_solve
from .mc import MomentEstimate, SimConfig, estimate_moments, simulate
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
