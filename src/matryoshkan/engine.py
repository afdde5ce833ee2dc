"""Closed-form solutions of triangular linear moment ODE systems.

A coefficient system pairs a nested lower-triangular matrix T with a shift
vector c so that the moment vector s(t) = (E[X_t], ..., E[X_t^n]) obeys
s'(t) = T s(t) + c.  The transient solution is rows 1..n of one exponential
of the augmented generator,

    [1; s(t)] = e^{A t} [1; s(0)],      A = [[0, 0], [c, T]],

evaluated directly at the target time (no stepping) with no inverse of T,
and the stationary vector solves 0 = T s + c by forward substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import MatryoshkanMatrix
from .errors import InvalidInput, NonStationary, Overflow

__all__ = [
    "STATIONARY",
    "CoefficientSystem",
    "InitialMomentVector",
    "MomentVector",
    "ValidationReport",
    "steady_nth",
    "steady_recursive",
    "steady_vector",
    "transient_scalar",
    "transient_vector",
    "validate",
]

#: Distinguished time value carried by stationary moment vectors.
STATIONARY = "stationary"

_OVERFLOW_LIMIT = 1e300


@dataclass(frozen=True)
class CoefficientSystem:
    """The matrix/shift pair (T, c) of a closed moment ODE system.

    Row k of T may only touch columns 1..k: the derivative of the k-th
    moment depends on moments of order at most k.  Triangularity is enforced
    by the packed storage of the matrix itself.
    """

    theta: MatryoshkanMatrix
    theta0: np.ndarray

    def __post_init__(self):
        shift = np.asarray(self.theta0, dtype=np.float64).reshape(-1).copy()
        if shift.shape[0] != self.theta.order:
            raise InvalidInput(
                f"shift vector length {shift.shape[0]} != order {self.theta.order}"
            )
        shift.setflags(write=False)
        object.__setattr__(self, "theta0", shift)

    @property
    def order(self) -> int:
        return self.theta.order

    def leading(self, k: int) -> "CoefficientSystem":
        return CoefficientSystem(self.theta.leading(k), self.theta0[:k])


@dataclass(frozen=True)
class InitialMomentVector:
    """Initial state x0 together with its powers (x0^1, ..., x0^n)."""

    x0: float
    powers: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.powers, dtype=np.float64).reshape(-1).copy()
        p.setflags(write=False)
        object.__setattr__(self, "powers", p)

    @classmethod
    def from_state(cls, x0: float, order: int) -> "InitialMomentVector":
        if order < 1:
            raise InvalidInput(f"order must be >= 1, got {order}")
        x0 = float(x0)
        return cls(x0, np.power(x0, np.arange(1, order + 1, dtype=np.float64)))

    @property
    def order(self) -> int:
        return self.powers.shape[0]


@dataclass(frozen=True)
class MomentVector:
    """Moments E[X^k], k = 1..n, at one time point or at stationarity."""

    time: float | str
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def order(self) -> int:
        return self.values.shape[0]


def _check_horizon(t: float) -> float:
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise InvalidInput(f"time must be finite and >= 0, got {t}")
    return t


def transient_vector(
    system: CoefficientSystem, init: InitialMomentVector, t: float
) -> MomentVector:
    """All moments at time t from one matrix exponential evaluation."""
    t = _check_horizon(t)
    if init.order != system.order:
        raise InvalidInput(
            f"initial vector order {init.order} != system order {system.order}"
        )
    if t == 0.0:
        return MomentVector(0.0, init.powers)
    values = core._affine_flow(system.theta, system.theta0, init.powers, t)
    if not np.all(np.isfinite(values)):
        raise Overflow("transient moments exceeded the double-precision range")
    return MomentVector(t, values)


def transient_scalar(
    system: CoefficientSystem, init: InitialMomentVector, t: float, n: int
) -> float:
    """The n-th moment at time t, from the leading order-n system alone."""
    if not 1 <= n <= system.order:
        raise InvalidInput(f"moment order {n} out of range 1..{system.order}")
    head = InitialMomentVector(init.x0, init.powers[:n])
    return float(transient_vector(system.leading(n), head, t).values[-1])


def _require_stable(system: CoefficientSystem) -> None:
    d = system.theta.diagonal()
    bad = np.flatnonzero(d >= 0.0)
    if bad.size:
        k = int(bad[0]) + 1
        detail = "zero" if d[bad[0]] == 0.0 else "nonnegative"
        raise NonStationary(
            f"{detail} diagonal entry at position {k}: no stationary moments"
        )


def steady_vector(system: CoefficientSystem) -> MomentVector:
    """Stationary moments solving 0 = T s + c by forward substitution."""
    _require_stable(system)
    with np.errstate(over="ignore", invalid="ignore"):
        values = core.solve_lower(system.theta, -system.theta0)
    if not np.all(np.isfinite(values)):
        raise Overflow("stationary moments exceeded the double-precision range")
    return MomentVector(STATIONARY, values)


def steady_nth(system: CoefficientSystem, n: int) -> float:
    """The n-th stationary moment, from the leading order-n system alone."""
    _require_stable(system)
    if not 1 <= n <= system.order:
        raise InvalidInput(f"moment order {n} out of range 1..{system.order}")
    return steady_vector(system.leading(n)).values[-1]


def steady_recursive(system: CoefficientSystem) -> MomentVector:
    """Stationary moments built bottom-up, one order at a time; forward
    substitution is exactly that recursion."""
    return steady_vector(system)


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostics for a coefficient system; never raises."""

    order: int
    triangular: bool
    zero_diagonals: tuple[int, ...]
    positive_diagonals: tuple[int, ...]
    coincident_pairs: tuple[tuple[int, int], ...]
    stationary: bool
    singular: bool
    distinct: bool
    predicted_overflow_order: int | None
    _lines: tuple[str, ...] = field(default=(), repr=False)

    def describe(self) -> str:
        return "\n".join(self._lines)


def validate(system: CoefficientSystem) -> ValidationReport:
    """Report triangularity, diagonal sign/coincidence issues, and the
    smallest order whose stationary magnitude estimate exceeds 1e300."""
    theta = system.theta
    d = theta.diagonal()
    zero = tuple(int(i) + 1 for i in np.flatnonzero(d == 0.0))
    positive = tuple(int(i) + 1 for i in np.flatnonzero(d > 0.0))
    pairs = theta.coincident_pairs()
    singular = bool(zero)
    stationary = not zero and not positive
    overflow_order = None
    if stationary:
        # The stationary substitution; the first magnitude past 1e300, or NaN, wins.
        with np.errstate(over="ignore", invalid="ignore"):
            values = core.solve_lower(theta, -system.theta0)
        bad = np.flatnonzero(~(np.abs(values) <= _OVERFLOW_LIMIT))
        if bad.size:
            overflow_order = int(bad[0]) + 1

    lines = [f"order: {system.order}", "triangular: yes"]
    if stationary:
        lines.append("stationary: yes")
    elif singular:
        lines.append("stationary: no; singular")
    else:
        lines.append("stationary: no; nonnegative diagonal")
    if zero:
        lines.append(f"zero diagonals: {list(zero)}")
    if positive:
        lines.append(f"positive diagonals: {list(positive)}")
    if pairs:
        lines.append(f"coincident diagonals: {[list(p) for p in pairs]}")
    if overflow_order is not None:
        lines.append(f"predicted overflow order: {overflow_order}")

    return ValidationReport(
        order=system.order,
        triangular=True,
        zero_diagonals=zero,
        positive_diagonals=positive,
        coincident_pairs=pairs,
        stationary=stationary,
        singular=singular,
        distinct=not pairs,
        predicted_overflow_order=overflow_order,
        _lines=tuple(lines),
    )
