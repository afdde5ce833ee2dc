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
from dataclasses import dataclass

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
    "steady_vector",
    "transient_scalar",
    "transient_vector",
    "validate",
]

#: Distinguished time value carried by stationary moment vectors.
STATIONARY = "stationary"

_LOG_EPS = math.log(np.finfo(np.float64).eps)
# Grading exponents are clipped to +-_GRADE_EXP; a component no path reaches
# is identically zero and takes the lowest.
_GRADE_EXP = 1000


def _overflow_order(values: np.ndarray) -> int | None:
    """The first order whose value is not a finite double, or None: a value
    overflows exactly when it is not finite."""
    finite = np.isfinite(values)
    return None if finite.all() else int(np.argmin(finite)) + 1


def _in_range(what: str, values: np.ndarray) -> np.ndarray:
    """The values, or Overflow naming the first order that overflows."""
    k = _overflow_order(values)
    if k is not None:
        raise Overflow(f"{what} of order {k} leaves the double range")
    return values


def _check_order(order: int) -> None:
    if order < 1:
        raise InvalidInput(f"order must be >= 1, got {order}")


def _check_moment_order(system: CoefficientSystem, n: int) -> None:
    if not 1 <= n <= system.order:
        raise InvalidInput(f"moment order {n} out of range 1..{system.order}")


def _check_initial(system: CoefficientSystem, init: InitialMomentVector) -> None:
    if init.order != system.order:
        raise InvalidInput(
            f"initial vector order {init.order} != system order {system.order}"
        )
    _in_range("initial moment", init.powers)


@dataclass(frozen=True)
class CoefficientSystem:
    """The matrix/shift pair (T, c) of a closed moment ODE system.

    Row k of T may only touch columns 1..k: the derivative of the k-th
    moment depends on moments of order at most k.  Triangularity is enforced
    by the matrix itself, which holds exact zeros above its diagonal.
    """

    theta: MatryoshkanMatrix
    theta0: np.ndarray

    def __post_init__(self):
        shift = core._frozen(self.theta0)
        if shift.shape[0] != self.theta.order:
            raise InvalidInput(
                f"shift vector length {shift.shape[0]} != order {self.theta.order}"
            )
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
        object.__setattr__(self, "powers", core._frozen(self.powers))

    @classmethod
    def from_state(cls, x0: float, order: int) -> "InitialMomentVector":
        _check_order(order)
        x0 = float(x0)
        # powers past the double range stay infinite until a solve reads them
        with np.errstate(over="ignore"):
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
        object.__setattr__(self, "values", core._frozen(self.values))

    @property
    def order(self) -> int:
        return self.values.shape[0]


def _check_horizon(t: float) -> float:
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise InvalidInput(f"time must be finite and >= 0, got {t}")
    return t


def _stationary(system: CoefficientSystem) -> np.ndarray:
    """The forward substitution 0 = T s + c; past the double range it gives
    infinities or NaN, which the callers read."""
    with np.errstate(over="ignore", invalid="ignore"):
        return core.solve_lower(system.theta, -system.theta0)


def _grading(A: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Power-of-two exponents e_k of a diagonal similarity for e^{A t} v.

    Component k is scaled by its heaviest generator path from row 0 or from
    v, the p-th jump into component k weighing |a_kj| min(t/p, 1/|a_kk|):
    within time t a path of p jumps carries t^p/p!, and a decaying component
    holds at most 1/|a_kk| of its inflow.  Each component keeps only its
    heaviest path, so row k reads rows <= k alone, and the pass works in
    logarithms so that no weight underflows.
    """
    with np.errstate(divide="ignore"):
        log_a = np.log(np.abs(A))
        log_w = np.log(np.abs(v))
        log_hold = -np.log(np.abs(np.diagonal(A)))
    log_t = math.log(t)
    jumps = [0] * A.shape[0]
    log_next = np.full(A.shape[0], log_t)  # log(t / (jumps + 1)), the next jump's time factor
    for k in range(1, A.shape[0]):
        cand = np.minimum(log_next[:k], log_hold[k])
        cand += log_w[:k]
        cand += log_a[k, :k]
        j = int(cand.argmax())
        if cand[j] > log_w[k]:
            log_w[k] = cand[j]
            jumps[k] = jumps[j] + 1
            log_next[k] = log_t - math.log(jumps[k] + 1)
    e = np.where(np.isfinite(log_w), np.rint(log_w / math.log(2.0)), -_GRADE_EXP)
    return np.clip(e, -_GRADE_EXP, _GRADE_EXP).astype(np.int64)


def transient_vector(
    system: CoefficientSystem, init: InitialMomentVector, t: float
) -> MomentVector:
    """All moments at time t from one matrix exponential evaluation.

    s(t) is rows 1..n of e^{A t} [1; s(0)] for the augmented generator
    A = [[0, 0], [c, T]] (Van Loan, IEEE TAC 23, 1978), which needs no
    resolvent and no distinct spectrum.  The exponential is graded: the
    grading D = diag(2^e) makes every component of D^{-1} e^{At} [1; s(0)] of
    order one, and ``core._taylor_exp`` applies e^B, B = D^{-1} A t D, to the
    graded vector D^{-1} [1; s(0)].  Powers of two keep the grading exact.

    Once every e^{d_k t} is below machine epsilon, the origin moves to the
    stationary vector s_inf, so the flow carries only the small remainder
    s(0) - s_inf and near-stationary moments stay a smooth function of t.
    """
    t = _check_horizon(t)
    _check_initial(system, init)
    if t == 0.0:
        return MomentVector(0.0, init.powers)
    n = system.order
    T = system.theta.dense()
    shift, start = system.theta0, init.powers
    with np.errstate(over="ignore", invalid="ignore"):
        anchor = None
        if np.all(system.theta.diagonal() * t <= _LOG_EPS):
            anchor = _stationary(system)
            shift = T @ anchor + shift
            start = start - anchor
        A = np.zeros((n + 1, n + 1))
        A[1:, 0] = shift
        A[1:, 1:] = T
        v = np.concatenate(([1.0], start))
        e = _grading(A, v, t)
        w = core._taylor_exp(np.ldexp(A * t, e[None, :] - e[:, None]), np.ldexp(v, -e))
        values = np.ldexp(w, e)[1:]
        if anchor is not None:
            # only here: -0.0 + 0.0 would turn a flow's -0.0 into +0.0
            values = anchor + values
    # the dense product spreads one overflowed order over all, so name none
    if _overflow_order(values) is not None:
        raise Overflow("transient moments exceeded the double-precision range")
    return MomentVector(t, values)


def transient_scalar(
    system: CoefficientSystem, init: InitialMomentVector, t: float, n: int
) -> float:
    """The n-th moment at time t, from the leading order-n system alone."""
    _check_moment_order(system, n)
    head = InitialMomentVector(init.x0, init.powers[:n])
    return float(transient_vector(system.leading(n), head, t).values[-1])


def _diagonal_signs(theta: MatryoshkanMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The positions (from 1) of the zero and of the positive diagonal entries."""
    d = theta.diagonal()
    zero, positive = [], []
    for i in np.flatnonzero(d >= 0.0):
        (zero if d[i] == 0.0 else positive).append(int(i) + 1)
    return tuple(zero), tuple(positive)


def _require_stable(system: CoefficientSystem) -> None:
    zero, positive = _diagonal_signs(system.theta)
    if zero or positive:
        k = min(zero + positive)
        detail = "zero" if k in zero else "nonnegative"
        raise NonStationary(
            f"{detail} diagonal entry at position {k}: no stationary moments"
        )


def steady_vector(system: CoefficientSystem) -> MomentVector:
    """Stationary moments solving 0 = T s + c by forward substitution."""
    _require_stable(system)
    return MomentVector(STATIONARY, _in_range("stationary moment", _stationary(system)))


def steady_nth(system: CoefficientSystem, n: int) -> float:
    """The n-th stationary moment, from the leading order-n system alone."""
    _require_stable(system)
    _check_moment_order(system, n)
    return steady_vector(system.leading(n)).values[-1]


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostics for a coefficient system; never raises."""

    order: int
    zero_diagonals: tuple[int, ...]
    positive_diagonals: tuple[int, ...]
    coincident_pairs: tuple[tuple[int, int], ...]
    predicted_overflow_order: int | None

    # a MatryoshkanMatrix is lower triangular by construction
    triangular = True

    @property
    def singular(self) -> bool:
        return bool(self.zero_diagonals)

    @property
    def stationary(self) -> bool:
        return not self.zero_diagonals and not self.positive_diagonals

    @property
    def distinct(self) -> bool:
        return not self.coincident_pairs

    def describe(self) -> str:
        lines = [f"order: {self.order}", "triangular: yes"]
        if self.stationary:
            lines.append("stationary: yes")
        elif self.singular:
            lines.append("stationary: no; singular")
        else:
            lines.append("stationary: no; nonnegative diagonal")
        if self.zero_diagonals:
            lines.append(f"zero diagonals: {list(self.zero_diagonals)}")
        if self.positive_diagonals:
            lines.append(f"positive diagonals: {list(self.positive_diagonals)}")
        if self.coincident_pairs:
            lines.append(f"coincident diagonals: {[list(p) for p in self.coincident_pairs]}")
        if self.predicted_overflow_order is not None:
            lines.append(f"predicted overflow order: {self.predicted_overflow_order}")
        return "\n".join(lines)


def validate(system: CoefficientSystem) -> ValidationReport:
    """Report the zero, positive and coincident diagonals and, for a stable
    system, the first order at which ``steady_vector`` overflows."""
    zero, positive = _diagonal_signs(system.theta)
    stable = not zero and not positive
    return ValidationReport(
        order=system.order,
        zero_diagonals=zero,
        positive_diagonals=positive,
        coincident_pairs=system.theta.coincident_pairs(),
        predicted_overflow_order=_overflow_order(_stationary(system)) if stable else None,
    )
