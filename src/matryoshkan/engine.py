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
from .core import MatryoshkanMatrix, _check_order, _in_range, _overflow, _overflow_order, _same_order
from .errors import NonStationary

__all__ = [
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

_LOG_EPS = math.log(np.finfo(np.float64).eps)
# Grading exponents are clipped to +-_GRADE_EXP; a component no path reaches
# is identically zero and takes the lowest.
_GRADE_EXP = 1000


def _check_initial(system: CoefficientSystem, init: InitialMomentVector) -> None:
    _same_order("init", init.order, system.order)
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
        object.__setattr__(self, "theta0", core._frozen("theta0", self.theta0, self.theta.order))

    @property
    def order(self) -> int:
        return self.theta.order

    def leading(self, k: int) -> "CoefficientSystem":
        return CoefficientSystem(self.theta.leading(k), self.theta0[:k])


@dataclass(frozen=True)
class InitialMomentVector:
    """Initial moments (E[X_0], ..., E[X_0^n]); ``from_state`` gives the
    powers of one state x0."""

    powers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "powers", core._frozen("powers", self.powers, nan=False))

    @classmethod
    def from_state(cls, x0: float, order: int) -> "InitialMomentVector":
        _check_order(order)
        x0 = core._real("x0", x0)
        # powers past the double range stay infinite until a solve reads them
        with np.errstate(over="ignore"):
            return cls(np.power(x0, np.arange(1, order + 1, dtype=np.float64)))

    @property
    def order(self) -> int:
        return self.powers.shape[0]


@dataclass(frozen=True)
class MomentVector:
    """Moments E[X^k], k = 1..n, at one time point or at stationarity."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", core._frozen("values", self.values))

    @property
    def order(self) -> int:
        return self.values.shape[0]


def _stationary(system: CoefficientSystem) -> np.ndarray:
    """The forward substitution 0 = T s + c; past the double range it gives
    infinities or NaN, which the callers read."""
    with np.errstate(over="ignore", invalid="ignore"):
        return core.solve_lower(system.theta, -system.theta0)


def _grading(A: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Power-of-two exponents e_k of a diagonal similarity for e^{A t} v, as
    int32, whose ldexp numpy vectorizes.

    Component k is scaled by its heaviest generator path from row 0 or from
    v, the p-th jump into component k weighing |a_kj| min(t/p, 1/|a_kk|):
    within time t a path of p jumps carries t^p/p!, and a decaying component
    holds at most 1/|a_kk| of its inflow.  Each component keeps only its
    heaviest path, so row k reads rows <= k alone, and the pass works in
    logarithms so that no weight underflows.

    Row k is one add and one argmax over its whole row of log|A|, against
    P_j = log(t/(p_j+1)) + log w_j; against W + log hold, W_j = log w_j, where
    the hold binds on every finished row; or against min(P, W + log hold)
    where it binds on some.  All read -inf for rows not yet final.  Rounding
    is monotone, so every candidate keeps the bits of
    (min(log(t/(p_j+1)), log hold) + log w_j) + log|a_kj|.
    """
    magnitude = np.abs(A)  # log 0 = -inf without numpy's slow path; NaN stays NaN
    log_a = np.log(magnitude, out=np.full(A.shape, -math.inf), where=magnitude != 0.0)
    log_hold = (-np.diagonal(log_a)).tolist()
    with np.errstate(divide="ignore"):
        log_v = np.log(np.abs(v)).tolist()
    log_t, size = math.log(t), A.shape[0]
    P, W = np.full((2, size), -math.inf)
    P[0], W[0] = log_t + log_v[0], log_v[0]
    jumps, cand = [0] * size, np.empty(size)
    held = log_t  # the least log(t/(p_j+1)) of the finished rows
    for k, row, hold, w in zip(range(1, size), log_a[1:], log_hold[1:], log_v[1:]):
        if hold >= log_t:  # no log(t/(p_j+1)) exceeds log t, so the hold does not bind
            np.add(P, row, out=cand)
        else:
            np.add(W, hold, out=cand)
            if hold > held:  # the hold binds on some finished rows only
                np.minimum(P, cand, out=cand)
            cand += row
        j = int(cand.argmax())
        best = cand.item(j)
        log_next = log_t  # log(t/(p+1)) at p = 0, exactly
        if best > w:
            w, jumps[k] = best, jumps[j] + 1
            log_next = log_t - math.log(jumps[k] + 1)
            if log_next < held:
                held = log_next
        W[k] = w
        P[k] = log_next + w
    e = np.where(np.isfinite(W), np.rint(W / math.log(2.0)), -_GRADE_EXP)
    return np.clip(e, -_GRADE_EXP, _GRADE_EXP).astype(np.int32)


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
    t = core._real("t", t, 0)
    _check_initial(system, init)
    if t == 0.0:
        return MomentVector(init.powers)
    n = system.order
    T = system.theta.dense()
    shift, start = system.theta0, init.powers
    with np.errstate(over="ignore", invalid="ignore"):
        anchor = None
        if system.theta.diagonal().max() * t <= _LOG_EPS:
            anchor = _stationary(system)
            shift = T @ anchor + shift
            start = start - anchor
        A = np.zeros((n + 1, n + 1))
        A[1:, 0] = shift
        A[1:, 1:] = T
        v = np.concatenate(([1.0], start))
        e = _grading(A, v, t)
        np.ldexp(np.multiply(A, t, out=A), e[None, :] - e[:, None], out=A)
        w = core._taylor_exp(A, np.ldexp(v, -e))
        values = np.ldexp(w, e)[1:]
        if anchor is not None:
            # only here: -0.0 + 0.0 would turn a flow's -0.0 into +0.0
            values = anchor + values
    # the dense product spreads one overflowed order over all, so name none
    if _overflow_order(values) is not None:
        raise _overflow("transient flow")
    return MomentVector(values)


def transient_scalar(
    system: CoefficientSystem, init: InitialMomentVector, t: float, n: int
) -> float:
    """The n-th moment at time t, from the leading order-n system alone."""
    n = core._integer("n", n, 1, system.order)
    head = InitialMomentVector(init.powers[:n])
    return float(transient_vector(system.leading(n), head, t).values[-1])


def _require_stable(system: CoefficientSystem) -> None:
    d = system.theta.diagonal()
    unstable = np.flatnonzero(d >= 0.0)
    if unstable.size:
        k = int(unstable[0])
        detail = "zero" if d[k] == 0.0 else "nonnegative"
        raise NonStationary(
            f"{detail} diagonal entry at position {k + 1}: no stationary moments"
        )


def steady_vector(system: CoefficientSystem) -> MomentVector:
    """Stationary moments solving 0 = T s + c by forward substitution."""
    _require_stable(system)
    return MomentVector(_in_range("stationary moment", _stationary(system)))


def steady_nth(system: CoefficientSystem, n: int) -> float:
    """The n-th stationary moment, from the leading order-n system alone, so
    only the first n diagonal entries need to be negative."""
    n = core._integer("n", n, 1, system.order)
    return steady_vector(system.leading(n)).values[-1]


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostics for a coefficient system; never raises."""

    zero_diagonals: tuple[int, ...]
    positive_diagonals: tuple[int, ...]
    coincident_pairs: tuple[tuple[int, int], ...]
    predicted_overflow_order: int | None

    @property
    def stationary(self) -> bool:
        return not self.zero_diagonals and not self.positive_diagonals


def validate(system: CoefficientSystem) -> ValidationReport:
    """Report the zero, positive and coincident diagonals and, for a stable
    system, the first order at which ``steady_vector`` overflows."""
    d = system.theta.diagonal()
    zero = tuple((np.flatnonzero(d == 0.0) + 1).tolist())
    positive = tuple((np.flatnonzero(d > 0.0) + 1).tolist())
    stable = not zero and not positive
    return ValidationReport(
        zero_diagonals=zero,
        positive_diagonals=positive,
        coincident_pairs=system.theta.coincident_pairs(),
        predicted_overflow_order=_overflow_order(_stationary(system)) if stable else None,
    )
