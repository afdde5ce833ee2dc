"""First-order explicit time stepping for the moment ODE system, plus the
error metrics and timing records used to compare it against the closed form.

Timing deliberately excludes matrix construction: both methods share that
pre-computation, so only the solve itself is measured.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .engine import CoefficientSystem, InitialMomentVector, MomentVector, transient_vector
from .errors import InvalidInput, Overflow

__all__ = ["BenchRecord", "EulerConfig", "bench", "error_metrics", "euler_solve"]

_OVERFLOW_LIMIT = 1e300
_CHECK_EVERY = 1024


@dataclass(frozen=True)
class EulerConfig:
    """Step size and horizon.  Non-divisible horizons round to the nearest
    whole number of steps; the leftover is reported, never stepped."""

    step: float
    horizon: float

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise InvalidInput(f"step must be finite and > 0, got {self.step}")
        if not 0 <= self.horizon < math.inf:
            raise InvalidInput(f"horizon must be finite and >= 0, got {self.horizon}")

    @property
    def steps(self) -> int:
        return round(self.horizon / self.step)

    @property
    def remainder(self) -> float:
        """Unstepped part of the horizon, |t - steps * step| <= step / 2."""
        return self.horizon - self.steps * self.step


def euler_solve(
    system: CoefficientSystem, init: InitialMomentVector, cfg: EulerConfig
) -> MomentVector:
    """Iterate s <- s + step * (T s + c) from the initial powers.

    The per-step cost is one triangular matrix-vector product, O(n^2).
    Components past 1e300 raise Overflow (the step is too coarse for the
    stiffest diagonal).
    """
    if init.order != system.order:
        raise InvalidInput(
            f"initial vector order {init.order} != system order {system.order}"
        )
    steps = cfg.steps
    s = init.powers.copy()
    n = system.order
    if n == 1:
        # scalar fast path; the generic loop below spends its time on
        # numpy call overhead at this size
        t11 = float(system.theta.packed[0])
        c1 = float(system.theta0[0])
        x = float(s[0])
        h = cfg.step
        for _ in range(steps):
            x += h * (t11 * x + c1)
            if x > _OVERFLOW_LIMIT or x < -_OVERFLOW_LIMIT:
                raise Overflow("Euler iteration left the double-precision range")
        return MomentVector(cfg.horizon, np.array([x]))
    T = system.theta.dense()
    c = system.theta0
    h = cfg.step
    r = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            np.dot(T, s, out=r)
            r += c
            r *= h
            s += r
            if (k & (_CHECK_EVERY - 1)) == 0 and not _bounded(s):
                raise Overflow("Euler iteration left the double-precision range")
    if not _bounded(s):
        raise Overflow("Euler iteration left the double-precision range")
    return MomentVector(cfg.horizon, s)


def _bounded(s: np.ndarray) -> bool:
    m = float(np.max(np.abs(s)))
    return np.isfinite(m) and m <= _OVERFLOW_LIMIT


def error_metrics(
    m_euler: MomentVector, m_closed: MomentVector
) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise |stepped - closed| and its ratio to the closed value.

    The relative error divides by the closed-form value; components where it
    is zero report NaN there (the absolute error still stands).
    """
    if m_euler.order != m_closed.order:
        raise InvalidInput(
            f"order mismatch: {m_euler.order} vs {m_closed.order}"
        )
    abs_err = np.abs(m_euler.values - m_closed.values)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(m_closed.values != 0.0, abs_err / m_closed.values, np.nan)
    return abs_err, np.abs(rel)


@dataclass(frozen=True)
class BenchRecord:
    """One comparison row: a method, its step size, timings and errors."""

    method: str
    delta: float | None
    run_time_seconds: float
    run_time_median_seconds: float
    abs_error: float
    rel_error: float | None
    order: int
    trials: int


def bench(
    system: CoefficientSystem,
    init: InitialMomentVector,
    t: float,
    n: int,
    deltas: list[float],
    trials: int,
) -> list[BenchRecord]:
    """Time the closed form and each Euler step size over repeated trials.

    Matrix construction happened before this call and is not timed.  Errors
    compare the order-n component of each Euler run against the closed form;
    the closed-form row reports zero error against itself by convention.
    Trials run sequentially so the wall-clock readings stay honest.
    """
    if trials < 1:
        raise InvalidInput(f"trials must be >= 1, got {trials}")
    if not 1 <= n <= system.order:
        raise InvalidInput(f"moment order {n} out of range 1..{system.order}")

    closed_times = []
    closed = None
    for _ in range(trials):
        t0 = time.perf_counter()
        closed = transient_vector(system, init, t)
        closed_times.append(time.perf_counter() - t0)
    records = [
        BenchRecord(
            method="closed-form",
            delta=None,
            run_time_seconds=float(np.mean(closed_times)),
            run_time_median_seconds=float(np.median(closed_times)),
            abs_error=0.0,
            rel_error=0.0,
            order=n,
            trials=trials,
        )
    ]
    for delta in deltas:
        cfg = EulerConfig(step=float(delta), horizon=t)
        times = []
        stepped = None
        for _ in range(trials):
            t0 = time.perf_counter()
            stepped = euler_solve(system, init, cfg)
            times.append(time.perf_counter() - t0)
        abs_err, rel_err = error_metrics(stepped, closed)
        rel_n = rel_err[n - 1]
        records.append(
            BenchRecord(
                method="euler",
                delta=float(delta),
                run_time_seconds=float(np.mean(times)),
                run_time_median_seconds=float(np.median(times)),
                abs_error=float(abs_err[n - 1]),
                rel_error=None if np.isnan(rel_n) else float(rel_n),
                order=n,
                trials=trials,
            )
        )
    return records
