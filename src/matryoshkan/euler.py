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

from .core import _check_steps, _integer, _overflow, _overflow_order, _real
from .engine import (CoefficientSystem, InitialMomentVector, MomentVector, _check_initial,
                     transient_vector)
from .errors import InvalidInput

__all__ = ["BenchRecord", "EulerConfig", "bench", "error_metrics", "euler_solve"]

_CHECK_EVERY = 1024


@dataclass(frozen=True)
class EulerConfig:
    """Step size and horizon.  The horizon rounds to the nearest whole number
    of ``steps``, so the stepped values sit at ``steps * step``; the unstepped
    part is ``remainder``."""

    step: float
    horizon: float

    def __post_init__(self):
        step = _real("step", self.step, 0, above=True)
        _check_steps("Euler steps", _real("horizon", self.horizon, 0) / step)

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
    """Iterate s <- s + step * (T s + c) from the initial powers, ``cfg.steps``
    times: the values sit at ``cfg.steps * cfg.step``, which misses the
    horizon by ``cfg.remainder``.

    The per-step cost is one triangular matrix-vector product, O(n^2).
    A component that is no longer finite raises Overflow (the step is too
    coarse for the stiffest diagonal).
    """
    _check_initial(system, init)
    steps = cfg.steps
    s = init.powers.copy()
    n = system.order
    h = float(cfg.step)
    if n == 1:
        # scalar fast path; the generic loop below spends its time on
        # numpy call overhead at this size
        t11 = float(system.theta.dense()[0, 0])
        c1 = float(system.theta0[0])
        x = float(s[0])
        for _ in range(steps):
            x += h * (t11 * x + c1)
            if not math.isfinite(x):
                break
        s = np.array([x])
    else:
        # bound once, with the step held as a vector so the multiply converts
        # no Python float: the per-step cost is four numpy calls in the
        # order gemv, + c, * h, s += r
        dot, add, multiply = system.theta.dense().dot, np.add, np.multiply
        c = system.theta0
        hv = np.full(n, h)
        r = np.empty(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, steps, _CHECK_EVERY):
                for _ in range(min(_CHECK_EVERY, steps - start)):
                    dot(s, r)
                    add(r, c, r)
                    multiply(r, hv, r)
                    add(s, r, s)
                if _overflow_order(s) is not None:
                    break
    # one overflowed order turns every order to NaN through T s, so name none
    if _overflow_order(s) is not None:
        raise _overflow("Euler iteration")
    return MomentVector(s)


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


def bench(
    system: CoefficientSystem,
    init: InitialMomentVector,
    t: float,
    deltas: list[float],
    trials: int,
) -> list[BenchRecord]:
    """Time the closed form and each Euler step size over repeated trials.

    Matrix construction happened before this call and is not timed.  Errors
    compare the highest-order component of each Euler run against the closed
    form; the closed-form row reports zero error against itself by convention.
    Trials run sequentially so the wall-clock readings stay honest, and every
    step size is checked before the first of them.
    """
    trials = _integer("trials", trials, 1)
    configs = [EulerConfig(step=delta, horizon=t) for delta in deltas]

    closed, mean, median = _timed(trials, transient_vector, system, init, t)
    records = [BenchRecord("closed-form", None, mean, median, 0.0, 0.0)]
    for cfg in configs:
        stepped, mean, median = _timed(trials, euler_solve, system, init, cfg)
        abs_err, rel_err = error_metrics(stepped, closed)
        rel = None if np.isnan(rel_err[-1]) else float(rel_err[-1])
        records.append(BenchRecord("euler", float(cfg.step), mean, median, float(abs_err[-1]), rel))
    return records


def _timed(trials: int, fn, *args):
    """The last of ``trials`` sequential calls fn(*args), with the mean and
    the median of their wall times."""
    times = []
    for _ in range(trials):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return out, float(np.mean(times)), float(np.median(times))
