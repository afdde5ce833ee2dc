"""Independent Monte Carlo verification of the closed-form moments.

Jump processes are simulated exactly by event-driven schemes, so their
estimates carry no discretization bias; diffusions use Euler-Maruyama steps
and carry O(step) weak bias, which is why they are a sanity check rather
than a truth source.

Randomness comes from the Philox counter-based generator.  Every path of a
jump process owns a substream keyed by (seed, path index), so estimates are
reproducible regardless of how paths might be scheduled; accumulation runs
in fixed path order, making results bit-identical for a given seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EstimatePrecisionWarning, InvalidInput
from .processes import (
    EphemeralSpec,
    GenericGeneratorSpec,
    GrowthCollapseSpec,
    HawkesSpec,
    ItoSpec,
    ProcessSpec,
    ShotNoiseSpec,
)

__all__ = ["MomentEstimate", "SimConfig", "estimate_moments", "simulate"]

_MASK64 = (1 << 64) - 1
# stream index reserved for vectorized (non-per-path) draws
_VECTOR_STREAM = 1 << 63


@dataclass(frozen=True)
class SimConfig:
    """Path count, horizon, seed, and the diffusion-only step size."""

    paths: int
    horizon: float
    seed: int
    sim_step: float = 1e-3

    def __post_init__(self):
        if self.paths < 1:
            raise InvalidInput(f"paths must be >= 1, got {self.paths}")
        if not 0 <= self.horizon < math.inf:
            raise InvalidInput(f"horizon must be finite and >= 0, got {self.horizon}")
        if not 0 < self.sim_step < math.inf:
            raise InvalidInput(f"sim_step must be finite and > 0, got {self.sim_step}")


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean of X^k across paths with its standard error."""

    order: int
    mean: float
    std_error: float
    paths: int


def _stream(seed: int, index: int) -> np.random.Generator:
    key = ((seed & _MASK64) << 64) | (index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate(spec: ProcessSpec, cfg: SimConfig) -> np.ndarray:
    """Terminal value of one path per substream, at cfg.horizon."""
    if isinstance(spec, HawkesSpec):
        return _per_path(cfg, _hawkes_terminal, spec)
    if isinstance(spec, ShotNoiseSpec):
        return _per_path(cfg, _shot_noise_terminal, spec)
    if isinstance(spec, GrowthCollapseSpec):
        return _per_path(cfg, _growth_collapse_terminal, spec)
    if isinstance(spec, EphemeralSpec):
        return _per_path(cfg, _ephemeral_terminal, spec)
    if isinstance(spec, GenericGeneratorSpec):
        return _per_path(cfg, _generic_terminal, spec)
    if isinstance(spec, ItoSpec):
        return _ito_terminals(spec, cfg)
    raise InvalidInput(f"unsupported process spec: {type(spec).__name__}")


def _per_path(cfg: SimConfig, kernel, spec) -> np.ndarray:
    out = np.empty(cfg.paths)
    for i in range(cfg.paths):
        out[i] = kernel(_stream(cfg.seed, i), spec, cfg.horizon)
    return out


def estimate_moments(terminals, max_order: int) -> list[MomentEstimate]:
    """Sample means of powers with standard errors, in fixed path order."""
    values = np.asarray(terminals, dtype=np.float64).reshape(-1)
    if values.size < 2:
        raise InvalidInput("at least two paths are needed for a standard error")
    if max_order < 1:
        raise InvalidInput(f"max_order must be >= 1, got {max_order}")
    out = []
    root_n = math.sqrt(values.size)
    for k in range(1, max_order + 1):
        powers = values**k
        mean = float(powers.mean())
        se = float(powers.std(ddof=1) / root_n)
        if mean != 0.0 and se > 0.2 * abs(mean):
            warnings.warn(
                f"relative standard error above 20% at order {k}; the sample "
                "is too small for this moment's tail",
                EstimatePrecisionWarning,
                stacklevel=2,
            )
        out.append(MomentEstimate(order=k, mean=mean, std_error=se, paths=values.size))
    return out


# -- exact jump-process kernels ---------------------------------------------


def _hawkes_terminal(rng: np.random.Generator, spec: HawkesSpec, horizon: float) -> float:
    """Exact simulation of the self-exciting intensity.

    While the intensity sits at or above the baseline, the next arrival is
    the minimum of two exact clocks: a homogeneous one at the baseline rate
    and one for the decaying excess, whose integrated hazard inverts in
    closed form (it saturates at excess/beta, so the draw may be infinite).
    Below the baseline the intensity only climbs toward it, so a thinning
    step bounded by the baseline stays exact.
    """
    lam_star = spec.lambda_star
    beta = spec.beta
    lam = spec.x0
    t = 0.0
    while True:
        if lam >= lam_star:
            s1 = rng.exponential() / lam_star if lam_star > 0.0 else math.inf
            cap = (lam - lam_star) / beta
            e2 = rng.exponential()
            if cap > 0.0 and e2 < cap:
                s2 = -math.log1p(-e2 / cap) / beta
            else:
                s2 = math.inf
            s = min(s1, s2)
            if t + s >= horizon:
                break
            t += s
            lam = lam_star + (lam - lam_star) * math.exp(-beta * s) + spec.alpha
        else:
            s = rng.exponential() / lam_star
            if t + s >= horizon:
                break
            t += s
            lam = lam_star + (lam - lam_star) * math.exp(-beta * s)
            if rng.random() * lam_star <= lam:
                lam += spec.alpha
    return lam_star + (lam - lam_star) * math.exp(-beta * (horizon - t))


def _shot_noise_terminal(
    rng: np.random.Generator, spec: ShotNoiseSpec, horizon: float
) -> float:
    """Exact: Poisson epoch count, uniform epochs, decayed sampled jumps."""
    value = spec.x0 * math.exp(-spec.decay * horizon)
    count = rng.poisson(spec.rate * horizon)
    if count:
        epochs = rng.random(count) * horizon
        sizes = spec.jumps.sample(rng, count)
        value += float(np.dot(sizes, np.exp(-spec.decay * (horizon - epochs))))
    return value


def _growth_collapse_terminal(
    rng: np.random.Generator, spec: GrowthCollapseSpec, horizon: float
) -> float:
    """Exact: exponential collapse clocks, linear growth in between."""
    y = spec.x0
    t = 0.0
    while True:
        s = rng.exponential() / spec.collapse_rate
        if t + s >= horizon:
            return y + spec.growth * (horizon - t)
        y += spec.growth * s
        y *= spec.collapse.sample(rng)
        t += s


def _ephemeral_terminal(
    rng: np.random.Generator, spec: EphemeralSpec, horizon: float
) -> float:
    """Exact event-driven birth-death with state-dependent birth rate."""
    q = spec.x0
    t = 0.0
    while True:
        up = spec.baseline + spec.jump * q
        total = up + spec.expiry * q
        s = rng.exponential() / total
        if t + s >= horizon:
            return float(q)
        t += s
        if rng.random() * total < up:
            q += 1
        else:
            q -= 1


def _drift_flow(c0: float, c1: float, x: float, s: float) -> float:
    """State after time s under dx/dt = c0 + c1 x."""
    if c1 == 0.0:
        return x + c0 * s
    g = math.exp(c1 * s)
    return x * g + c0 * (g - 1.0) / c1


def _generic_terminal(
    rng: np.random.Generator, spec: GenericGeneratorSpec, horizon: float
) -> float:
    """Exact thinning for affine jump rates with deterministic drift flow.

    Diffusion terms are not supported here; the affine rates are monotone
    along the drift flow, so the rate over any lookahead window is bounded
    by its value at the window's endpoints, which makes thinning exact.
    """
    a = spec.coeffs
    if a[6] != 0.0 or a[7] != 0.0 or a[8] != 0.0:
        raise InvalidInput("generic simulation does not support diffusion terms")

    def rates(x: float) -> tuple[float, float, float]:
        up = a[0] + a[1] * x
        down = a[2] + a[3] * x
        if up < 0.0 or down < 0.0:
            raise InvalidInput(f"negative jump rate reached at state {x!r}")
        return up, down, a[9]

    x = spec.x0
    t = 0.0
    while t < horizon:
        window = horizon - t
        x_end = _drift_flow(a[4], a[5], x, window)
        bound = max(sum(rates(x)), sum(rates(x_end)))
        if bound <= 0.0:
            return x_end
        s = rng.exponential() / bound
        if s >= window:
            return x_end
        x = _drift_flow(a[4], a[5], x, s)
        t += s
        up, down, collapse = rates(x)
        u = rng.random() * bound
        if u < up:
            x += spec.up.sample(rng)
        elif u < up + down:
            x -= spec.down.sample(rng)
        elif u < up + down + collapse:
            x *= spec.collapse.sample(rng)
        # otherwise a thinning rejection: no event
    return x


# -- discretized diffusion ----------------------------------------------------


def _ito_terminals(spec: ItoSpec, cfg: SimConfig) -> np.ndarray:
    """Euler-Maruyama across all paths at once, one normal vector per step.

    The step is adjusted to divide the horizon exactly.  The estimate has
    O(step) weak bias; negative excursions are truncated at zero before
    fractional powers of the state are taken.
    """
    if cfg.horizon == 0.0:
        return np.full(cfg.paths, float(spec.x0))
    steps = max(1, round(cfg.horizon / cfg.sim_step))
    dt = cfg.horizon / steps
    sqdt = math.sqrt(dt)
    rng = _stream(cfg.seed, _VECTOR_STREAM)
    s = np.full(cfg.paths, float(spec.x0))
    expo = spec.gamma / 2.0
    for _ in range(steps):
        z = rng.standard_normal(cfg.paths)
        if expo == 0.0:
            vol = spec.sigma
        elif expo == 1.0:
            vol = spec.sigma * s
        else:
            vol = spec.sigma * np.maximum(s, 0.0) ** expo
        s += (spec.mu + spec.theta * s) * dt + vol * (sqdt * z)
    return s
