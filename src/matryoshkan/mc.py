"""Independent Monte Carlo verification of the closed-form moments.

Every jump family is simulated exactly by one thinning kernel (Lewis and
Shedler, 1979) on the spec's generic generator, the same map that
``processes.build`` uses.  Affine jump rates are monotone along the
deterministic drift flow, so the total rate over the rest of the horizon is
bounded by its value at the two ends; proposals drawn at that bound and
accepted with probability rate/bound give the exact law.  The kernel
advances all live paths of a block together.

Diffusions sample their exact transition law where one exists: Gaussian
for gamma = 0, and the scaled noncentral chi-square law of the square-root
diffusion for gamma = 1 with mu > 0, sigma > 0 and x0 >= 0 (Glasserman,
2004, section 3.4).  Only the rest (gamma = 2, fractional gamma, gamma = 1
outside that domain) takes Euler-Maruyama steps of ``sim_step`` and carries
O(step) weak bias; ``sim_step`` affects nothing else.

Randomness comes from the Philox counter-based generator.  Paths are cut
into blocks of at most ``_BLOCK``, and block b draws from its own substream
keyed by (seed, b), so the output is bit-identical for a given (spec, cfg).
A path's value depends on (seed, paths), not on its index alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EstimatePrecisionWarning, InsufficientMoments, InvalidInput, Overflow
from .processes import GenericGeneratorSpec, ItoSpec, ProcessSpec

__all__ = ["MomentEstimate", "SimConfig", "estimate_moments", "simulate"]

_MASK64 = (1 << 64) - 1
# paths per block; one substream per block, and the block's state arrays
# bound the working memory whatever the path count
_BLOCK = 4096


@dataclass(frozen=True)
class SimConfig:
    """Path count, horizon, seed, and the Euler-Maruyama step size."""

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
    """Terminal values of cfg.paths independent paths at cfg.horizon."""
    if not isinstance(spec, ProcessSpec):
        raise InvalidInput(f"unsupported process spec: {type(spec).__name__}")
    if isinstance(spec, ItoSpec):
        kernel = _diffusion_kernel(spec, cfg)
    else:
        kernel = _thinning_kernel(spec.generator(), cfg.horizon)
    out = np.empty(cfg.paths)
    for block, start in enumerate(range(0, cfg.paths, _BLOCK)):
        stop = min(start + _BLOCK, cfg.paths)
        out[start:stop] = kernel(_stream(cfg.seed, block), stop - start)
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


def _thinning_kernel(g: GenericGeneratorSpec, horizon: float):
    """Exact thinning for affine jump rates along the drift dx/dt = a4 + a5 x."""
    a = g.coeffs
    if a[6] != 0.0 or a[7] != 0.0 or a[8] != 0.0:
        raise InvalidInput("generic simulation does not support diffusion terms")
    if a[9] < 0.0:
        raise InvalidInput(f"negative collapse rate {a[9]!r}")
    events = []  # (jump-size law, how it acts on the state), in draw order
    for used, jumps, name, act in (
        (a[0] != 0.0 or a[1] != 0.0, g.up, "up-jump", np.add),
        (a[2] != 0.0 or a[3] != 0.0, g.down, "down-jump", np.subtract),
        (a[9] != 0.0, g.collapse, "collapse", np.multiply),
    ):
        if used and jumps is None:
            raise InsufficientMoments(f"{name} law required to simulate its rate terms")
        events.append((jumps, act))

    def flow(x, s):
        if a[5] == 0.0:
            return x + a[4] * s
        return x * np.exp(a[5] * s) + a[4] * np.expm1(a[5] * s) / a[5]

    def edges(x):
        """Cumulative up, down and collapse rates at states x: event k owns
        the slice [edges[k-1], edges[k]) of the total rate edges[2]."""
        up, down = a[0] + a[1] * x, a[2] + a[3] * x
        if (up < 0.0).any() or (down < 0.0).any():
            state = x[np.argmin(np.minimum(up, down))]
            raise InvalidInput(f"negative jump rate reached at state {state!r}")
        return up, up + down, up + down + a[9]

    def run(rng: np.random.Generator, m: int) -> np.ndarray:
        out = np.empty(m)
        live = np.arange(m)
        x, t = np.full(m, float(g.x0)), np.zeros(m)
        while live.size:
            window = horizon - t
            with np.errstate(all="ignore"):
                x_end = flow(x, window)
                bound = np.maximum(edges(x)[2], edges(x_end)[2])
                s = rng.standard_exponential(live.size) / bound
            if not np.isfinite(bound).all():
                raise Overflow("the jump-rate bound left the double-precision range")
            done = ~(s < window)
            out[live[done]] = x_end[done]
            go = ~done
            live, s, bound = live[go], s[go], bound[go]
            x, t = flow(x[go], s), t[go] + s
            # past the last slice (kind 3) the proposal is a thinning rejection
            u = rng.random(live.size) * bound
            kind = (u >= np.array(edges(x))).sum(axis=0)
            for k, (jumps, act) in enumerate(events):
                hit = kind == k
                if hit.any():
                    x[hit] = act(x[hit], jumps.sample(rng, int(hit.sum())))
        return out

    return run


def _diffusion_kernel(spec: ItoSpec, cfg: SimConfig):
    """Exact transition law for gamma in {0, 1} where one exists, else
    Euler-Maruyama across the block with the step adjusted to divide the
    horizon; negative excursions are truncated at zero before fractional
    powers of the state are taken."""
    mu, theta, sigma, x0, t = spec.mu, spec.theta, spec.sigma, float(spec.x0), cfg.horizon
    if t == 0.0:
        return lambda rng, m: np.full(m, x0)

    def integral(rate: float) -> float:
        """The integral of e^{rate s} over [0, t]."""
        return math.expm1(rate * t) / rate if rate != 0.0 else t

    try:
        if spec.gamma == 0.0:
            mean = x0 * math.exp(theta * t) + mu * integral(theta)
            sd = abs(sigma) * math.sqrt(integral(2.0 * theta))
            return lambda rng, m: mean + sd * rng.standard_normal(m)
        if spec.gamma == 1.0 and mu > 0.0 and sigma > 0.0 and x0 >= 0.0:
            scale = sigma**2 * integral(theta) / 4.0
            df, nonc = 4.0 * mu / sigma**2, x0 * math.exp(theta * t) / scale
            return lambda rng, m: scale * rng.noncentral_chisquare(df, nonc, m)
    except OverflowError:
        raise Overflow(f"transition law at t = {t!r} exceeds the double range") from None

    steps = max(1, round(t / cfg.sim_step))
    dt = t / steps
    sqdt = math.sqrt(dt)
    expo = spec.gamma / 2.0

    def euler(rng: np.random.Generator, m: int) -> np.ndarray:
        s = np.full(m, x0)
        for _ in range(steps):
            z = rng.standard_normal(m)
            vol = sigma * s if expo == 1.0 else sigma * np.maximum(s, 0.0) ** expo
            s += (mu + theta * s) * dt + vol * (sqdt * z)
        return s

    return euler
