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

from .core import _MAX_ENTRIES, _check_steps, _integer, _overflow, _overflow_order, _real, _shaped, _typed
from .errors import EstimatePrecisionWarning, InvalidInput
from .processes import GenericGeneratorSpec, ItoSpec, ProcessSpec

__all__ = ["MomentEstimate", "SimConfig", "estimate_moments", "simulate"]

_MASK64 = (1 << 64) - 1
# paths per block; one substream per block, and the block's state arrays
# bound the working memory whatever the path count
_BLOCK = 4096


@dataclass(frozen=True)
class SimConfig:
    """Path count, horizon, seed, and the Euler-Maruyama step size.  The path
    count and the seed are held as Python ints, so a numpy integer seed
    draws what the same int draws."""

    paths: int
    horizon: float
    seed: int
    sim_step: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "paths", _integer("paths", self.paths, 1, _MAX_ENTRIES))
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        _real("horizon", self.horizon, 0)
        _real("sim_step", self.sim_step, 0, above=True)


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean of X^k across paths with its standard error."""

    mean: float
    std_error: float


def _stream(seed: int, index: int) -> np.random.Generator:
    key = ((seed & _MASK64) << 64) | (index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate(spec: ProcessSpec, cfg: SimConfig) -> np.ndarray:
    """Terminal values of cfg.paths independent paths at cfg.horizon; a path
    that leaves the double range raises Overflow."""
    if isinstance(_typed("spec", spec, ProcessSpec), ItoSpec):
        kernel = _diffusion_kernel(spec, cfg)
    else:
        kernel = _thinning_kernel(spec.generator(), cfg.horizon)
    out = np.empty(cfg.paths)
    for block, start in enumerate(range(0, cfg.paths, _BLOCK)):
        stop = min(start + _BLOCK, cfg.paths)
        out[start:stop] = kernel(_stream(cfg.seed, block), stop - start)
    if _overflow_order(out) is not None:
        raise _overflow("simulated path")
    return out


def estimate_moments(terminals, max_order: int) -> list[MomentEstimate]:
    """Sample means of X^k, k = 1..max_order, with standard errors, in fixed
    path order."""
    values = _shaped("terminals", terminals, 1)
    if values.size < 2:
        raise InvalidInput("at least two paths are needed for a standard error")
    max_order = _integer("max_order", max_order, 1)
    pairs = []
    root_n = math.sqrt(values.size)
    # the first order that overflows ends the run before any warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_order + 1):
            powers = values**k
            mean, se = float(powers.mean()), float(powers.std(ddof=1) / root_n)
            if not (math.isfinite(mean) and math.isfinite(se)):
                raise _overflow("sample moment estimate", k)
            pairs.append((mean, se))
    out = []
    for k, (mean, se) in enumerate(pairs, start=1):
        if mean != 0.0 and se > 0.2 * abs(mean):
            warnings.warn(
                f"relative standard error above 20% at order {k}; the sample "
                "is too small for this moment's tail",
                EstimatePrecisionWarning,
                stacklevel=2,
            )
        out.append(MomentEstimate(mean=mean, std_error=se))
    return out


def _thinning_kernel(g: GenericGeneratorSpec, horizon: float):
    """Exact thinning for affine jump rates along the drift dx/dt = a4 + a5 x."""
    a = g.coeffs
    if a[6] != 0.0 or a[7] != 0.0 or a[8] != 0.0:
        raise InvalidInput("generic simulation does not support diffusion terms")
    if a[9] < 0.0:
        raise InvalidInput(f"negative collapse rate {a[9]!r}")
    # (jump-size law, how it acts on the state, rate coefficients) in draw order;
    # a kind whose rate is identically zero owns an empty slice and is never drawn
    kinds = ((g.up, np.add, a[:2]), (g.down, np.subtract, a[2:4]), (g.collapse, np.multiply, a[9:]))
    events = [(k, law, act) for k, (law, act, rates) in enumerate(kinds) if any(rates)]

    # the up and down rates are lo + hi x, one row each
    lo, hi = np.array([[a[0]], [a[2]]]), np.array([[a[1]], [a[3]]])

    def flow(x, s):
        if a[5] == 0.0:
            return x + a[4] * s
        a5s = a[5] * s
        return x * np.exp(a5s) + a[4] * np.expm1(a5s) / a[5]

    def edges(x, pieces=1):
        """Cumulative up, down and collapse rates at states x: event k owns
        the slice [edges[k-1], edges[k]) of the total rate edges[2]."""
        rates = hi * x
        rates += lo
        # the minimum skips NaN, as a comparison does
        if np.fmin.reduce(rates, axis=None, initial=math.inf) < 0.0:
            # name a state of the first of the equal parts of x that has one
            for part, r in zip(np.split(x, pieces), np.split(rates, pieces, axis=1)):
                if (r < 0.0).any():
                    state = part[np.argmin(np.minimum(r[0], r[1]))]
                    raise InvalidInput(f"negative jump rate reached at state {float(state)!r}")
        up_down = rates[0] + rates[1]
        return rates[0], up_down, up_down + a[9]

    def run(rng: np.random.Generator, m: int) -> np.ndarray:
        out = np.empty(m)
        live = np.arange(m)
        x, t = np.full(m, float(g.x0)), np.zeros(m)
        # a law that cannot be sampled is refused before the first draw,
        # whatever the seed; a zero-size draw takes no randomness
        for _, jumps, _ in events:
            jumps.sample(rng, 0)
        with np.errstate(all="ignore"):
            while live.size:
                window = horizon - t
                # the rates at both ends of the window, one call on (x, x_end)
                ends = np.concatenate((x, flow(x, window)))
                total = edges(ends, 2)[2]
                bound = np.maximum(total[: live.size], total[live.size :])
                s = rng.standard_exponential(live.size) / bound
                peak = float(bound.max())
                if not math.isfinite(peak):
                    raise _overflow("jump-rate bound")
                _check_steps("expected thinning proposals", peak * horizon)
                # every live path's value at the horizon, rewritten until its
                # next proposal falls past the horizon
                out[live] = ends[live.size :]
                go = (s < window).nonzero()[0]
                live, s, bound = live[go], s[go], bound[go]
                x, t = flow(x[go], s), t[go] + s
                # past the last slice (kind 3) the proposal is a thinning rejection
                u = rng.random(live.size) * bound
                up, up_down, total = edges(x)
                kind = (u >= up).view(np.int8)
                kind += u >= up_down
                kind += u >= total
                for k, jumps, act in events:
                    hit = (kind == k).nonzero()[0]
                    if hit.size:
                        x[hit] = act(x[hit], jumps.sample(rng, hit.size))
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
            # sigma * sigma is the correctly rounded square, as ItoSpec's
            scale = sigma * sigma * integral(theta) / 4.0
            df, nonc = 4.0 * mu / (sigma * sigma), x0 * math.exp(theta * t) / scale
            if not df > 0.0:  # the square past the double range, or df below it
                raise OverflowError
            return lambda rng, m: scale * rng.noncentral_chisquare(df, nonc, m)
    except (OverflowError, ZeroDivisionError):
        # the square may also underflow to 0 and be divided by
        raise _overflow(f"transition law at t = {t!r}") from None

    _check_steps("Euler-Maruyama steps", t / cfg.sim_step)
    steps = max(1, round(t / cfg.sim_step))
    dt = t / steps
    sqdt = math.sqrt(dt)
    expo = spec.gamma / 2.0

    def euler(rng: np.random.Generator, m: int) -> np.ndarray:
        """s += (mu + theta s) dt + vol (sqdt z), each step in place."""
        s, z, vol, drift = np.full(m, x0), np.empty(m), np.empty(m), np.empty(m)
        # a path past the double range goes on as inf or NaN for simulate to report
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(steps):
                rng.standard_normal(out=z)
                z *= sqdt
                if expo == 1.0:
                    np.multiply(s, sigma, out=vol)
                else:
                    np.maximum(s, 0.0, out=vol)
                    vol **= expo
                    vol *= sigma
                vol *= z
                np.multiply(s, theta, out=drift)
                drift += mu
                drift *= dt
                drift += vol
                s += drift
        return s

    return euler
