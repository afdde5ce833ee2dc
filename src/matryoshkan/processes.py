"""Parameter records of the supported process families and their one builder.

Every record maps itself, through ``generator()``, to a generic generator
with affine jump rates, affine drift, quadratic diffusion coefficient and
multiplicative collapse.  ``build`` applies that generator to x^k, expanding
jump terms by the binomial theorem, and returns the matrix/shift pair of the
moment ODE system plus the initial moment powers.  A new family is one more
``_generator`` map.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import MatryoshkanMatrix, _check_order, _checked, _in_range, _integer, _overflow, _real, _reals, _typed
from .engine import CoefficientSystem, InitialMomentVector
from .errors import (
    InsufficientMoments,
    InvalidInput,
    MomentSequenceWarning,
    UnsupportedGamma,
)

__all__ = [
    "DeterministicJumps",
    "EphemeralSpec",
    "ExplicitJumps",
    "ExponentialJumps",
    "GenericGeneratorSpec",
    "GrowthCollapseSpec",
    "HawkesSpec",
    "ItoSpec",
    "JumpMoments",
    "LogNormalJumps",
    "ShotNoiseSpec",
    "UniformJumps",
    "build",
    "pascal_lower",
    "pascal_matryoshkan",
]

# The unit Pascal Matryoshkan matrix of the largest order m asked for so far
# (C(k, j) at row k - 1, column j < k) beside the order-(m + 1) index table
# i - j, whose rows 1..n are i - j + 1 at order n; both are 0 above the
# diagonal, where a Pascal entry times a^0 or E[J^0] = 1 stays an exact +0.0.
# Leading blocks serve every smaller order, so the read-only pair only grows.
_PASCAL_BUFFER = (np.empty((0, 0)), np.zeros((1, 1), dtype=np.intp))


def _tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-n leading block of the shared Pascal matrix, and the index table."""
    global _PASCAL_BUFFER
    # Read the buffer once: a concurrent call may swap in one of another
    # size, which costs a later regrowth but never a short block here.
    pascal, gap = _PASCAL_BUFFER
    if pascal.shape[0] < n:
        pascal = np.zeros((n, n))
        pascal[:, 0] = 1.0
        # row k = [1, prev[:-1] + prev[1:], prev[-1] + 1], prev = row k - 1;
        # from order 1030 on some entries pass the double range and stay
        # infinite for the callers' range checks
        with np.errstate(over="ignore"):
            for k in range(1, n):
                prev = pascal[k - 1, :k]
                pascal[k, 1:k] = prev[:-1] + prev[1:]
                pascal[k, k] = prev[-1] + 1.0
        gap = np.tril(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)))
        pascal.setflags(write=False)
        gap.setflags(write=False)
        _PASCAL_BUFFER = pascal, gap
    return pascal[:n, :n], gap


# -- jump-size moment providers --------------------------------------------


class JumpMoments:
    """Moment sequence E[J^k] of a nonnegative jump size.

    Subclasses define ``moments(n)``, the sequence E[J^1..J^n]; the built-in
    families also support ``sample`` so the event-driven simulators can draw
    actual jumps.
    """

    def moments(self, n: int) -> np.ndarray:
        """E[J^k] for k = 1..n."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray | float:
        """``size`` independent draws; a law whose every draw is the same
        value may return that one float, which the simulators broadcast."""
        raise InvalidInput(f"{type(self).__name__} cannot be sampled")


@dataclass(frozen=True)
class DeterministicJumps(JumpMoments):
    """Fixed jump size c: E[J^k] = c^k."""

    size: float

    def __post_init__(self):
        _real("size", self.size, 0)

    def moments(self, n: int) -> np.ndarray:
        n = _integer("n", n, 0)
        with np.errstate(over="ignore"):
            out = np.power(float(self.size), np.arange(1, n + 1, dtype=np.float64))
        return _in_range("deterministic jump moment", out)

    def sample(self, rng, size):
        return float(self.size)


@dataclass(frozen=True)
class ExponentialJumps(JumpMoments):
    """Exponential(rate r) jumps: E[J^k] = k! / r^k, correctly rounded."""

    rate: float

    def __post_init__(self):
        _real("rate", self.rate, 0, above=True)

    def moments(self, n: int) -> np.ndarray:
        n = _integer("n", n, 0)
        # r = p / q exactly, so E[J^k] = k! q^k / p^k is one integer division,
        # which rounds once and raises only when the quotient itself is too
        # large; a log-convex sequence that overflows stays overflowed
        p, q = float(self.rate).as_integer_ratio()
        out = np.full(n, math.inf)
        num = den = 1
        for k in range(1, n + 1):
            num *= k * q
            den *= p
            try:
                out[k - 1] = num / den
            except OverflowError:
                break
        return _in_range("exponential jump moment", out)

    def sample(self, rng, size):
        return rng.exponential(1.0 / self.rate, size)


@dataclass(frozen=True)
class LogNormalJumps(JumpMoments):
    """LogNormal(m, s) jumps: E[J^k] = exp(k m + k^2 s^2 / 2), within an ulp."""

    location: float
    scale: float

    def __post_init__(self):
        _real("location", self.location)
        _real("scale", self.scale, 0)

    def moments(self, n: int) -> np.ndarray:
        n = _integer("n", n, 0)
        # m = a / da and s = b / db exactly, so the exponent k m + (k s)^2 / 2
        # is num / den with den a power of two; y = float(num / den) is a
        # multiple of 1 / den, and with d = num / den - y (below half an ulp
        # of y), e^y + e^y d is the moment to rounding
        a, da = float(self.location).as_integer_ratio()
        b, db = float(self.scale).as_integer_ratio()
        den = 2 * da * db * db
        lin, quad = 2 * a * db * db, b * b * da
        out = np.full(n, math.inf)
        for k in range(1, n + 1):
            num = k * (lin + k * quad)
            try:
                y = num / den
                grow = math.exp(y)
            except OverflowError:
                break
            yn, yd = y.as_integer_ratio()
            out[k - 1] = grow + grow * ((num - yn * (den // yd)) / den)
        return _in_range("lognormal jump moment", out)

    def sample(self, rng, size):
        return rng.lognormal(self.location, self.scale, size)


@dataclass(frozen=True)
class UniformJumps(JumpMoments):
    """Uniform(0, 1) jumps: E[J^k] = 1/(k+1)."""

    def moments(self, n: int) -> np.ndarray:
        n = _integer("n", n, 0)
        return 1.0 / np.arange(2.0, n + 2.0)

    def sample(self, rng, size):
        return rng.random(size)


@dataclass(frozen=True)
class ExplicitJumps(JumpMoments):
    """A caller-supplied moment sequence (E[J^1], ..., E[J^m]).

    The sequence must be positive and log-convex to be the moment sequence
    of a nonnegative random variable; violations only warn, because callers
    may be working with deliberately truncated or approximate data.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        vals = _reals("values", self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise InvalidInput("explicit moment sequence is empty")
        if any(v <= 0 for v in vals):
            warnings.warn(
                "explicit moment sequence has nonpositive entries",
                MomentSequenceWarning,
                stacklevel=2,
            )
            return
        padded = (1.0,) + vals
        for k in range(1, len(padded) - 1):
            if padded[k + 1] * padded[k - 1] < padded[k] * padded[k] * (1.0 - 1e-9):
                warnings.warn(
                    f"explicit moment sequence is not log-convex at order {k}",
                    MomentSequenceWarning,
                    stacklevel=2,
                )
                break

    def moments(self, n: int) -> np.ndarray:
        n = _integer("n", n, 0)
        if n > len(self.values):
            raise InsufficientMoments(
                f"explicit moments provided up to order {len(self.values)}, "
                f"order {n} requested"
            )
        return np.array(self.values[:n])


# -- parameter records ------------------------------------------------------


class ProcessSpec:
    """The one base of the process records: a family's frozen parameter
    record, or the generic generator itself.  A family's generic generator
    is a pure function of the fields, so the ``_generator`` property derives
    it once, on the first ``generator()``, and keeps it in the instance dict:
    equality, hashing and ``dataclasses.replace`` read the fields alone, and
    two threads that race derive equal records.  The base alone derives
    nothing, so a bare ``ProcessSpec()`` is refused as a spec."""

    @property
    def _generator(self) -> GenericGeneratorSpec:
        raise InvalidInput(f"spec must be a family record or a GenericGeneratorSpec, got {type(self).__name__}")

    def generator(self) -> GenericGeneratorSpec:
        return self._generator


@dataclass(frozen=True)
class HawkesSpec(ProcessSpec):
    """Self-exciting intensity: jumps by alpha at arrivals, decays at rate
    beta toward the baseline.  Stationary only when beta > alpha."""

    lambda_star: float
    alpha: float
    beta: float
    x0: float | None = None

    def __post_init__(self):
        _real("lambda_star", self.lambda_star, 0, above=True)
        _real("alpha", self.alpha, 0, above=True)
        _real("beta", self.beta, 0, above=True)
        x0 = self.lambda_star if self.x0 is None else _real("x0", self.x0, 0, above=True)
        object.__setattr__(self, "x0", x0)

    @cached_property
    def _generator(self) -> GenericGeneratorSpec:
        blam = _real("beta * lambda_star", self.beta * self.lambda_star)
        return GenericGeneratorSpec(
            coeffs=(0.0, 1.0, 0.0, 0.0, blam, -self.beta, 0.0, 0.0, 0.0, 0.0),
            up=DeterministicJumps(self.alpha),
            x0=self.x0,
        )


@dataclass(frozen=True)
class ShotNoiseSpec(ProcessSpec):
    """Exponentially decaying superposition of random jumps at Poisson epochs."""

    rate: float
    decay: float
    jumps: JumpMoments
    x0: float = 0.0

    def __post_init__(self):
        _real("rate", self.rate, 0, above=True)
        _real("decay", self.decay, 0, above=True)
        _typed("jumps", self.jumps, JumpMoments)
        _real("x0", self.x0, 0)

    @cached_property
    def _generator(self) -> GenericGeneratorSpec:
        return GenericGeneratorSpec(
            coeffs=(self.rate, 0.0, 0.0, 0.0, 0.0, -self.decay, 0.0, 0.0, 0.0, 0.0),
            up=self.jumps,
            x0=self.x0,
        )


@dataclass(frozen=True)
class ItoSpec(ProcessSpec):
    """Diffusion with drift mu + theta*x and volatility sigma * x^(gamma/2).

    gamma in {0, 1, 2} admits an exact moment system.  A fractional gamma
    puts x^(k-2+gamma) into the generator of x^k, so it has none: ``build``
    raises UnsupportedGamma, and the spec can only be simulated.
    """

    mu: float
    theta: float
    sigma: float
    gamma: float
    x0: float = 0.0

    def __post_init__(self):
        _real("mu", self.mu)
        _real("theta", self.theta)
        _real("sigma", self.sigma)
        _real("gamma", self.gamma, 0, 2, error=UnsupportedGamma)
        _real("x0", self.x0)

    @cached_property
    def _generator(self) -> GenericGeneratorSpec:
        """The diffusion term (sigma^2/2) x^gamma takes coefficient a(6+gamma)."""
        if self.gamma not in (0.0, 1.0, 2.0):
            raise UnsupportedGamma(
                f"exact systems need gamma in {{0, 1, 2}}, got {self.gamma};"
                " fractional gamma can only be simulated"
            )
        diffusion = [0.0, 0.0, 0.0]
        sigma = float(self.sigma)
        diffusion[int(self.gamma)] = _real("sigma**2 / 2", sigma * sigma / 2)
        return GenericGeneratorSpec(
            coeffs=(0.0, 0.0, 0.0, 0.0, self.mu, self.theta, *diffusion, 0.0),
            x0=self.x0,
        )


@dataclass(frozen=True)
class GrowthCollapseSpec(ProcessSpec):
    """Linear growth punctuated by multiplicative collapses at Poisson epochs.

    The collapse fraction defaults to Uniform(0, 1); any moment provider on
    [0, 1] works because only E[C^k] enters the system.
    """

    growth: float
    collapse_rate: float
    x0: float = 0.0
    collapse: JumpMoments = field(default_factory=UniformJumps)

    def __post_init__(self):
        _real("growth", self.growth, 0, above=True)
        _real("collapse_rate", self.collapse_rate, 0, above=True)
        _real("x0", self.x0, 0)
        _typed("collapse", self.collapse, JumpMoments)

    @cached_property
    def _generator(self) -> GenericGeneratorSpec:
        return GenericGeneratorSpec(
            coeffs=(0.0, 0.0, 0.0, 0.0, self.growth, 0.0, 0.0, 0.0, 0.0, self.collapse_rate),
            collapse=self.collapse,
            x0=self.x0,
        )


@dataclass(frozen=True)
class EphemeralSpec(ProcessSpec):
    """Birth-death count where each active unit adds jump to the arrival rate
    until an exponential expiry at rate expiry (> jump)."""

    baseline: float
    jump: float
    expiry: float
    x0: int = 0

    def __post_init__(self):
        _real("baseline", self.baseline, 0, above=True)
        jump = _real("jump", self.jump, 0, above=True)
        _real("expiry", self.expiry, jump, above=True)
        x0 = _real("x0", self.x0, 0)
        if x0 != int(x0):
            raise InvalidInput(f"x0 must be an integer, got {x0!r}")
        object.__setattr__(self, "x0", int(x0))

    @cached_property
    def _generator(self) -> GenericGeneratorSpec:
        """Arrivals step up by one at rate baseline + jump x; expiries step
        down by one at rate expiry x."""
        return GenericGeneratorSpec(
            coeffs=(self.baseline, self.jump, 0.0, self.expiry, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            up=DeterministicJumps(1.0),
            down=DeterministicJumps(1.0),
            x0=float(self.x0),
        )


@dataclass(frozen=True)
class GenericGeneratorSpec(ProcessSpec):
    """Generator with affine up/down jump rates (a0 + a1 x, a2 + a3 x), affine
    drift (a4 + a5 x), quadratic diffusion coefficient (a6 + a7 x + a8 x^2)
    and collapse x -> C x at rate a9; a non-zero rate term needs its law."""

    coeffs: tuple[float, ...]
    up: JumpMoments | None = None
    down: JumpMoments | None = None
    collapse: JumpMoments | None = None
    x0: float = 0.0

    def __post_init__(self):
        c = _reals("coeffs", self.coeffs)
        if len(c) != 10:
            raise InvalidInput(f"expected 10 generator coefficients, got {len(c)}")
        object.__setattr__(self, "coeffs", c)
        _real("x0", self.x0)
        for name, active, term in (
            ("up", c[0] != 0.0 or c[1] != 0.0, "up-jump moments required for the a0/a1 terms"),
            ("down", c[2] != 0.0 or c[3] != 0.0, "down-jump moments required for the a2/a3 terms"),
            ("collapse", c[9] != 0.0, "collapse moments required for the a9 term"),
        ):
            law = getattr(self, name)
            if law is not None:
                _typed(name, law, JumpMoments)
            elif active:
                raise InsufficientMoments(term)

    def generator(self) -> GenericGeneratorSpec:
        return self


# -- Pascal matrices --------------------------------------------------------


def pascal_matryoshkan(n: int, a: float) -> MatryoshkanMatrix:
    """Entries C(i, j-1) a^(i-j+1) for i >= j: the binomial rows that jump
    terms contribute to the moment system."""
    _check_order(n)
    a = _real("a", a)
    pascal, gap = _tables(n)
    return _checked("Pascal Matryoshkan matrix", lambda: pascal * np.power(a, gap[1 : n + 1, :n]))


def pascal_lower(k: int, a: float) -> MatryoshkanMatrix:
    """The lower-triangular Pascal matrix: entries C(i-1, j-1) a^(i-j).

    Equals the exponential of a times the subdiagonal ladder diag(1:k-1, -1);
    at a = 1 the nonzero entries are the first k rows of Pascal's triangle.
    Below the diagonal they are the order-(k-1) unit Pascal Matryoshkan
    matrix.
    """
    _check_order(k)
    a = _real("a", a)
    pascal, gap = _tables(k - 1)
    binom = np.eye(k)
    binom[1:, :-1] += pascal
    return _checked("Pascal matrix", lambda: binom * np.power(a, gap[:k, :k]))


# -- the builder --------------------------------------------------------------


def build(spec: ProcessSpec, n: int) -> tuple[CoefficientSystem, InitialMomentVector]:
    """Apply the spec's generic generator to x^k for k = 1..n.

    Jump terms expand by the binomial theorem; drift and diffusion act on
    the first and second derivative of x^k; collapse scales x^k by
    E[C^k] - 1.  Closure is automatic: nothing produces a power above k.

    The whole triangle is assembled at once, in an (n, n+1) array whose row
    k - 1 holds the coefficients of x^0..x^k in the generator applied to
    x^k: column 0 is the shift and columns 1..k are row k of the matrix.
    Terms are added in the order a0, ..., a9, each product formed as
    a * C * E, so every entry is the same sum as when built row by row.
    """
    _typed("spec", spec, ProcessSpec)
    _check_order(n)
    spec = spec.generator()
    a = spec.coeffs
    # coefficients past the double range stay infinite (in T also NaN, inf -
    # inf) for the solves to report, as the initial powers do
    with np.errstate(over="ignore", invalid="ignore"):
        coef = np.zeros((n, n + 1))
        # Entry C(k, j) E[J^(k-j)] of row k multiplies x^j (rates a0, a2) or
        # x^(j+1) (rates a1, a3); above the diagonal it is an exact zero.  Each
        # term is formed as (rate * C) * E in one scratch array.  Negation is
        # exact, so a down-jump's sign folds into E[J^i] bit for bit.
        for r, law in ((0, spec.up), (2, spec.down)):
            if a[r] == 0.0 and a[r + 1] == 0.0:
                continue
            moments = np.concatenate(([1.0], law.moments(n)))
            if r == 2:
                np.negative(moments[1::2], out=moments[1::2])
            pascal, gap = _tables(n)
            # take gathers through the strided view at about half the cost of indexing
            e, term = moments.take(gap[1 : n + 1, :n]), np.empty((n, n))
            for rate, columns in ((a[r], coef[:, :-1]), (a[r + 1], coef[:, 1:])):
                if rate != 0.0:
                    np.multiply(rate, pascal, out=term)
                    term *= e
                    columns += term

        # columns k, k - 1 and k - 2 of row k - 1, for k = 1..n (k >= 2 for
        # the last)
        flat = coef.reshape(-1)
        x_k, x_k1, x_k2 = flat[1 :: n + 2], flat[:: n + 2], flat[n + 1 :: n + 2]
        k = np.arange(1.0, n + 1.0)
        kk1 = k[1:] * (k[1:] - 1.0)
        if a[4] != 0.0:
            x_k1 += a[4] * k
        if a[5] != 0.0:
            x_k += a[5] * k
        if a[6] != 0.0:
            x_k2 += a[6] * kk1
        if a[7] != 0.0:
            x_k1[1:] += a[7] * kk1
        if a[8] != 0.0:
            x_k[1:] += a[8] * kk1
        if a[9] != 0.0:
            x_k += a[9] * (spec.collapse.moments(n) - 1.0)

    if np.isnan(coef[:, 0]).any():  # build's own inf - inf is Overflow, not theta0's InvalidInput
        raise _overflow("moment system shift", int(np.isnan(coef[:, 0]).argmax()) + 1)
    system = CoefficientSystem(MatryoshkanMatrix._own(coef[:, 1:]), coef[:, 0])
    return system, InitialMomentVector.from_state(spec.x0, n)

