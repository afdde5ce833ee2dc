"""Parameter records of the supported process families and their one builder.

Every record maps itself, through ``generator()``, to a generic generator
with affine jump rates, affine drift, quadratic diffusion coefficient and
multiplicative collapse.  ``build`` applies that generator to x^k, expanding
jump terms by the binomial theorem, and returns the matrix/shift pair of the
moment ODE system plus the initial moment powers.  A new family is one more
``generator()`` map.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .core import MatryoshkanMatrix
from .engine import CoefficientSystem, InitialMomentVector
from .errors import (
    BinomialPrecisionWarning,
    InsufficientMoments,
    InvalidInput,
    MomentSequenceWarning,
    Overflow,
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
    "binomial_row",
    "build",
    "ito_gamma_bounds",
    "pascal_lower",
    "pascal_matryoshkan",
]

# Pascal-triangle rows stay exactly representable in binary64 up to row 56;
# C(57, 28) exceeds 2**53.
_BINOM_EXACT_MAX = 56
_BINOM_ROWS: list[np.ndarray] = [np.array([1.0])]


def binomial_row(n: int) -> np.ndarray:
    """Row n of Pascal's triangle, C(n, 0..n), by the additive recurrence."""
    if n < 0:
        raise InvalidInput(f"binomial row index must be >= 0, got {n}")
    if n > _BINOM_EXACT_MAX:
        warnings.warn(
            "binomial coefficients beyond row 56 are no longer exactly "
            "representable in double precision",
            BinomialPrecisionWarning,
            stacklevel=2,
        )
    while len(_BINOM_ROWS) <= n:
        prev = _BINOM_ROWS[-1]
        row = np.empty(prev.shape[0] + 1)
        row[0] = 1.0
        row[-1] = 1.0
        row[1:-1] = prev[:-1] + prev[1:]
        _BINOM_ROWS.append(row)
    return _BINOM_ROWS[n].copy()


def _require_finite(record) -> None:
    """Reject NaN and infinite numeric fields, naming the first one; NaN
    passes every ordering check, so this runs before them."""
    for name, value in vars(record).items():
        if isinstance(value, tuple):
            for i, v in enumerate(value):
                if not math.isfinite(v):
                    raise InvalidInput(f"{name}[{i}] must be finite, got {v!r}")
        elif isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise InvalidInput(f"{name} must be finite, got {value!r}")


# -- jump-size moment providers --------------------------------------------


class JumpMoments:
    """Moment sequence E[J^k] of a nonnegative jump size.

    Subclasses provide ``moment``; the built-in families also support
    ``sample`` so the event-driven simulators can draw actual jumps.
    """

    def moment(self, k: int) -> float:
        raise NotImplementedError

    def moments(self, n: int) -> np.ndarray:
        """E[J^k] for k = 1..n."""
        out = np.array([self.moment(k) for k in range(1, n + 1)])
        if not np.all(np.isfinite(out)):
            raise Overflow(f"jump moments overflow before order {n}")
        return out

    def moments_from_zero(self, n: int) -> np.ndarray:
        """E[J^k] for k = 0..n, with the k = 0 entry pinned to 1."""
        return np.concatenate([[1.0], self.moments(n)])

    def sample(self, rng: np.random.Generator, size=None):
        raise InvalidInput(f"{type(self).__name__} cannot be sampled")

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class DeterministicJumps(JumpMoments):
    """Fixed jump size c: E[J^k] = c^k."""

    size: float

    def __post_init__(self):
        _require_finite(self)
        if self.size < 0:
            raise InvalidInput(f"jump size must be >= 0, got {self.size}")

    def moment(self, k: int) -> float:
        return float(self.size) ** k

    def moments(self, n: int) -> np.ndarray:
        return np.power(float(self.size), np.arange(1, n + 1, dtype=np.float64))

    def sample(self, rng, size=None):
        if size is None:
            return float(self.size)
        return np.full(size, float(self.size))

    def describe(self) -> str:
        return f"deterministic({self.size!r})"


@dataclass(frozen=True)
class ExponentialJumps(JumpMoments):
    """Exponential(rate r) jumps: E[J^k] = k! / r^k."""

    rate: float

    def __post_init__(self):
        _require_finite(self)
        if self.rate <= 0:
            raise InvalidInput(f"exponential rate must be > 0, got {self.rate}")

    def moment(self, k: int) -> float:
        return math.factorial(k) / float(self.rate) ** k

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size)

    def describe(self) -> str:
        return f"exponential({self.rate!r})"


@dataclass(frozen=True)
class LogNormalJumps(JumpMoments):
    """LogNormal(m, s) jumps: E[J^k] = exp(k m + k^2 s^2 / 2)."""

    location: float
    scale: float

    def __post_init__(self):
        _require_finite(self)
        if self.scale < 0:
            raise InvalidInput(f"lognormal scale must be >= 0, got {self.scale}")

    def moment(self, k: int) -> float:
        arg = k * self.location + 0.5 * (k * self.scale) ** 2
        try:
            return math.exp(arg)
        except OverflowError:
            raise Overflow(f"lognormal moment of order {k} overflows") from None

    def sample(self, rng, size=None):
        return rng.lognormal(self.location, self.scale, size)

    def describe(self) -> str:
        return f"lognormal({self.location!r},{self.scale!r})"


@dataclass(frozen=True)
class UniformJumps(JumpMoments):
    """Uniform(0, 1) jumps: E[J^k] = 1/(k+1)."""

    def moment(self, k: int) -> float:
        return 1.0 / (k + 1)

    def sample(self, rng, size=None):
        return rng.random(size)

    def describe(self) -> str:
        return "uniform"


@dataclass(frozen=True)
class ExplicitJumps(JumpMoments):
    """A caller-supplied moment sequence (E[J^1], ..., E[J^m]).

    The sequence must be positive and log-convex to be the moment sequence
    of a nonnegative random variable; violations only warn, because callers
    may be working with deliberately truncated or approximate data.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        _require_finite(self)
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
            if padded[k + 1] * padded[k - 1] < padded[k] ** 2 * (1.0 - 1e-9):
                warnings.warn(
                    f"explicit moment sequence is not log-convex at order {k}",
                    MomentSequenceWarning,
                    stacklevel=2,
                )
                break

    def moment(self, k: int) -> float:
        if k > len(self.values):
            raise InsufficientMoments(
                f"explicit moments provided up to order {len(self.values)}, "
                f"order {k} requested"
            )
        return self.values[k - 1]

    def describe(self) -> str:
        return "explicit(" + ",".join(repr(v) for v in self.values) + ")"


# -- parameter records ------------------------------------------------------


@dataclass(frozen=True)
class HawkesSpec:
    """Self-exciting intensity: jumps by alpha at arrivals, decays at rate
    beta toward the baseline.  Stationary only when beta > alpha."""

    lambda_star: float
    alpha: float
    beta: float
    x0: float | None = None

    def __post_init__(self):
        _require_finite(self)
        if self.lambda_star <= 0:
            raise InvalidInput(f"lambda_star must be > 0, got {self.lambda_star}")
        if self.alpha <= 0:
            raise InvalidInput(f"alpha must be > 0, got {self.alpha}")
        if self.beta <= 0:
            raise InvalidInput(f"beta must be > 0, got {self.beta}")
        x0 = self.lambda_star if self.x0 is None else float(self.x0)
        if x0 <= 0:
            raise InvalidInput(f"initial intensity must be > 0, got {x0}")
        object.__setattr__(self, "x0", x0)

    def generator(self) -> GenericGeneratorSpec:
        blam = self.beta * self.lambda_star
        return GenericGeneratorSpec(
            coeffs=(0.0, 1.0, 0.0, 0.0, blam, -self.beta, 0.0, 0.0, 0.0, 0.0),
            up=DeterministicJumps(self.alpha),
            x0=self.x0,
        )


@dataclass(frozen=True)
class ShotNoiseSpec:
    """Exponentially decaying superposition of random jumps at Poisson epochs."""

    rate: float
    decay: float
    jumps: JumpMoments
    x0: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.rate <= 0:
            raise InvalidInput(f"arrival rate must be > 0, got {self.rate}")
        if self.decay <= 0:
            raise InvalidInput(f"decay must be > 0, got {self.decay}")
        if self.x0 < 0:
            raise InvalidInput(f"initial value must be >= 0, got {self.x0}")

    def generator(self) -> GenericGeneratorSpec:
        return GenericGeneratorSpec(
            coeffs=(self.rate, 0.0, 0.0, 0.0, 0.0, -self.decay, 0.0, 0.0, 0.0, 0.0),
            up=self.jumps,
            x0=self.x0,
        )


@dataclass(frozen=True)
class ItoSpec:
    """Diffusion with drift mu + theta*x and volatility sigma * x^(gamma/2).

    gamma in {0, 1, 2} admits an exact moment system; fractional gamma in
    [0, 2] is handled by ito_gamma_bounds only.
    """

    mu: float
    theta: float
    sigma: float
    gamma: float
    x0: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if not 0.0 <= self.gamma <= 2.0:
            raise UnsupportedGamma(
                f"gamma must lie in [0, 2], got {self.gamma}"
            )

    def generator(self) -> GenericGeneratorSpec:
        """The diffusion term (sigma^2/2) x^gamma takes coefficient a(6+gamma)."""
        if self.gamma not in (0.0, 1.0, 2.0):
            raise UnsupportedGamma(
                f"exact systems need gamma in {{0, 1, 2}}, got {self.gamma};"
                " use ito_gamma_bounds for fractional gamma"
            )
        diffusion = [0.0, 0.0, 0.0]
        diffusion[int(self.gamma)] = self.sigma**2 / 2
        return GenericGeneratorSpec(
            coeffs=(0.0, 0.0, 0.0, 0.0, self.mu, self.theta, *diffusion, 0.0),
            x0=self.x0,
        )


@dataclass(frozen=True)
class GrowthCollapseSpec:
    """Linear growth punctuated by multiplicative collapses at Poisson epochs.

    The collapse fraction defaults to Uniform(0, 1); any moment provider on
    [0, 1] works because only E[C^k] enters the system.
    """

    growth: float
    collapse_rate: float
    x0: float = 0.0
    collapse: JumpMoments = field(default_factory=UniformJumps)

    def __post_init__(self):
        _require_finite(self)
        if self.growth <= 0:
            raise InvalidInput(f"growth rate must be > 0, got {self.growth}")
        if self.collapse_rate <= 0:
            raise InvalidInput(
                f"collapse rate must be > 0, got {self.collapse_rate}"
            )
        if self.x0 < 0:
            raise InvalidInput(f"initial value must be >= 0, got {self.x0}")

    def generator(self) -> GenericGeneratorSpec:
        return GenericGeneratorSpec(
            coeffs=(0.0, 0.0, 0.0, 0.0, self.growth, 0.0, 0.0, 0.0, 0.0, self.collapse_rate),
            collapse=self.collapse,
            x0=self.x0,
        )


@dataclass(frozen=True)
class EphemeralSpec:
    """Birth-death count where each active unit adds jump to the arrival rate
    until an exponential expiry at rate expiry (> jump)."""

    baseline: float
    jump: float
    expiry: float
    x0: int = 0

    def __post_init__(self):
        _require_finite(self)
        if self.baseline <= 0:
            raise InvalidInput(f"baseline must be > 0, got {self.baseline}")
        if self.jump <= 0:
            raise InvalidInput(f"jump must be > 0, got {self.jump}")
        if self.expiry <= self.jump:
            raise InvalidInput(
                f"expiry rate must exceed the jump ({self.jump}), got {self.expiry}"
            )
        if self.x0 < 0 or int(self.x0) != self.x0:
            raise InvalidInput(
                f"initial count must be a nonnegative integer, got {self.x0}"
            )
        object.__setattr__(self, "x0", int(self.x0))

    def generator(self) -> GenericGeneratorSpec:
        """Arrivals step up by one at rate baseline + jump x; expiries step
        down by one at rate expiry x."""
        return GenericGeneratorSpec(
            coeffs=(self.baseline, self.jump, 0.0, self.expiry, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            up=DeterministicJumps(1.0),
            down=DeterministicJumps(1.0),
            x0=float(self.x0),
        )


@dataclass(frozen=True)
class GenericGeneratorSpec:
    """Generator with affine up/down jump rates (a0 + a1 x, a2 + a3 x),
    affine drift (a4 + a5 x), quadratic diffusion coefficient
    (a6 + a7 x + a8 x^2) and collapse x -> C x at rate a9."""

    coeffs: tuple[float, ...]
    up: JumpMoments | None = None
    down: JumpMoments | None = None
    collapse: JumpMoments | None = None
    x0: float = 0.0

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if len(c) != 10:
            raise InvalidInput(f"expected 10 generator coefficients, got {len(c)}")
        object.__setattr__(self, "coeffs", c)
        _require_finite(self)

    def generator(self) -> GenericGeneratorSpec:
        return self


ProcessSpec = (
    HawkesSpec
    | ShotNoiseSpec
    | ItoSpec
    | GrowthCollapseSpec
    | EphemeralSpec
    | GenericGeneratorSpec
)


# -- Pascal matrices --------------------------------------------------------


def pascal_matryoshkan(n: int, a: float) -> MatryoshkanMatrix:
    """Entries C(i, j-1) a^(i-j+1) for i >= j: the binomial rows that jump
    terms contribute to the moment system."""
    if n < 1:
        raise InvalidInput(f"order must be >= 1, got {n}")
    a = float(a)
    packed = []
    for i in range(1, n + 1):
        b = binomial_row(i)
        powers = np.power(a, np.arange(i, 0, -1, dtype=np.float64))
        packed.append(b[:i] * powers)
    return MatryoshkanMatrix(n, np.concatenate(packed))


def pascal_lower(k: int, a: float) -> MatryoshkanMatrix:
    """The lower-triangular Pascal matrix: entries C(i-1, j-1) a^(i-j).

    Equals the exponential of a times the subdiagonal ladder diag(1:k-1, -1);
    at a = 1 the nonzero entries are the first k rows of Pascal's triangle.
    """
    if k < 1:
        raise InvalidInput(f"order must be >= 1, got {k}")
    a = float(a)
    packed = []
    for i in range(1, k + 1):
        b = binomial_row(i - 1)
        powers = np.power(a, np.arange(i - 1, -1, -1, dtype=np.float64))
        packed.append(b * powers)
    return MatryoshkanMatrix(k, np.concatenate(packed))


# -- the builder --------------------------------------------------------------


def build(spec: ProcessSpec, n: int) -> tuple[CoefficientSystem, InitialMomentVector]:
    """Apply the spec's generic generator to x^k for k = 1..n.

    Jump terms expand by the binomial theorem; drift and diffusion act on
    the first and second derivative of x^k; collapse scales x^k by
    E[C^k] - 1.  Closure is automatic: nothing produces a power above k.
    """
    if not isinstance(spec, ProcessSpec):
        raise InvalidInput(f"unsupported process spec: {type(spec).__name__}")
    _check_order(n)
    spec = spec.generator()
    a = spec.coeffs
    need_up = a[0] != 0.0 or a[1] != 0.0
    need_down = a[2] != 0.0 or a[3] != 0.0
    need_collapse = a[9] != 0.0
    if need_up and spec.up is None:
        raise InsufficientMoments("up-jump moments required for a0/a1 terms")
    if need_down and spec.down is None:
        raise InsufficientMoments("down-jump moments required for a2/a3 terms")
    if need_collapse and spec.collapse is None:
        raise InsufficientMoments("collapse moments required for the a9 term")
    ea = spec.up.moments_from_zero(n) if need_up else None
    eb = spec.down.moments_from_zero(n) if need_down else None
    ec = spec.collapse.moments(n) if need_collapse else None

    rows = []
    theta0 = np.zeros(n)
    for k in range(1, n + 1):
        kf = float(k)
        coef = np.zeros(k + 1)
        if need_up or need_down:
            b = binomial_row(k)[:k]
        if need_up:
            up = ea[k:0:-1]
            if a[0] != 0.0:
                coef[:k] += a[0] * b * up
            if a[1] != 0.0:
                coef[1:] += a[1] * b * up
        if need_down:
            dn = eb[k:0:-1]
            sign = np.where((k - np.arange(k)) % 2 == 0, 1.0, -1.0)
            if a[2] != 0.0:
                coef[:k] += a[2] * b * dn * sign
            if a[3] != 0.0:
                coef[1:] += a[3] * b * dn * sign
        if a[4] != 0.0:
            coef[k - 1] += a[4] * kf
        if a[5] != 0.0:
            coef[k] += a[5] * kf
        if k >= 2:
            kk1 = float(k * (k - 1))
            if a[6] != 0.0:
                coef[k - 2] += a[6] * kk1
            if a[7] != 0.0:
                coef[k - 1] += a[7] * kk1
            if a[8] != 0.0:
                coef[k] += a[8] * kk1
        if need_collapse:
            coef[k] += a[9] * (ec[k - 1] - 1.0)
        theta0[k - 1] = coef[0]
        rows.append(coef[1:])
    system = CoefficientSystem(MatryoshkanMatrix(n, np.concatenate(rows)), theta0)
    return system, InitialMomentVector.from_state(spec.x0, n)


def ito_gamma_bounds(
    spec: ItoSpec, n: int
) -> tuple[CoefficientSystem, CoefficientSystem]:
    """Exact systems with gamma replaced by floor(gamma) and ceil(gamma).

    Solving both brackets the true moment of a fractional-gamma diffusion,
    provided power monotonicity holds along paths (state >= 1); the bound
    ordering reverses on states below 1.
    """
    lo = replace(spec, gamma=float(math.floor(spec.gamma)))
    hi = replace(spec, gamma=float(math.ceil(spec.gamma)))
    lower, _ = build(lo, n)
    upper, _ = build(hi, n)
    return lower, upper


def _check_order(n: int) -> None:
    if n < 1:
        raise InvalidInput(f"order must be >= 1, got {n}")
