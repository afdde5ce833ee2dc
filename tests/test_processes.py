import math
import re
import sys
import threading
import warnings
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import matryoshkan as mk
from matryoshkan import processes
from matryoshkan.errors import (
    InsufficientMoments,
    InvalidDimension,
    InvalidInput,
    MomentSequenceWarning,
    Overflow,
    UnsupportedGamma,
)

from conftest import FIXTURES
from reference_builders import reference_build, reference_generic_build, systems_equal


# -- binomial rows and Pascal matrices ----------------------------------------


def test_binomial_rows_exact_up_to_56():
    for n in (0, 1, 5, 23, 56):
        row = mk.pascal_lower(n + 1, 1.0).dense()[n]
        assert np.array_equal(row, [float(math.comb(n, k)) for k in range(n + 1)])


def test_pascal_matryoshkan_unit():
    p = mk.pascal_matryoshkan(3, 1.0)
    assert np.array_equal(p.dense(), [[1, 0, 0], [1, 2, 0], [1, 3, 3]])


def test_pascal_matryoshkan_zero_annihilates():
    assert np.all(mk.pascal_matryoshkan(4, 0.0).packed == 0.0)


def test_pascal_matryoshkan_bottom_row_sum():
    # binomial-sum oracle: the bottom row of the unit matrix sums to 2^n - 1
    for n in (1, 3, 8, 16):
        bottom = mk.pascal_matryoshkan(n, 1.0).dense()[n - 1]
        assert bottom.sum() == 2.0**n - 1.0


def test_pascal_lower_unit_rows():
    p = mk.pascal_lower(3, 1.0)
    assert np.array_equal(p.dense(), [[1, 0, 0], [1, 1, 0], [1, 2, 1]])
    assert np.array_equal(mk.pascal_lower(4, 0.0).dense(), np.eye(4))


def test_pascal_lower_is_ladder_exponential():
    # series oracle: the subdiagonal ladder is nilpotent, so its exponential
    # is a finite sum computed with the core add/multiply operations
    k, a = 6, 0.7
    ladder = np.zeros((k, k))
    for i in range(1, k):
        ladder[i, i - 1] = float(i) * a
    term = mk.MatryoshkanMatrix.from_diagonal(np.ones(k))
    acc = term
    ladder_m = mk.MatryoshkanMatrix(ladder)
    for j in range(1, k):
        term = mk.multiply(term, ladder_m)
        scaled = mk.MatryoshkanMatrix(term.dense() / math.factorial(j))
        acc = mk.add(acc, scaled)
    ref = mk.pascal_lower(k, a).dense()
    assert np.abs(acc.dense() - ref).max() <= 1e-12 * np.abs(ref).max()


def test_pascal_lower_additivity():
    a, b, k = 0.6, 1.7, 7
    prod = mk.multiply(mk.pascal_lower(k, a), mk.pascal_lower(k, b)).dense()
    ref = mk.pascal_lower(k, a + b).dense()
    nonzero = ref != 0.0
    assert np.abs(prod[nonzero] / ref[nonzero] - 1.0).max() <= 1e-12
    assert np.all(prod[~nonzero] == 0.0)


def test_pascal_matryoshkan_from_lower():
    # the strictly-lower values of the order-(n+1) lower Pascal matrix,
    # gathered row by row, are the nested Pascal matrix itself
    n, a = 5, 1.3
    lower = mk.pascal_lower(n + 1, a).dense()
    expected = np.zeros((n, n))
    for i in range(1, n + 1):
        expected[i - 1, :i] = lower[i, :i]
    assert np.abs(mk.pascal_matryoshkan(n, a).dense() - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.fixture
def fresh_pascal_table(monkeypatch):
    """An empty shared Pascal table, so that the test grows it whatever ran
    before; the grown one is dropped afterwards."""
    monkeypatch.setattr(processes, "_PASCAL_BUFFER", (np.empty((0, 0)), np.zeros((1, 1), dtype=np.intp)))


def test_pascal_matrices_past_the_double_range_raise_overflow(fresh_pascal_table):
    # C(1030, 515) > 1.8e308: the table grows past the double range without
    # a numpy warning, and each matrix names its first infinite row (once 66
    # RuntimeWarnings and a matrix infinite from row 1030)
    with pytest.raises(Overflow, match="^Pascal Matryoshkan matrix of order 1030 leaves the double range$"):
        mk.pascal_matryoshkan(1100, 1.0)
    with pytest.raises(Overflow, match="^Pascal matrix of order 1031 leaves the double range$"):
        mk.pascal_lower(1100, 1.0)
    assert np.isfinite(mk.pascal_matryoshkan(1029, 1.0).dense()).all()
    with pytest.raises(Overflow, match="^Pascal Matryoshkan matrix of order 2 leaves the double range$"):
        mk.pascal_matryoshkan(2, 1e200)


def test_coefficients_past_the_double_range_build_without_warnings(fresh_pascal_table):
    # each once printed a RuntimeWarning before its Overflow; build keeps the
    # infinities for the solves to report
    system, init = mk.build(mk.HawkesSpec(1.0, 1.0, 2.0), 1100)
    assert not np.isfinite(system.theta.dense()[1029]).all()
    with pytest.raises(Overflow, match="^stationary moment of order 177 leaves the double range$"):
        mk.steady_vector(system)
    with pytest.raises(Overflow, match="^generator times t leaves the double range$"):
        mk.transient_vector(system, init, 1.0)
    system, init = mk.build(mk.GrowthCollapseSpec(1e308, 1.0), 3)
    assert np.diagonal(system.theta.dense(), -1).tolist() == [math.inf, math.inf]
    with pytest.raises(Overflow, match="^generator times t leaves the double range$"):
        mk.transient_vector(system, init, 1.0)


@pytest.mark.parametrize("a", [1.0, -1.0, 0.3])
def test_pascal_lower_nests_bit_for_bit(a):
    big = mk.pascal_lower(100, a)
    for j in range(1, 101):
        assert big.leading(j).packed.tobytes() == mk.pascal_lower(j, a).packed.tobytes(), j


# -- jump moment providers ------------------------------------------------------


def test_jump_moment_values():
    assert mk.DeterministicJumps(2.0).moments(3)[-1] == 8.0
    assert mk.ExponentialJumps(2.0).moments(3)[-1] == pytest.approx(6.0 / 8.0, rel=1e-15)
    assert mk.LogNormalJumps(0.0, 1.0).moments(3)[-1] == pytest.approx(math.exp(4.5), rel=1e-15)
    assert mk.UniformJumps().moments(3)[-1] == pytest.approx(0.25, rel=1e-15)
    assert mk.ExplicitJumps((0.5, 0.4)).moments(2)[-1] == 0.4
    # moments(0) is empty, and the range rule must accept an empty vector
    for law in (mk.DeterministicJumps(1.5), mk.ExponentialJumps(0.7), mk.LogNormalJumps(0.2, 0.9),
                mk.UniformJumps(), mk.ExplicitJumps((0.5, 0.4))):
        assert law.moments(0).shape == (0,), law
    # k! / r^k is one integer division of k! q^k by p^k for r = p / q, so a
    # moment past 170! stays finite and a tiny one underflows to zero
    assert mk.ExponentialJumps(2.0).moments(171)[-1] == 4.146186628330626e257
    assert mk.ExponentialJumps(1e200).moments(2)[-1] == 0.0
    # every finite exponential and uniform moment is correctly rounded
    for rate in (0.7, 1.3, 2.5, 3, 5):
        law = mk.ExponentialJumps(rate)
        for k in range(1, 201):
            exact = Fraction(math.factorial(k)) / Fraction(rate) ** k
            if exact < Fraction(sys.float_info.max):
                assert law.moments(k)[-1] == float(exact), (rate, k)
    exact = [float(Fraction(1, k + 1)) for k in range(1, 201)]
    assert mk.UniformJumps().moments(200).tolist() == exact
    # the base class states no sequence of its own
    with pytest.raises(NotImplementedError):
        mk.JumpMoments().moments(2)


def test_deterministic_sample_is_one_value_that_draws_nothing():
    # the simulators broadcast the one value over the hit paths, as they
    # would an array of it
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    for size in (0, 1, 5):
        draw = mk.DeterministicJumps(1.5).sample(rng, size)
        assert type(draw) is float
        x = np.linspace(0.0, 2.0, size)
        for act in (np.add, np.subtract, np.multiply):
            assert act(x, draw).tobytes() == act(x, np.full(size, 1.5)).tobytes()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("location, scale", [(0.2, 0.9), (-0.25, 0.6), (-0.5, 0.2), (0.1, 0.7)])
def test_lognormal_moments_are_within_an_ulp(location, scale):
    # against 60-digit mpmath over every finite order <= 200; rounding the
    # exponent k m + (k s)^2 / 2 before exp is off by 757-1,056 ulp here
    with mpmath.workdps(60):
        exact = []
        for k in range(1, 201):
            ref = mpmath.exp(k * mpmath.mpf(location) + (k * mpmath.mpf(scale)) ** 2 / 2)
            if ref >= sys.float_info.max:
                break
            exact.append(ref)
        law = mk.LogNormalJumps(location, scale)
        for k, (value, ref) in enumerate(zip(law.moments(len(exact)), exact), start=1):
            ulps = abs(mpmath.mpf(value) - ref) / math.ulp(float(ref))
            assert ulps <= 1.0, (k, float(ulps))
    if len(exact) < 200:
        with pytest.raises(Overflow, match=f"order {len(exact) + 1}"):
            law.moments(len(exact) + 1)


@pytest.mark.parametrize(
    "jumps",
    [
        mk.DeterministicJumps(1.5),
        mk.ExponentialJumps(0.7),
        mk.LogNormalJumps(0.2, 0.9),
        mk.UniformJumps(),
    ],
)
def test_builtin_moment_sequences_are_log_convex(jumps):
    m = np.concatenate(([1.0], jumps.moments(10)))
    for k in range(1, 10):
        assert m[k + 1] * m[k - 1] >= m[k] ** 2 * (1.0 - 1e-12)


def test_jump_moments_outside_the_double_range_raise_overflow():
    # 171! and 2! / (1e-200)^2 leave the double range; 170! does not
    assert mk.ExponentialJumps(1.0).moments(170)[-1] == float(math.factorial(170))
    with pytest.raises(Overflow, match="order 171"):
        mk.ExponentialJumps(1.0).moments(171)
    with pytest.raises(Overflow, match="order 2"):
        mk.ExponentialJumps(1e-200).moments(3)
    # under error::RuntimeWarning, numpy's overflow warning would escape
    with pytest.raises(Overflow, match="order 2"):
        mk.DeterministicJumps(1e200).moments(3)
    with pytest.raises(Overflow, match="order 2"):
        mk.DeterministicJumps(1e200).moments(2)
    assert np.array_equal(mk.DeterministicJumps(1e100).moments(3), np.power(1e100, [1.0, 2.0, 3.0]))
    spec = mk.ShotNoiseSpec(rate=1.0, decay=4.0, jumps=mk.ExponentialJumps(1.0))
    with pytest.raises(Overflow):
        mk.build(spec, 171)


def test_explicit_moments_warn_when_invalid():
    with pytest.warns(MomentSequenceWarning):
        mk.ExplicitJumps((1.0, 10.0, 1.0))
    with pytest.warns(MomentSequenceWarning):
        mk.ExplicitJumps((1.0, -1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mk.ExplicitJumps((0.5, 1.0 / 3.0, 0.25))  # uniform moments: valid


def test_squares_past_the_double_range_are_library_errors():
    # Python's float ** raises OverflowError where a float product gives inf
    with pytest.raises(InvalidInput, match=r"^sigma\*\*2 / 2 must be finite, got inf$"):
        mk.build(mk.ItoSpec(1.0, -1.0, 1e200, 1.0), 2)
    with pytest.warns(MomentSequenceWarning, match="not log-convex at order 1$"):
        mk.ExplicitJumps((1e200, 1e300))


def test_explicit_moments_exhaustion():
    jumps = mk.ExplicitJumps((0.5, 0.4))
    with pytest.raises(InsufficientMoments):
        jumps.moments(3)
    spec = mk.ShotNoiseSpec(rate=1.0, decay=1.0, jumps=jumps)
    with pytest.raises(InsufficientMoments):
        mk.build(spec, 3)


# -- spec validation --------------------------------------------------------------


# record.field -> (a record that breaks its range check, the error, the
# opening words of the message, which name the field)
_RANGE_ERRORS = {
    "HawkesSpec.lambda_star": (lambda: mk.HawkesSpec(0.0, 1.0, 2.0), InvalidInput, "lambda_star must be > 0"),
    "HawkesSpec.alpha": (lambda: mk.HawkesSpec(1.0, 0.0, 2.0), InvalidInput, "alpha must be > 0"),
    "HawkesSpec.beta": (lambda: mk.HawkesSpec(1.0, 1.0, -2.0), InvalidInput, "beta must be > 0"),
    "HawkesSpec.x0": (lambda: mk.HawkesSpec(1.0, 1.0, 2.0, x0=-1.0), InvalidInput, "x0 must be > 0"),
    "ShotNoiseSpec.rate": (lambda: mk.ShotNoiseSpec(-1.0, 1.0, mk.UniformJumps()), InvalidInput, "rate must be > 0"),
    "ShotNoiseSpec.decay": (lambda: mk.ShotNoiseSpec(1.0, 0.0, mk.UniformJumps()), InvalidInput, "decay must be > 0"),
    "ShotNoiseSpec.x0": (lambda: mk.ShotNoiseSpec(1.0, 1.0, mk.UniformJumps(), -1.0), InvalidInput, "x0 must be >= 0"),
    "ItoSpec.gamma": (lambda: mk.ItoSpec(0.0, -1.0, 1.0, 2.5), UnsupportedGamma, "gamma must be <= 2"),
    "GrowthCollapseSpec.growth": (lambda: mk.GrowthCollapseSpec(0.0, 1.0), InvalidInput, "growth must be > 0"),
    "GrowthCollapseSpec.collapse_rate": (lambda: mk.GrowthCollapseSpec(1.0, -1.0), InvalidInput, "collapse_rate must be > 0"),
    "GrowthCollapseSpec.x0": (lambda: mk.GrowthCollapseSpec(1.0, 1.0, -1.0), InvalidInput, "x0 must be >= 0"),
    "EphemeralSpec.baseline": (lambda: mk.EphemeralSpec(0.0, 1.0, 2.0), InvalidInput, "baseline must be > 0"),
    "EphemeralSpec.jump": (lambda: mk.EphemeralSpec(1.0, 0.0, 2.0), InvalidInput, "jump must be > 0"),
    "EphemeralSpec.expiry": (lambda: mk.EphemeralSpec(1.0, 2.0, 2.0), InvalidInput, "expiry must be > 2.0"),
    "EphemeralSpec.x0": (lambda: mk.EphemeralSpec(1.0, 1.0, 2.0, -1), InvalidInput, "x0 must be >= 0, got -1.0"),
    "EphemeralSpec.x0-fraction": (lambda: mk.EphemeralSpec(1.0, 1.0, 2.0, 0.5), InvalidInput, "x0 must be an integer, got 0.5"),
    "GenericGeneratorSpec.coeffs": (lambda: mk.GenericGeneratorSpec((1.0,) * 9), InvalidInput, "expected 10 generator coefficients"),
    "DeterministicJumps.size": (lambda: mk.DeterministicJumps(-1.0), InvalidInput, "size must be >= 0"),
    "ExponentialJumps.rate": (lambda: mk.ExponentialJumps(0.0), InvalidInput, "rate must be > 0"),
    "LogNormalJumps.scale": (lambda: mk.LogNormalJumps(0.0, -1.0), InvalidInput, "scale must be >= 0"),
    "ExplicitJumps.values": (lambda: mk.ExplicitJumps(()), InvalidInput, "explicit moment sequence is empty"),
}


@pytest.mark.parametrize("field", list(_RANGE_ERRORS))
def test_spec_validation_errors(field):
    make, error, message = _RANGE_ERRORS[field]
    with pytest.raises(error, match="^" + re.escape(message)):
        make()


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda v: mk.HawkesSpec(v, 1.0, 2.0), "lambda_star"),
        (lambda v: mk.HawkesSpec(1.0, 1.0, 2.0, x0=v), "x0"),
        (lambda v: mk.ShotNoiseSpec(1.0, v, mk.UniformJumps()), "decay"),
        (lambda v: mk.ItoSpec(v, -1.0, 1.0, 1.0), "mu"),
        (lambda v: mk.ItoSpec(1.0, -1.0, 1.0, v), "gamma"),
        (lambda v: mk.GrowthCollapseSpec(1.0, v), "collapse_rate"),
        (lambda v: mk.EphemeralSpec(v, 2.0, 3.0), "baseline"),
        (lambda v: mk.GenericGeneratorSpec((1.0,) * 4 + (v,) + (0.0,) * 5), "coeffs[4]"),
        (lambda v: mk.DeterministicJumps(v), "size"),
        (lambda v: mk.ExponentialJumps(v), "rate"),
        (lambda v: mk.LogNormalJumps(v, 1.0), "location"),
        (lambda v: mk.LogNormalJumps(0.0, v), "scale"),
        (lambda v: mk.ExplicitJumps((1.0, v)), "values[1]"),
    ],
)
def test_records_reject_non_finite_fields(make, field):
    # NaN passes every ordering check; left in, it made simulation loop forever
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInput, match=re.escape(field) + " must be finite"):
            make(bad)


def test_hawkes_default_initial_is_baseline():
    spec = mk.HawkesSpec(lambda_star=1.5, alpha=1.0, beta=2.0)
    assert spec.x0 == 1.5


# -- builders against displayed systems -------------------------------------------


def test_hawkes_builder_matrices():
    system, init = mk.build(mk.HawkesSpec(1, 1, 2), 2)
    assert np.array_equal(system.theta.dense(), [[-1.0, 0.0], [5.0, -2.0]])
    assert np.array_equal(system.theta0, [2.0, 0.0])
    assert np.array_equal(init.powers, [1.0, 1.0])
    system3, _ = mk.build(mk.HawkesSpec(1, 1, 2), 3)
    assert np.array_equal(system3.theta.dense()[2], [1.0, 9.0, -3.0])


def test_shot_noise_builder_matrices():
    spec = mk.ShotNoiseSpec(rate=1.0, decay=4.0, jumps=mk.DeterministicJumps(1.0))
    system, _ = mk.build(spec, 2)
    assert np.array_equal(system.theta.dense(), [[-4.0, 0.0], [2.0, -8.0]])
    assert np.array_equal(system.theta0, [1.0, 1.0])
    spec3 = mk.ShotNoiseSpec(rate=1.0, decay=4.0, jumps=mk.LogNormalJumps(0.0, 1.0))
    system3, _ = mk.build(spec3, 3)
    expected_shift = [math.exp(0.5), math.exp(2.0), math.exp(4.5)]
    assert np.abs(system3.theta0 / expected_shift - 1.0).max() <= 1e-15
    ej1, ej2 = math.exp(0.5), math.exp(2.0)
    assert np.abs(system3.theta.dense()[2] / [3 * ej2, 3 * ej1, -12.0] - 1.0).max() <= 1e-15


def test_ito_builder_matrices():
    cir = mk.ItoSpec(mu=1.0, theta=1.0, sigma=1.0, gamma=1.0, x0=1.0)
    system, _ = mk.build(cir, 2)
    assert np.array_equal(system.theta.dense(), [[1.0, 0.0], [3.0, 2.0]])
    assert np.array_equal(system.theta0, [1.0, 0.0])
    system3, _ = mk.build(cir, 3)
    assert np.array_equal(system3.theta.dense()[2], [0.0, 6.0, 3.0])
    gbm = mk.ItoSpec(mu=0.5, theta=0.25, sigma=1.0, gamma=2.0, x0=1.0)
    gsys, _ = mk.build(gbm, 4)
    d = gsys.theta.dense()
    for k in range(1, 5):
        assert d[k - 1, k - 1] == k * 0.25 + k * (k - 1) * 0.5
    # only the drift band below the diagonal
    assert d[2, 0] == 0.0 and d[3, 1] == 0.0 and d[3, 2] == 4 * 0.5
    ou = mk.ItoSpec(mu=0.0, theta=-1.0, sigma=1.0, gamma=0.0)
    osys, _ = mk.build(ou, 3)
    assert osys.theta0[1] == 1.0  # sigma^2 enters the second shift component
    assert osys.theta.dense()[2, 0] == 3.0  # (sigma^2/2) k(k-1) band two below


def test_ito_rejects_fractional_gamma():
    spec = mk.ItoSpec(mu=0.0, theta=-1.0, sigma=1.0, gamma=1.5)
    with pytest.raises(UnsupportedGamma):
        mk.build(spec, 2)
    # the generator map itself refuses; int(1.5) would pick the gamma = 1 system
    with pytest.raises(UnsupportedGamma):
        spec.generator()


def test_growth_collapse_builder_matrices():
    system, _ = mk.build(mk.GrowthCollapseSpec(1.0, 0.5), 3)
    d = system.theta.dense()
    # diagonal k is rate*(E[C^k] - 1) = -k*rate/(k+1) under uniform collapse
    assert d[0, 0] == -0.25 and d[0, 1] == 0.0
    assert d[1, 0] == 2.0
    assert d[1, 1] == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert d[2, 0] == 0.0 and d[2, 1] == 3.0 and d[2, 2] == -0.375
    assert np.array_equal(system.theta0, [1.0, 0.0, 0.0])


def test_ephemeral_builder_matrices():
    system, _ = mk.build(mk.EphemeralSpec(1.0, 2.0, 3.0), 3)
    d = system.theta.dense()
    assert np.array_equal(d[:2, :2], [[-1.0, 0.0], [7.0, -2.0]])
    assert np.array_equal(d[2], [2.0, 18.0, -3.0])
    assert np.array_equal(system.theta0, [1.0, 1.0, 1.0])


def test_ephemeral_matrix_composition_matches_row_formula():
    # two independent constructions: binomial row formula in the builder,
    # Pascal-matrix composition here
    spec = mk.EphemeralSpec(1.0, 2.0, 3.0, x0=1)
    n = 8
    built, _ = mk.build(spec, n)
    ladder = np.zeros((n, n))
    for i in range(1, n):
        ladder[i, i - 1] = 1.0
    shifted = mk.multiply(mk.pascal_matryoshkan(n, 1.0), mk.MatryoshkanMatrix(ladder))
    composed = mk.add(
        mk.add(
            mk.MatryoshkanMatrix(spec.baseline * shifted.dense()),
            mk.MatryoshkanMatrix(spec.jump * mk.pascal_matryoshkan(n, 1.0).dense()),
        ),
        mk.MatryoshkanMatrix(spec.expiry * mk.pascal_matryoshkan(n, -1.0).dense()),
    )
    assert np.array_equal(built.theta.packed, composed.packed)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 25, 50])
def test_diagonal_closed_forms(n):
    hawkes, _ = mk.build(mk.HawkesSpec(1.0, 1.0, 2.0), n)
    assert hawkes.theta.diagonal()[-1] == -n * (2.0 - 1.0)
    shot, _ = mk.build(
        mk.ShotNoiseSpec(rate=1.0, decay=4.0, jumps=mk.DeterministicJumps(1.0)), n
    )
    assert shot.theta.diagonal()[-1] == -n * 4.0
    eph, _ = mk.build(mk.EphemeralSpec(1.0, 2.0, 3.0), n)
    assert eph.theta.diagonal()[-1] == -n * (3.0 - 2.0)


@pytest.mark.parametrize("name_builder", ["hawkes", "shotnoise", "ito", "growthcollapse", "ephemeral", "generic"])
def test_builders_are_exactly_triangular(name_builder):
    spec = {
        "hawkes": mk.HawkesSpec(1.3, 0.4, 2.2),
        "shotnoise": mk.ShotNoiseSpec(0.8, 1.7, mk.ExponentialJumps(1.1)),
        "ito": mk.ItoSpec(0.3, -0.8, 0.6, 1.0, 0.5),
        "growthcollapse": mk.GrowthCollapseSpec(0.9, 0.7),
        "ephemeral": mk.EphemeralSpec(1.1, 0.5, 2.0),
        "generic": mk.GenericGeneratorSpec(
            coeffs=(0.5, 0.2, 0.0, 0.0, 0.1, -1.0, 0.0, 0.0, 0.0, 0.0),
            up=mk.ExponentialJumps(2.0),
        ),
    }[name_builder]
    system, _ = mk.build(spec, 7)
    dense = system.theta.dense()
    assert np.all(dense[np.triu_indices(7, k=1)] == 0.0)


def test_growth_collapse_stationary_matches_gamma_moments():
    # generator-derived stationary law is Gamma(2, rate/growth):
    # E[Y^n] = (n+1)! (growth/rate)^n
    system, _ = mk.build(mk.GrowthCollapseSpec(1.0, 0.5), 6)
    steady = mk.steady_vector(system).values
    for n in range(1, 7):
        assert steady[n - 1] == pytest.approx(math.factorial(n + 1) * 2.0**n, rel=1e-12)


# -- the one builder against the hand-written rows ------------------------------


@pytest.mark.parametrize("order", [1, 3, 6])
def test_generic_reproduces_specialized_builders(order):
    cases = [
        mk.HawkesSpec(1.3, 0.7, 2.1, 0.9),
        mk.ShotNoiseSpec(1.2, 3.7, mk.LogNormalJumps(0.2, 0.8), 0.4),
        mk.ItoSpec(0.8, -1.2, 0.9, 1.0, 1.1),
        mk.GrowthCollapseSpec(1.4, 0.8, 0.3),
        mk.EphemeralSpec(1.7, 0.6, 2.9, 2),
    ]
    for spec in cases:
        assert systems_equal(mk.build(spec, order), reference_build(spec, order))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_build_matches_reference_on_fixtures(name):
    spec, _ = FIXTURES[name]
    orders = (10, 30) if name == "shotnoise" else (10, 30, 60, 100)
    for order in orders:
        assert systems_equal(mk.build(spec, order), reference_build(spec, order)), order


def test_build_without_jumps_does_not_warn_on_binomials():
    # drift, diffusion and collapse rows past order 56 build without any
    # warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mk.build(mk.ItoSpec(1.0, 1.0, 1.0, 1.0, 1.0), 60)
        mk.build(mk.GrowthCollapseSpec(1.0, 0.5), 60)


def _bits(built):
    system, init = built
    return system.theta.packed.tobytes(), system.theta0.tobytes(), init.powers.tobytes()


def _law(name, rng):
    if name == "deterministic":
        return mk.DeterministicJumps(rng.uniform(0.2, 2.0))
    if name == "exponential":
        return mk.ExponentialJumps(rng.uniform(0.5, 2.0))
    if name == "lognormal":
        return mk.LogNormalJumps(rng.uniform(-0.5, 0.0), rng.uniform(0.2, 0.9))
    if name == "uniform":
        return mk.UniformJumps()
    # the moments c^k / (k+1) of Uniform(0, c)
    c = rng.uniform(0.5, 2.0)
    return mk.ExplicitJumps(tuple(c**k / (k + 1) for k in range(1, 101)))


JUMP_LAWS = ("deterministic", "exponential", "lognormal", "uniform", "explicit")


def _generic_draws():
    """Every built-in law as the up-jump against every one as the down-jump,
    with coefficients in [-2, 2] of which each is zeroed with probability
    1/4; at least one up-rate and one down-rate stay on."""
    rng = np.random.default_rng(20261018)
    draws = []
    for i, up in enumerate(JUMP_LAWS):
        for j, down in enumerate(JUMP_LAWS):
            coeffs = np.where(rng.random(10) < 0.75, rng.uniform(-2.0, 2.0, 10), 0.0)
            for pair in ((0, 1), (2, 3)):
                if not coeffs[pair[0]] and not coeffs[pair[1]]:
                    coeffs[pair[rng.integers(2)]] = rng.uniform(0.1, 2.0)
            collapse = JUMP_LAWS[(i + j) % len(JUMP_LAWS)]
            laws = {"up": up, "down": down, "collapse": collapse}
            draws.append(
                (
                    "lognormal" in laws.values(),
                    mk.GenericGeneratorSpec(
                        coeffs=tuple(coeffs),
                        x0=rng.uniform(-1.0, 2.0),
                        **{role: _law(name, rng) for role, name in laws.items()},
                    ),
                )
            )
    return draws


GENERIC_DRAWS = _generic_draws()


@pytest.mark.parametrize("order", [1, 2, 3, 10, 56, 57, 100])
def test_build_matches_row_loop_on_generic_draws(order):
    # lognormal moments exp(k m + k^2 s^2 / 2) stay finite only to order 37
    cases = [spec for lognormal, spec in GENERIC_DRAWS if order <= 37 or not lognormal]
    assert len(cases) == (25 if order <= 37 else 13)
    for i, spec in enumerate(cases):
        assert _bits(mk.build(spec, order)) == _bits(reference_generic_build(spec, order)), i


NESTING_SPECS = {
    **{name: spec for name, (spec, _) in FIXTURES.items()},
    "generic": mk.GenericGeneratorSpec(
        coeffs=(0.4, 0.3, 0.2, 0.5, 0.1, -2.0, 0.3, 0.2, -0.1, 0.6),
        up=mk.ExponentialJumps(1.5),
        down=mk.DeterministicJumps(0.7),
        collapse=mk.UniformJumps(),
        x0=0.8,
    ),
}


@pytest.mark.parametrize("name", sorted(NESTING_SPECS))
def test_build_nests_bit_for_bit(name):
    spec = NESTING_SPECS[name]
    n = 37 if name == "shotnoise" else 100
    system, init = mk.build(spec, n)
    for k in (1, 2, 56, 57, n - 1):
        if k > n:
            continue
        prefix = (system.theta.leading(k), system.theta0[:k], init.powers[:k])
        small, small_init = mk.build(spec, k)
        assert prefix[0].packed.tobytes() == small.theta.packed.tobytes(), k
        assert prefix[1].tobytes() == small.theta0.tobytes(), k
        assert prefix[2].tobytes() == small_init.powers.tobytes(), k


# the shared Pascal buffer before any build: an order-0 Pascal matrix beside
# the order-1 index table
_EMPTY_BUFFER = (np.empty((0, 0)), np.zeros((1, 1), dtype=np.intp))


def test_small_builds_read_the_same_bits_after_a_larger_one(monkeypatch):
    # the Pascal matrix and the index table i - j grow together, so a small
    # build reads leading blocks of whatever larger pair an earlier call left
    specs = [mk.HawkesSpec(1.0, 1.0, 2.0), mk.EphemeralSpec(1.0, 2.0, 3.0)]

    def small():
        pascals = (mk.pascal_matryoshkan(10, 0.5), mk.pascal_lower(10, 0.5))
        return [_bits(mk.build(spec, 10)) for spec in specs] + [m.packed.tobytes() for m in pascals]

    monkeypatch.setattr(mk.processes, "_PASCAL_BUFFER", _EMPTY_BUFFER)
    fresh = small()
    assert [a.shape for a in mk.processes._PASCAL_BUFFER] == [(10, 10), (11, 11)]
    mk.build(specs[1], 100)
    assert small() == fresh
    for table in mk.processes._PASCAL_BUFFER:
        assert table.shape[0] >= 100 and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[-1, 0] = 0


def test_concurrent_builds_grow_the_shared_pascal_buffer_once(monkeypatch):
    # threads that regrow the module's Pascal buffer together must each read
    # a complete leading block of the order they asked for
    specs = [mk.HawkesSpec(1.0, 1.0, 2.0), mk.EphemeralSpec(1.0, 2.0, 3.0)]
    orders = [100, 12, 57, 80, 3, 64, 99, 40]
    expected = {(i, n): _bits(mk.build(spec, n)) for i, spec in enumerate(specs) for n in orders}
    for attempt in range(20):
        monkeypatch.setattr(mk.processes, "_PASCAL_BUFFER", _EMPTY_BUFFER)
        results, errors = {}, []

        def work(i, n):
            try:
                results[i, n] = _bits(mk.build(specs[i], n))
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=key) for key in expected]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and results == expected, attempt


def test_build_rejects_unsupported_objects():
    with pytest.raises(InvalidInput):
        mk.build(object(), 3)


def test_order_below_one_is_rejected():
    # one order check, core's, serves the builder, the initial vector, the
    # Pascal matrices and the constructors; its error is an InvalidInput too
    assert issubclass(InvalidDimension, InvalidInput)
    for make in (
        lambda: mk.build(mk.HawkesSpec(1.0, 1.0, 2.0), 0),
        lambda: mk.InitialMomentVector.from_state(1.0, 0),
        lambda: mk.pascal_matryoshkan(0, 1.0),
        lambda: mk.pascal_lower(0, 1.0),
        lambda: mk.MatryoshkanMatrix(np.zeros((0, 0))),
    ):
        with pytest.raises(InvalidDimension, match=r"^order must be >= 1, got 0$"):
            make()


def test_order_takes_numpy_integers_and_rejects_the_rest():
    # an order is an integer count: a numpy integer builds what the same int
    # builds, and a float, even a whole one, is an InvalidInput, not a raw
    # TypeError from numpy
    for spec, _ in FIXTURES.values():
        assert systems_equal(mk.build(spec, np.int64(7)), mk.build(spec, 7))
    for order in (2.5, 3.0, "3"):
        for make in (
            lambda: mk.build(mk.HawkesSpec(1.0, 1.0, 2.0), order),
            lambda: mk.InitialMomentVector.from_state(1.0, order),
            lambda: mk.pascal_lower(order, 1.0),
        ):
            with pytest.raises(InvalidInput, match="^order must be an integer, got"):
                make()


def test_generic_requires_needed_moments():
    # the record rejects an active jump term without its law when built
    with pytest.raises(InsufficientMoments, match="a0/a1"):
        mk.GenericGeneratorSpec(coeffs=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    for coeffs in ((0.0, 0.0, 1.0) + (0.0,) * 7, (0.0,) * 3 + (1.0,) + (0.0,) * 6):
        with pytest.raises(InsufficientMoments, match="a2/a3"):
            mk.GenericGeneratorSpec(coeffs=coeffs, up=mk.DeterministicJumps(1.0))
    with pytest.raises(InsufficientMoments, match="a9"):
        mk.GenericGeneratorSpec(coeffs=(0.0,) * 9 + (1.0,))


# -- fractional gamma ------------------------------------------------------------


def test_gamma_bounds_bracket_simulated_moments():
    # no exact system exists at gamma = 1.5; from x0 = 1, reverting toward 1,
    # the discretized-diffusion estimate falls between the closed forms at
    # gamma = 1 and gamma = 2 (on states below 1 their order reverses)
    spec = mk.ItoSpec(mu=1.0, theta=-1.0, sigma=0.5, gamma=1.5, x0=1.0)
    n = 2
    lower, _ = mk.build(replace(spec, gamma=1.0), n)
    upper, _ = mk.build(replace(spec, gamma=2.0), n)
    init = mk.InitialMomentVector.from_state(spec.x0, n)
    cfg = mk.SimConfig(paths=40000, horizon=5.0, seed=71, sim_step=1e-3)
    terminals = mk.simulate(spec, cfg)
    estimates = mk.estimate_moments(terminals, n)
    for t_check, values in [(5.0, estimates)]:
        lo = mk.transient_vector(lower, init, t_check).values
        hi = mk.transient_vector(upper, init, t_check).values
        for est, lo_k, hi_k in zip(values, lo, hi):
            slack = 4.0 * est.std_error + 1e-3 * abs(est.mean)
            assert lo_k - slack <= est.mean <= hi_k + slack
            assert lo_k <= hi_k
