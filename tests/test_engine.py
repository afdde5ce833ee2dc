import math
import sys

import mpmath
import numpy as np
import pytest

import matryoshkan as mk
from matryoshkan.errors import InvalidDimension, InvalidInput, NonStationary, Overflow

from conftest import FIXTURES, NONNEGATIVE, STABLE, build_fixture
from corpus import CASES
from oracle import (
    benchmark_spec, cached_transient_references, exact_steady, exact_transient, spec_system, worst_relative_error,
)
from reference_builders import reference_grading, reference_solve_lower, reference_taylor_exp


def scalar_system(theta11, theta01):
    system = mk.CoefficientSystem(mk.MatryoshkanMatrix.from_diagonal([theta11]), [theta01])
    return system


# -- transient solutions ------------------------------------------------------


def test_time_zero_returns_initial_powers_exactly():
    _, system, init, _ = build_fixture("hawkes", 6)
    out = mk.transient_vector(system, init, 0.0)
    assert np.array_equal(out.values, init.powers)


def test_scalar_relaxation():
    # ds/dt = 1 - s from 0 reaches 1 - e^{-1} at t = 1
    system = scalar_system(-1.0, 1.0)
    init = mk.InitialMomentVector.from_state(0.0, 1)
    out = mk.transient_vector(system, init, 1.0)
    assert out.values[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_self_exciting_mean_hand_solution():
    # dE[X]/dt = beta lambda* - (beta - alpha) E[X] solved by hand:
    # 2 - e^{-t} for the unit fixture
    _, system, init, _ = build_fixture("hawkes", 1)
    out = mk.transient_vector(system, init, 1.0)
    assert out.values[0] == pytest.approx(2.0 - math.exp(-1.0), rel=1e-14)


def test_scalar_form_base_case_matches_scalar_ode():
    system = scalar_system(-0.7, 0.3)
    init = mk.InitialMomentVector.from_state(2.0, 1)
    direct = mk.transient_scalar(system, init, 1.5, 1)
    expected = 2.0 * math.exp(-1.05) - 0.3 * (1.0 - math.exp(-1.05)) / -0.7
    assert direct == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("name", list(FIXTURES))
def test_scalar_form_agrees_with_vector_form(name):
    _, system, init, _ = build_fixture(name, 10)
    for t in (0.5, 2.0, 10.0):
        vec = mk.transient_vector(system, init, t).values
        for n in range(1, 11):
            s = mk.transient_scalar(system, init, t, n)
            assert abs(s - vec[n - 1]) <= 1e-10 * abs(vec[n - 1])


def test_second_moment_against_fine_step_reference():
    # reference from a one-time explicit-Euler run at step 1e-6, t = 10
    _, system, init, _ = build_fixture("hawkes", 2)
    reference = 4.999773003547263
    value = mk.transient_scalar(system, init, 10.0, 2)
    assert abs(value - reference) <= 1e-5 * reference


def gaussian_moments(mean, var, n):
    """E[X^k], k = 1..n, of N(mean, var): sum over even j of C(k, j) mean^(k-j) var^(j/2) (j-1)!!."""
    def double_factorial(m):
        return math.prod(range(m, 0, -2))

    return np.array([
        sum(math.comb(k, j) * mean ** (k - j) * var ** (j // 2) * double_factorial(j - 1) for j in range(0, k + 1, 2))
        for k in range(1, n + 1)
    ])


def test_poisson_counting_moments():
    # unit up-jumps at constant rate 2: N_3 ~ Poisson(6); the diagonal is all zero
    spec = mk.GenericGeneratorSpec(coeffs=(2.0,) + (0.0,) * 9, up=mk.DeterministicJumps(1.0))
    system, init = mk.build(spec, 3)
    out = mk.transient_vector(system, init, 3.0).values
    assert out == pytest.approx([6.0, 42.0, 330.0], rel=1e-14)

    # Skellam: unit up-jumps at rate 2 and unit down-jumps at the constant
    # rate a2 = 1, so X_3 = Poisson(6) - Poisson(3)
    spec = mk.GenericGeneratorSpec(
        coeffs=(2.0, 0.0, 1.0) + (0.0,) * 7,
        up=mk.DeterministicJumps(1.0),
        down=mk.DeterministicJumps(1.0),
    )
    system, init = mk.build(spec, 3)
    assert np.all(system.theta.diagonal() == 0.0)
    out = mk.transient_vector(system, init, 3.0).values
    assert out == pytest.approx([3.0, 18.0, 111.0], rel=1e-14)


def test_brownian_motion_with_drift_moments():
    # X_t ~ N(mu t, sigma^2 t): E X = mu t, E X^2 = sigma^2 t + mu^2 t^2
    mu, sigma, t = 0.7, 1.3, 2.5
    system, init = mk.build(mk.ItoSpec(mu, 0.0, sigma, 0.0, 0.0), 6)
    out = mk.transient_vector(system, init, t).values
    assert out[0] == pytest.approx(mu * t, rel=1e-14)
    assert out[1] == pytest.approx(sigma**2 * t + mu**2 * t**2, rel=1e-14)
    assert out == pytest.approx(gaussian_moments(mu * t, sigma**2 * t, 6), rel=1e-13)


def test_ornstein_uhlenbeck_from_zero_moments():
    # X_t ~ N(mu (1 - e^{theta t}) / -theta, sigma^2 (e^{2 theta t} - 1) / (2 theta))
    mu, theta, sigma, t = 1.0, -1.0, 1.0, 0.8
    system, init = mk.build(mk.ItoSpec(mu, theta, sigma, 0.0, 0.0), 8)
    out = mk.transient_vector(system, init, t).values
    mean = mu * math.expm1(theta * t) / theta
    var = sigma**2 * math.expm1(2 * theta * t) / (2 * theta)
    assert out == pytest.approx(gaussian_moments(mean, var, 8), rel=1e-13)


@pytest.mark.parametrize(
    "theta, sigma",
    [
        (0.0, 0.5),  # d_1 = 0
        (-1.0, 1.0),  # d_1 = d_2 = -1 and d_3 = 0
    ],
)
def test_geometric_brownian_motion_moments(theta, sigma):
    # E S_t^k = x0^k e^{d_k t} with d_k = theta k + sigma^2 k (k - 1) / 2
    x0, t, n = 1.5, 2.0, 6
    system, init = mk.build(mk.ItoSpec(0.0, theta, sigma, 2.0, x0), n)
    out = mk.transient_vector(system, init, t).values
    k = np.arange(1, n + 1)
    d = theta * k + sigma**2 * k * (k - 1) / 2
    assert out == pytest.approx(x0**k * np.exp(d * t), rel=1e-13)
    assert mk.transient_scalar(system, init, t, n) == pytest.approx(out[-1], rel=1e-13)


def test_transient_matches_mpmath_reference_on_every_cached_cell():
    # the cached references are mpmath eigen-expansions of the augmented
    # generator at 64+ digits (benchmarks/reference.py): six families, orders
    # 3 to 100, t from 0.01 to 50.  The bound sits above rounding (1.9e-15
    # measured) and below what the exponential kernel gives without its
    # exact diagonal resets (9.2e-14).
    errors = {}
    for key, system, init, time, ref in cached_transient_references(mk):
        errors[key] = worst_relative_error(mk.transient_vector(system, init, time).values, ref)
    assert len(errors) >= 80
    for key in ("hawkes:n=100:t=1", "ephemeral:n=60:t=0.1", "growthcollapse:n=100:t=0.01", "shotnoise:n=30:t=0.01"):
        assert key in errors
    worst = sorted(errors.items(), key=lambda item: item[1])[-3:]
    assert worst[-1][1] <= 1e-14, worst


@pytest.mark.parametrize("family", ["ephemeral", "generic", "hawkes"])
def test_transient_matches_reference_built_from_the_spec(family):
    # the reference applies the generator to x^k with exact binomials, jump
    # moments and initial powers, so it also measures the rounding of build
    # itself: binomials past row 56 round, and every entry a * C * E rounds
    # at every order.  The order-60 system is the leading block of order 100.
    # at t = 50 the steady anchor runs and B needs 11-13 squarings at n = 100
    spec = benchmark_spec(mk, family)
    times = (0.01, 0.1, 1.0, 10.0, 50.0)
    ref = exact_transient(*spec_system(spec, 100), times)
    for n in (60, 100):
        system, init = mk.build(spec, n)
        for t, exact in zip(times, ref):
            values = mk.transient_vector(system, init, t).values
            err = max(abs(float((mpmath.mpf(v) - r) / r)) for v, r in zip(values, exact[:n]))
            assert err <= 1e-14, (n, t, err)


def test_initial_powers_are_recomputable():
    init = mk.InitialMomentVector.from_state(1.7, 6)
    assert np.array_equal(init.powers, np.power(1.7, np.arange(1, 7, dtype=float)))
    zero = mk.InitialMomentVector.from_state(0.0, 3)
    assert np.array_equal(zero.powers, [0.0, 0.0, 0.0])


def test_negative_time_rejected():
    _, system, init, _ = build_fixture("hawkes", 2)
    with pytest.raises(InvalidInput):
        mk.transient_vector(system, init, -1.0)


def test_shift_of_another_length_is_rejected():
    for shift in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(InvalidDimension, match=f"^theta0 must have order 2, got {len(shift)}$"):
            mk.CoefficientSystem(mk.MatryoshkanMatrix.from_diagonal(np.ones(2)), shift)


def test_initial_vector_of_another_order_is_rejected():
    system, _ = mk.build(mk.HawkesSpec(1.0, 1.0, 2.0), 3)
    init = mk.InitialMomentVector.from_state(1.0, 2)
    message = "^init must have order 3, got 2$"
    with pytest.raises(InvalidDimension, match=message):
        mk.transient_vector(system, init, 1.0)
    with pytest.raises(InvalidDimension, match=message):
        mk.euler_solve(system, init, mk.EulerConfig(step=1e-2, horizon=1.0))


def test_initial_moments_past_the_double_range_raise_overflow():
    # x0^2 = 1e400 is not a double: the powers are computed without a numpy
    # warning, and every solve that reads them names the order
    system, init = mk.build(mk.HawkesSpec(1.0, 1.0, 2.0, x0=1e200), 2)
    assert init.powers[0] == 1e200 and init.powers[1] == math.inf
    message = "initial moment of order 2 leaves the double range"
    for t in (0.0, 1.0):
        with pytest.raises(Overflow, match=message):
            mk.transient_vector(system, init, t)
    with pytest.raises(Overflow, match=message):
        mk.euler_solve(system, init, mk.EulerConfig(step=1e-2, horizon=1.0))
    # the order-1 moment alone is representable, and steady states do not
    # depend on the initial state
    assert mk.transient_scalar(system, init, 0.0, 1) == 1e200
    assert list(mk.steady_vector(system).values) == [2.0, 5.0]


def test_transient_overflow():
    # growing diffusion moments pass the scalar exponential ceiling
    _, system, init, _ = build_fixture("cir", 10)
    with pytest.raises(Overflow):
        mk.transient_vector(system, init, 100.0)


# -- steady states -------------------------------------------------------------


def test_self_exciting_steady_moments():
    _, system, _, _ = build_fixture("hawkes", 2)
    out = mk.steady_vector(system)
    assert out.values[0] == pytest.approx(2.0, rel=1e-14)
    assert out.values[1] == pytest.approx(5.0, rel=1e-14)


def test_growth_collapse_steady_moments_match_gamma_law():
    # the generator gives E[Y^n] = (n+1)! (growth/rate)^n, the moments of a
    # Gamma(2) law; verified independently by simulation in the mc suite
    _, system, _, _ = build_fixture("growthcollapse", 6)
    out = mk.steady_vector(system).values
    ratio = 2.0
    for n in range(1, 7):
        assert out[n - 1] == pytest.approx(math.factorial(n + 1) * ratio**n, rel=1e-12)


def test_ephemeral_steady_nth():
    _, system, _, _ = build_fixture("ephemeral", 2)
    assert mk.steady_nth(system, 1) == pytest.approx(1.0, rel=1e-13)
    # hand solve of the 2x2 stationary system: (2v*+mu+alpha) E[Q] + v* = 2(mu-alpha) E[Q^2]
    assert mk.steady_nth(system, 2) == pytest.approx(4.0, rel=1e-13)


def test_shot_noise_steady_vector():
    _, system, _, _ = build_fixture("shotnoise", 2)
    out = mk.steady_vector(system).values
    assert out[0] == pytest.approx(math.exp(0.5) / 4.0, rel=1e-13)
    assert out[1] == pytest.approx((math.exp(2.0) + math.exp(1.0) / 2.0) / 8.0, rel=1e-13)


def test_mean_reverting_diffusion_steady_variance():
    spec = mk.ItoSpec(mu=0.0, theta=-1.0, sigma=1.0, gamma=0.0, x0=0.0)
    system, _ = mk.build(spec, 2)
    assert mk.steady_nth(system, 2) == pytest.approx(0.5, rel=1e-13)


def test_order_one_steady_is_ratio():
    system = scalar_system(-2.5, 1.25)
    assert mk.steady_vector(system).values[0] == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("name", STABLE)
def test_three_steady_paths_agree(name):
    _, system, _, _ = build_fixture(name, 10)
    vec = mk.steady_vector(system).values
    nth = np.array([mk.steady_nth(system, n) for n in range(1, 11)])
    assert np.abs(nth / vec - 1.0).max() <= 1e-12


def test_steady_rejects_unstable_and_singular():
    _, system, _, _ = build_fixture("cir", 3)
    with pytest.raises(NonStationary):
        mk.steady_vector(system)
    flat, _ = mk.build(mk.HawkesSpec(1.0, 1.0, 1.0), 2)  # beta == alpha
    with pytest.raises(NonStationary):
        mk.steady_nth(flat, 1)


@pytest.mark.parametrize("order", [3, 4, 10, 60])
def test_steady_nth_needs_only_the_leading_diagonals(order):
    # geometric Brownian motion with theta = -1, sigma = 1 has diagonal
    # -k + k(k-1)/2 = (-1, -1, 0, 2, ...): the first two stationary moments
    # exist, although the whole system has none
    system, _ = mk.build(mk.ItoSpec(mu=1.0, theta=-1.0, sigma=1.0, gamma=2.0), order)
    assert system.theta.diagonal()[:3].tolist() == [-1.0, -1.0, 0.0]
    for k in (1, 2):
        head = mk.steady_vector(system.leading(k)).values[-1]
        assert mk.steady_nth(system, k).hex() == head.hex()
    assert [mk.steady_nth(system, k) for k in (1, 2)] == [1.0, 2.0]
    for k in range(3, order + 1):
        with pytest.raises(NonStationary, match="zero diagonal entry at position 3"):
            mk.steady_nth(system, k)
    with pytest.raises(NonStationary, match="position 3"):
        mk.steady_vector(system)
    # the moment order is checked before stability
    with pytest.raises(InvalidInput, match=f"n must be <= {order}, got {order + 1}"):
        mk.steady_nth(system, order + 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_steady_overflow_raises():
    # growth-collapse moments grow like (n+1)! 1e30^n: order 11 leaves the
    # double range, which must raise, not return infinities or warn
    system, _ = mk.build(mk.GrowthCollapseSpec(1e30, 1.0), 12)
    with pytest.raises(Overflow, match="order 11"):
        mk.steady_vector(system)
    with pytest.raises(Overflow):
        mk.steady_nth(system, 12)
    assert np.all(np.isfinite(mk.steady_vector(system.leading(10)).values))
    assert mk.validate(system).predicted_overflow_order == 11


@pytest.mark.parametrize("family", ["hawkes", "ephemeral", "growthcollapse", "generic"])
def test_steady_matches_exact_substitution_on_the_spec(family):
    # the stationary vector of the exact spec system, at 150 digits; the
    # order-n system is the leading block of order 100
    spec = benchmark_spec(mk, family)
    beta = exact_steady(spec_system(spec, 100)[0])
    for n in (10, 30, 60, 100):
        values = mk.steady_vector(mk.build(spec, n)[0]).values
        err = max(abs(float((mpmath.mpf(v) - b) / b)) for v, b in zip(values, beta))
        assert err <= 1e-14, (n, err)


@pytest.mark.parametrize(
    "family, order",
    [("growthcollapse-1e30", 12), ("shotnoise", 10), ("shotnoise", 37)]
    + [(f, n) for f in ("hawkes", "growthcollapse", "ephemeral", "generic") for n in (10, 100)],
)
def test_predicted_overflow_order_is_where_steady_vector_raises(family, order):
    # validate reads the same stationary solve that steady_vector runs
    if family == "growthcollapse-1e30":
        spec = mk.GrowthCollapseSpec(1e30, 1.0)
    else:
        spec = benchmark_spec(mk, family)
    system, _ = mk.build(spec, order)
    first = None
    for k in range(1, order + 1):
        try:
            mk.steady_vector(system.leading(k))
        except Overflow:
            first = k
            break
    assert mk.validate(system).predicted_overflow_order == first


# -- invariants ------------------------------------------------------------------


@pytest.mark.parametrize("name", list(FIXTURES))
def test_ode_residual(name):
    # central difference of the solution matches T s + c
    _, system, init, _ = build_fixture(name, 10)
    h = 1e-4
    T = system.theta.dense()
    for t in (0.5, 2.0, 10.0):
        plus = mk.transient_vector(system, init, t + h).values
        minus = mk.transient_vector(system, init, t - h).values
        fd = (plus - minus) / (2.0 * h)
        rhs = T @ mk.transient_vector(system, init, t).values + system.theta0
        rel = np.abs(fd - rhs) / np.maximum(1.0, np.abs(rhs))
        assert rel.max() <= 1e-5


@pytest.mark.parametrize("name", STABLE)
def test_convergence_to_stationarity(name):
    # growth-collapse relaxes at rate mu/2 = 1/4, so its true remnant at
    # t = 100 is ~7e-8; it gets the longer horizon
    t = 200.0 if name == "growthcollapse" else 100.0
    _, system, init, _ = build_fixture(name, 10)
    transient = mk.transient_vector(system, init, t).values
    steady = mk.steady_vector(system).values
    assert np.abs(transient / steady - 1.0).max() <= 1e-8


@pytest.mark.parametrize("name", NONNEGATIVE)
def test_moment_log_convexity(name):
    _, system, init, horizon = build_fixture(name, 8)
    candidates = [mk.steady_vector(system).values]
    for t in (0.5, horizon):
        candidates.append(mk.transient_vector(system, init, t).values)
    for values in candidates:
        for k in range(2, 8):
            lhs = values[k] * values[k - 2]
            assert lhs >= values[k - 1] ** 2 * (1.0 - 1e-9)


# -- validation -------------------------------------------------------------------


def test_validate_stable_fixture():
    _, system, _, _ = build_fixture("hawkes", 5)
    report = mk.validate(system)
    assert report.stationary
    assert report.zero_diagonals == report.positive_diagonals == report.coincident_pairs == ()
    assert report.predicted_overflow_order is None


def test_validate_flags_zero_diagonals():
    system, _ = mk.build(mk.HawkesSpec(1.0, 1.0, 1.0), 3)  # beta == alpha
    report = mk.validate(system)
    assert not report.stationary
    assert report.zero_diagonals == (1, 2, 3)


def test_validate_flags_drift_free_diffusion():
    for gamma in (0.0, 1.0):
        system, _ = mk.build(mk.ItoSpec(mu=1.0, theta=0.0, sigma=1.0, gamma=gamma), 4)
        report = mk.validate(system)
        assert report.zero_diagonals == (1, 2, 3, 4)


def test_validate_flags_positive_diagonals():
    _, system, _, _ = build_fixture("cir", 3)
    report = mk.validate(system)
    assert not report.stationary and report.zero_diagonals == ()
    assert report.positive_diagonals == (1, 2, 3)
    system, _ = mk.build(mk.HawkesSpec(1.0, 3.0, 2.0), 3)  # alpha > beta
    report = mk.validate(system)
    assert not report.stationary and report.positive_diagonals == (1, 2, 3)


def test_validate_predicts_overflow_order():
    spec = mk.GrowthCollapseSpec(growth=1e30, collapse_rate=1.0)
    system, _ = mk.build(spec, 12)
    report = mk.validate(system)
    # stationary moments are (n+1)! (growth/rate)^n: 3.99e307 at order 10 is
    # a finite double, and order 11 is the first past the double maximum
    beta = exact_steady(spec_system(spec, 12)[0])
    assert [k for k, b in enumerate(beta, 1) if abs(b) > sys.float_info.max][0] == 11
    assert report.predicted_overflow_order == 11


def test_validate_never_raises_on_coincident_diagonals():
    system, _ = mk.build(mk.ItoSpec(mu=0.0, theta=-1.5, sigma=1.0, gamma=2.0), 3)
    report = mk.validate(system)
    assert (1, 3) in report.coincident_pairs


def test_grading_and_solve_keep_the_bits_of_the_reference_loops(monkeypatch):
    # every benchmark family at n in {10, 30, 60, 100} and t in {0.01, ..., 50},
    # anchor cells included, the zero and repeated diagonals, and the sweep's
    # generic draws; hawkes (1, 1, 2) at t = 1 holds each chain row k at
    # -log k, exactly the log(t/(p+1)) of the row before it
    assert ("hawkes:n=10", 1.0) in {(label, t) for label, _, _, times in CASES for t in times}
    real, real_exp, wrong, graded, matrix_mode = mk.engine._grading, mk.core._taylor_exp, [], [], []

    def spy(A, v, t):
        e = real(A, v, t)
        graded.append((A.shape[0], t))
        if not np.array_equal(e, reference_grading(A, v, t)):
            wrong.append(f"grading n={A.shape[0] - 1} t={t}")
        return e

    def exp_spy(B, w=None):
        # the bytes, so that signed zeros and NaN payloads count too
        outcomes = []
        for kernel in (real_exp, reference_taylor_exp):
            try:
                outcomes.append(kernel(B, w).tobytes())
            except Overflow as exc:
                outcomes.append(exc)
        matrix_mode.append(w is None)
        if repr(outcomes[0]) != repr(outcomes[1]):
            wrong.append(f"taylor_exp n={B.shape[0]} matrix={w is None}")
        return real_exp(B, w)

    monkeypatch.setattr(mk.engine, "_grading", spy)
    monkeypatch.setattr(mk.core, "_taylor_exp", exp_spy)
    for label, spec, n, times in CASES:
        try:
            system, init = mk.build(spec, n)
        except Overflow:
            continue
        for t in times:
            try:
                mk.transient_vector(system, init, t)
            except Overflow:
                pass
        outcomes = []
        for solve in (mk.solve_lower, reference_solve_lower):
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    outcomes.append(solve(system.theta, -system.theta0).tobytes())
                except mk.SingularMatrix as exc:
                    outcomes.append(exc.index)
        if outcomes[0] != outcomes[1]:
            wrong.append(f"solve_lower {label}")
    # an augmented generator whose logarithms meet every edge: -0.0, a
    # subnormal and 1e300 below the diagonal, and exact zeros in v
    system, init = mk.build(mk.HawkesSpec(1.0, 1.0, 2.0, x0=1.5), 12)
    A = np.zeros((13, 13))
    A[1:, 0], A[1:, 1:] = system.theta0, system.theta.dense()
    A[3, 1], A[6, 2], A[9, 4] = -0.0, 5e-324, 1e300
    v = np.concatenate(([1.0], init.powers))
    v[[2, 5]] = 0.0, -0.0
    for t in (0.01, 0.1, 1.0, 5.0, 50.0):
        spy(A, v, t)
    # matrix mode on augmented generators either side of _SPLIT_ORDER, the
    # largest first so that the smaller ones run on a used scratch buffer
    assert mk.core._SPLIT_ORDER == 64
    for size in (101, 63, 64, 65):
        system, _ = mk.build(mk.HawkesSpec(1.0, 1.0, 2.0, x0=1.5), size - 1)
        A = np.zeros((size, size))
        A[1:, 0], A[1:, 1:] = system.theta0, system.theta.dense()
        with np.errstate(over="ignore", invalid="ignore"):
            for t in (0.01, 0.1, 1.0, 5.0):
                exp_spy(A * t)
    assert wrong == []
    assert len(graded) >= 200
    assert sum(matrix_mode) == 16 and len(matrix_mode) - 16 >= 200
