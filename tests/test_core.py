import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matryoshkan as mk
from matryoshkan import core
from matryoshkan.errors import (
    DegenerateSpectrum,
    InvalidDimension,
    InvalidInput,
    Overflow,
    SingularMatrix,
)

from conftest import FIXTURES, build_fixture, random_matryoshkan, taylor_exp
from reference_builders import reference_eigendecompose, reference_inverse


def M(rows):
    return mk.MatryoshkanMatrix(rows)


def eye(order):
    return mk.MatryoshkanMatrix.from_diagonal(np.ones(order))


# -- construction and accessors ----------------------------------------------


def test_extend_base_case():
    m = mk.extend(None, [], 3.5)
    assert m.order == 1
    assert m.dense()[0, 0] == 3.5


def test_extend_two_by_two():
    m = mk.extend(mk.MatryoshkanMatrix.from_diagonal([2.0]), [1.0], 4.0)
    assert np.array_equal(m.dense(), [[2.0, 0.0], [1.0, 4.0]])


def test_extend_reproduces_third_order_self_exciting_system():
    # appending the row (alpha^3, 3(beta lambda* + alpha^2)) and diagonal
    # -3(beta - alpha) to the order-2 system gives the order-3 system
    sys2, _ = mk.build(mk.HawkesSpec(1, 1, 2), 2)
    sys3, _ = mk.build(mk.HawkesSpec(1, 1, 2), 3)
    extended = mk.extend(sys2.theta, [1.0, 9.0], -3.0)
    assert np.array_equal(extended.packed, sys3.theta.packed)


def test_extend_rejects_wrong_row_length():
    with pytest.raises(InvalidDimension):
        mk.extend(mk.MatryoshkanMatrix.from_diagonal([1.0]), [1.0, 2.0], 3.0)
    with pytest.raises(InvalidDimension):
        mk.extend(None, [1.0], 2.0)
    # four entries, as many as an order-4 base takes, but not one row
    with pytest.raises(InvalidDimension):
        mk.extend(eye(4), [[1.0, 2.0], [3.0, 4.0]], 5.0)


def test_constructor_rejects_upper_triangle_and_non_square():
    with pytest.raises(InvalidDimension, match="entries above the diagonal must be exactly zero"):
        M([[1.0, 0.5], [0.0, 1.0]])
    # a packed triangle is not a matrix: the one constructor takes rows
    for shape in ((1, 2), (3,), (2, 2, 2)):
        with pytest.raises(InvalidDimension) as exc:
            M(np.zeros(shape))
        assert str(exc.value) == f"array must be a square matrix, got shape {shape}"


def test_constructors_reject_non_positive_orders():
    for make in (lambda: M(np.zeros((0, 0))), lambda: mk.MatryoshkanMatrix.from_diagonal([])):
        with pytest.raises(InvalidDimension, match=r"^order must be >= 1, got 0$"):
            make()


def test_accessors(rng):
    m = random_matryoshkan(rng, 6)
    d = m.dense()
    assert np.array_equal(m.diagonal(), np.diag(d))
    assert np.array_equal(m.leading(4).dense(), d[:4, :4])
    assert m.packed[: 4 * 5 // 2] is not None
    assert np.array_equal(m.leading(4).packed, m.packed[:10])
    for k, message in ((0, "k must be >= 1, got 0"), (7, "k must be <= 6, got 7")):
        with pytest.raises(InvalidDimension, match=message):
            m.leading(k)


# -- add / multiply -----------------------------------------------------------


def test_add_identity():
    zero = mk.MatryoshkanMatrix.from_diagonal(np.zeros(2))
    assert np.array_equal(mk.add(eye(2), zero).dense(), np.eye(2))


def test_multiply_identity(rng):
    m = random_matryoshkan(rng, 7)
    assert np.array_equal(mk.multiply(m, eye(7)).packed, m.packed)


def test_multiply_hand_product():
    a = M([[2.0, 0.0], [1.0, 4.0]])
    b = M([[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(mk.multiply(a, b).dense(), [[2.0, 0.0], [5.0, 4.0]])


def test_dimension_mismatch():
    with pytest.raises(InvalidDimension):
        mk.add(eye(2), eye(3))
    with pytest.raises(InvalidDimension):
        mk.multiply(eye(2), eye(3))


# -- inverse ------------------------------------------------------------------


def test_inverse_diagonal():
    inv = mk.inverse(mk.MatryoshkanMatrix.from_diagonal([2.0, 4.0]))
    assert np.array_equal(inv.dense(), np.diag([0.5, 0.25]))


def test_inverse_two_by_two():
    inv = mk.inverse(M([[2.0, 0.0], [1.0, 4.0]]))
    assert np.array_equal(inv.dense(), [[0.5, 0.0], [-0.125, 0.25]])


def test_inverse_residual_order_20(rng):
    # oracle: triangular multiply against the identity
    m = random_matryoshkan(rng, 20, diag_low=-10.0, diag_high=-1.0)
    residual = mk.multiply(m, mk.inverse(m)).dense() - np.eye(20)
    assert np.abs(residual).max() <= 1e-10


def test_inverse_reports_singular_index():
    m = M([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(SingularMatrix) as err:
        mk.inverse(m)
    assert err.value.index == 2


# -- power --------------------------------------------------------------------


def test_power_trivial_exponents(rng):
    m = random_matryoshkan(rng, 5)
    assert np.array_equal(mk.power(m, 0).dense(), np.eye(5))
    assert np.array_equal(mk.power(m, 1).packed, m.packed)


def test_power_matches_repeated_multiplication(rng):
    # oracle: five-fold triangular multiply
    m = random_matryoshkan(rng, 8, diag_low=-8.0, diag_high=-0.5)
    direct = mk.power(m, 5).dense()
    acc = m
    for _ in range(4):
        acc = mk.multiply(acc, m)
    ref = acc.dense()
    scale = max(1.0, np.abs(ref).max())
    assert np.abs(direct - ref).max() <= 1e-12 * scale


def test_power_rejects_negative_and_accepts_repeated_diagonal():
    m = M([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(InvalidDimension):
        mk.power(m, -1)
    square = mk.multiply(m, m).dense()
    assert np.abs(mk.power(m, 2).dense() - square).max() <= 1e-15 * np.abs(square).max()
    assert np.array_equal(mk.power(m, 1).packed, m.packed)


def test_power_overflow():
    with pytest.raises(Overflow, match="matrix power"):
        mk.power(mk.MatryoshkanMatrix.from_diagonal([1e200]), 2)


def test_every_operation_raises_overflow_naming_the_first_order():
    # row i depends on the leading (i+1)-block alone, so the first row that
    # is not finite is the first order whose result leaves the double range;
    # a numpy RuntimeWarning leaking out would fail the suite's filter
    theta = mk.build(mk.GrowthCollapseSpec(1e30, 1.0), 30)[0].theta
    for op in (mk.inverse, lambda m: mk.eigendecompose(m).U):
        with pytest.raises(Overflow, match="of order 11 leaves the double range$"):
            op(theta)
        head = op(theta.leading(10))
        assert np.all(np.isfinite(head.dense()))
        assert np.array_equal(head.leading(5).dense(), op(theta.leading(5)).dense())
    one = mk.MatryoshkanMatrix.from_diagonal([1e200])
    big = mk.MatryoshkanMatrix.from_diagonal([1e308])
    with pytest.raises(Overflow, match="^matrix product of order 1 "):
        mk.multiply(one, one)
    with pytest.raises(Overflow, match="^matrix sum of order 1 "):
        mk.add(big, big)
    second = M([[2.0, 0.0], [1.0, 1e200]])
    with pytest.raises(Overflow, match="^matrix power of order 2 "):
        mk.power(second, 2)
    with pytest.raises(Overflow, match="^matrix exponential of order 2 "):
        mk.exp_scaled(M([[1.0, 0.0], [1.0, 800.0]]), 1.0)


def _growth_collapse_theta():
    return mk.build(mk.GrowthCollapseSpec(1e30, 1.0), 30)[0].theta


@pytest.mark.parametrize(
    "what, order, call",
    [
        ("matrix inverse", 11, lambda: mk.inverse(_growth_collapse_theta())),
        ("eigenvector matrix", 11, lambda: mk.eigendecompose(_growth_collapse_theta())),
        ("matrix product", 1, lambda: mk.multiply(M([[1e200]]), M([[1e200]]))),
        ("matrix sum", 1, lambda: mk.add(M([[1e308]]), M([[1e308]]))),
        ("matrix power", 2, lambda: mk.power(M([[2.0, 0.0], [1.0, 1e200]]), 2)),
        ("matrix exponential", 2, lambda: mk.exp_scaled(M([[1.0, 0.0], [1.0, 800.0]]), 1.0)),
        ("initial moment", 2, lambda: mk.transient_vector(
            *mk.build(mk.HawkesSpec(1.0, 1.0, 2.0, x0=1e200), 2), 1.0)),
        ("stationary moment", 11, lambda: mk.steady_vector(
            mk.build(mk.GrowthCollapseSpec(1e30, 1.0), 30)[0])),
        ("deterministic jump moment", 2, lambda: mk.DeterministicJumps(1e200).moments(3)),
        ("exponential jump moment", 171, lambda: mk.ExponentialJumps(1.0).moments(171)),
        ("lognormal jump moment", 2, lambda: mk.LogNormalJumps(0.0, 30.0).moments(3)),
        ("sample moment estimate", 2, lambda: mk.estimate_moments([1e200, 1e200], 2)),
    ],
)
def test_every_order_naming_overflow_shares_one_wording(what, order, call):
    with pytest.raises(Overflow) as info:
        call()
    assert str(info.value) == f"{what} of order {order} leaves the double range"


def test_huge_finite_time_skips_taylor_degrees_whose_ratio_overflows():
    # ||M t|| / theta_m is infinite for the smallest theta_m from about
    # 4.6e300; the larger degrees still apply, and e^{-1e307} is 0
    assert mk.exp_scaled(mk.MatryoshkanMatrix.from_diagonal([-1.0]), 1e307).dense().tolist() == [[0.0]]
    system, init = mk.build(mk.HawkesSpec(1.0, 1.0, 2.0), 5)
    steady = mk.steady_vector(system).values
    for t in (4e300, 1e305):
        assert np.array_equal(mk.transient_vector(system, init, t).values, steady)
    with pytest.raises(Overflow, match="^generator times t leaves the double range$"):
        mk.exp_scaled(mk.MatryoshkanMatrix.from_diagonal([-1e10]), 1e300)


# -- exponential --------------------------------------------------------------


def test_exp_at_zero_is_identity(rng):
    m = random_matryoshkan(rng, 6)
    assert np.array_equal(mk.exp_scaled(m, 0.0).dense(), np.eye(6))


def test_exp_two_by_two_closed_form():
    e = mk.exp_scaled(M([[-1.0, 0.0], [1.0, -2.0]]), 1.0).dense()
    expected = np.array(
        [
            [math.exp(-1), 0.0],
            [math.exp(-1) - math.exp(-2), math.exp(-2)],
        ]
    )
    assert np.abs(e - expected).max() <= 1e-15
    assert e[1, 0] == pytest.approx(0.232544, abs=1e-6)


def test_exp_matches_taylor_series(rng):
    # oracle: 60-term truncated power series on the dense matrix
    m = random_matryoshkan(rng, 6, diag_low=-3.0, diag_high=-0.1)
    mine = mk.exp_scaled(m, 1.0).dense()
    ref = taylor_exp(m.dense(), 1.0)
    assert np.abs(mine - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_exp_diagonal_overflow():
    m = mk.MatryoshkanMatrix.from_diagonal([800.0, 1.0])
    with pytest.raises(Overflow):
        mk.exp_scaled(m, 1.0)
    # M t itself leaves the double range before any series term is formed
    with pytest.raises(Overflow, match="generator times t"):
        mk.exp_scaled(mk.MatryoshkanMatrix.from_diagonal([1e300]), 1e10)


def test_exp_rejects_non_finite_time():
    m = mk.MatryoshkanMatrix.from_diagonal([-1.0, -2.0])
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInput, match="t must be finite"):
            mk.exp_scaled(m, t)


def worst_row_error(mine: np.ndarray, ref: np.ndarray) -> float:
    """Largest entry error of a row relative to that row's largest entry."""
    return max(
        np.abs(mine[i, : i + 1] - ref[i, : i + 1]).max() / np.abs(ref[i, : i + 1]).max()
        for i in range(ref.shape[0])
    )


def mpmath_dense(f, L: np.ndarray) -> np.ndarray:
    """f applied to L in 40-digit arithmetic, rounded back to doubles."""
    with mpmath.workdps(40):
        return np.array(f(mpmath.matrix(L.tolist())).tolist(), dtype=np.float64)


def test_taylor_thresholds_match_their_backward_error_bound():
    # theta_m is the root of sum_{k>m} |g_k| theta^(k-1) = 2^-53, where
    # log(e^-x T_m(x)) = sum_k g_k x^k, from f = e^-x T_m(x) by the log-series
    # recurrence k g_k = k f_k - sum_{j<k} j g_j f_(k-j)
    assert [p * q for p, q, _ in core._TAYLOR_DEGREES] == [2, 4, 6, 9, 12, 16, 20, 25, 30]
    terms = 100
    with mpmath.workdps(30):
        u = mpmath.mpf(2) ** -53
        for p, q, theta in core._TAYLOR_DEGREES:
            m = p * q
            # f_k, the x^k coefficient of e^-x T_m(x)
            f = [
                mpmath.fsum(
                    (-1) ** (k - i) / (mpmath.factorial(i) * mpmath.factorial(k - i))
                    for i in range(min(k, m) + 1)
                )
                for k in range(terms + 1)
            ]
            g = [mpmath.mpf(0)] * (terms + 1)
            for k in range(1, terms + 1):
                g[k] = f[k] - mpmath.fsum(j * g[j] * f[k - j] for j in range(1, k)) / k
            lo, hi = mpmath.mpf(0), mpmath.mpf(m)
            for _ in range(60):
                mid = (lo + hi) / 2
                if mpmath.fsum(abs(g[k]) * mid ** (k - 1) for k in range(m + 1, terms + 1)) > u:
                    hi = mid
                else:
                    lo = mid
            assert f"{theta:.4e}" == f"{float(lo):.4e}", m


def test_exponentials_solve_no_linear_system(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exponential kernel solved a linear system")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    _, system, init, _ = build_fixture("hawkes", 100)
    assert np.all(np.isfinite(mk.transient_vector(system, init, 0.1).values))
    _, system, _, _ = build_fixture("hawkes", 10)
    assert np.all(np.isfinite(mk.exp_scaled(system.theta, 1.0).packed))


def test_taylor_kernel_takes_every_degree_and_matches_mpmath():
    # one lower-triangular direction scaled to 1-norms from 1e-9 to 1e4, four
    # per decade; the strictly lower part dominates, so e^B stays in range
    rng = np.random.default_rng(7)
    base = np.tril(rng.uniform(-1.0, 1.0, (6, 6)), -1) + np.diag(rng.uniform(-0.1, 0.1, 6))
    base /= np.abs(base).sum(axis=0).max()
    degrees = set()
    for norm in np.logspace(-9.0, 4.0, 53):
        B = norm * base
        index, _ = core._taylor_degree(float(np.abs(B).sum(axis=0).max()))
        p, q, _ = core._TAYLOR_DEGREES[index]
        degrees.add(p * q)
        ref = mpmath_dense(mpmath.expm, B)
        assert worst_row_error(core._taylor_exp(B), ref) <= 1e-13, norm
        # the action e^B w finishes its last squarings on w; each entry is
        # held against the size of the terms it sums, |e^B| |w|
        w = rng.uniform(-1.0, 1.0, 6)
        scale = np.abs(ref) @ np.abs(w)
        assert np.all(np.abs(core._taylor_exp(B, w) - ref @ w) <= 1e-13 * scale), norm
    assert degrees == {p * q for p, q, _ in core._TAYLOR_DEGREES}


@pytest.mark.parametrize("n", [63, 64, 65, 101])
def test_triangular_product_matches_dense_product(n):
    # from core._SPLIT_ORDER up the product skips the zero upper-right block;
    # either way it agrees with the dense product to rounding and leaves the
    # strict upper triangle of a garbage-filled output exactly zero
    rng = np.random.default_rng(n)
    X = np.tril(rng.standard_normal((n, n)))
    Y = np.tril(rng.standard_normal((n, n)))
    out = np.full((n, n), np.nan)
    assert core._tril_matmul(X, Y, out) is out
    assert np.all(np.triu(out, 1) == 0.0)
    bound = 2 * n * np.finfo(np.float64).eps * (np.abs(X) @ np.abs(Y))
    assert np.all(np.abs(out - X @ Y) <= bound)


@pytest.mark.parametrize(
    "spec",
    [
        # unit up-jumps at rate 2: every diagonal entry is zero
        mk.GenericGeneratorSpec(coeffs=(2.0,) + (0.0,) * 9, up=mk.DeterministicJumps(1.0)),
        # geometric Brownian motion with d_k = theta k + sigma^2 k (k - 1) / 2:
        # theta = 0 has d_1 = 0, theta = -sigma^2 has d_1 = d_2
        mk.ItoSpec(mu=0.0, theta=0.0, sigma=0.5, gamma=2.0, x0=1.5),
        mk.ItoSpec(mu=0.0, theta=-1.0, sigma=1.0, gamma=2.0, x0=1.5),
    ],
    ids=["poisson", "gbm-theta-0", "gbm-repeated"],
)
def test_exp_repeated_diagonal(spec):
    system, _ = mk.build(spec, 20)
    ref = mpmath_dense(mpmath.expm, system.theta.dense())
    assert worst_row_error(mk.exp_scaled(system.theta, 1.0).dense(), ref) <= 1e-13


def test_exp_near_coincident_diagonal():
    d = np.array([1.0, 1.0 + 1e-12])
    e = mk.exp_scaled(mk.MatryoshkanMatrix.from_diagonal(d), 1.0)
    assert np.array_equal(e.dense(), np.diag(np.exp(d)))


@pytest.mark.parametrize("name, t", [("ephemeral", 1.0), ("cir", 1.0), ("hawkes", 0.1)])
def test_exp_matches_mpmath_on_order_30_systems(name, t):
    # the bound sits above rounding (1.8e-15 measured) and below what a
    # resolvent row recursion gives (1.5e-8, 7.8e-10 and 1.5e-9)
    _, system, _, _ = build_fixture(name, 30)
    ref = mpmath_dense(lambda A: mpmath.expm(A * t), system.theta.dense())
    assert worst_row_error(mk.exp_scaled(system.theta, t).dense(), ref) <= 1e-12


@pytest.mark.parametrize("name", ["growthcollapse", "ephemeral"])
def test_power_matches_mpmath_on_order_30_systems(name):
    # the bound sits above rounding (1.8e-16 measured) and below what a
    # resolvent row recursion gives (1.9e64 and 3.3e11)
    _, system, _, _ = build_fixture(name, 30)
    ref = mpmath_dense(lambda A: A**5, system.theta.dense())
    assert worst_row_error(mk.power(system.theta, 5).dense(), ref) <= 1e-13


def test_semigroup_law(rng):
    m = random_matryoshkan(rng, 8, diag_low=-4.0, diag_high=-0.2)
    for s, t in [(0.1, 1.0), (1.0, 5.0), (0.1, 5.0), (1.0, 1.0)]:
        lhs = mk.multiply(mk.exp_scaled(m, s), mk.exp_scaled(m, t)).dense()
        rhs = mk.exp_scaled(m, s + t).dense()
        assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(rhs).max()


def test_derivative_law_second_order():
    # central difference of e^{Mt} converges at O(h^2): halving h from 1e-3
    # to 5e-4 shrinks the residual against M e^{Mt} by a factor near 4
    system, _ = mk.build(mk.HawkesSpec(1, 1, 2), 5)
    m = system.theta
    t = 1.0
    ref = m.dense() @ mk.exp_scaled(m, t).dense()

    def residual(h):
        fd = (mk.exp_scaled(m, t + h).dense() - mk.exp_scaled(m, t - h).dense()) / (2 * h)
        return np.abs(fd - ref).max()

    ratio = residual(1e-3) / residual(5e-4)
    assert 3.5 <= ratio <= 4.5


# -- eigendecomposition --------------------------------------------------------


def test_eigendecompose_diagonal():
    pair = mk.eigendecompose(mk.MatryoshkanMatrix.from_diagonal([1.0, 2.0, 3.0]))
    assert np.array_equal(pair.U.dense(), np.eye(3))
    assert np.array_equal(pair.D, [1.0, 2.0, 3.0])


def test_eigendecompose_two_by_two_residual():
    m = M([[-1.0, 0.0], [1.0, -2.0]])
    pair = mk.eigendecompose(m)
    assert pair.U.dense()[1, 1] == 1.0
    residual = m.dense() @ pair.U.dense() - pair.U.dense() @ np.diag(pair.D)
    assert np.abs(residual).max() <= 1e-14


def test_eigendecompose_order_15_residual(rng):
    diag = -np.arange(1.0, 16.0)
    rng.shuffle(diag)
    dense = np.diag(diag)
    for i in range(15):
        dense[i, :i] = rng.uniform(-1, 1, i)
    m = M(dense)
    pair = mk.eigendecompose(m)
    residual = m.dense() @ pair.U.dense() - pair.U.dense() @ np.diag(pair.D)
    assert np.abs(residual).max() <= 1e-11 * np.abs(m.dense()).max()


def test_eigendecompose_degenerate():
    with pytest.raises(DegenerateSpectrum):
        mk.eigendecompose(mk.MatryoshkanMatrix.from_diagonal([2.0, 2.0]))


# -- nesting and closure --------------------------------------------------------


def brute_force_coincident_pairs(d):
    """Reference: every pair tested in a double loop, in the order coincident_pairs returns them."""
    pairs = []
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            tol = core.DISTINCT_RTOL * max(1.0, abs(d[i]), abs(d[j]))
            if abs(d[i] - d[j]) <= tol:
                pairs.append((i + 1, j + 1))
    return tuple(pairs)


def test_coincident_pairs_match_brute_force_loop(rng):
    for case in range(200):
        order = int(rng.integers(1, 40))
        # few distinct values, so ties are common; then nudge some entries by
        # just under, at and just over the tolerance
        d = rng.choice([-3.0, -1.0, -0.5, 0.0, 2.0, -1e3], order)
        nudge = rng.choice([0.0, 0.5e-9, 1e-9, 2e-9, 1e-3], order)
        d = d + nudge * np.maximum(1.0, np.abs(d))
        m = mk.MatryoshkanMatrix.from_diagonal(d)
        assert m.coincident_pairs() == brute_force_coincident_pairs(m.diagonal())


def test_nesting_is_exact_for_all_operations(rng):
    # order 40 against its leading 19, 20 and 39 blocks: one dense BLAS
    # product of the whole matrices differs from the block product there;
    # order 66 spans core._SPLIT_ORDER, where the Taylor products split
    for order, ks in ((12, (3, 7, 11)), (40, (19, 20, 39)), (66, (63, 64, 65))):
        m = random_matryoshkan(rng, order, diag_low=-6.0, diag_high=-0.5)
        other = random_matryoshkan(rng, order, diag_low=-3.0, diag_high=-0.1)
        for k in ks:
            assert np.array_equal(
                mk.add(m, other).leading(k).packed, mk.add(m.leading(k), other.leading(k)).packed
            )
            assert np.array_equal(
                mk.multiply(m, other).leading(k).packed,
                mk.multiply(m.leading(k), other.leading(k)).packed,
            )
            assert np.array_equal(
                mk.inverse(m).leading(k).packed, mk.inverse(m.leading(k)).packed
            )
            assert np.array_equal(
                mk.exp_scaled(m, 0.7).leading(k).packed,
                mk.exp_scaled(m.leading(k), 0.7).packed,
            )
            assert np.array_equal(
                mk.power(m, 4).leading(k).packed, mk.power(m.leading(k), 4).packed
            )
            assert np.array_equal(
                mk.eigendecompose(m).U.leading(k).packed,
                mk.eigendecompose(m.leading(k)).U.packed,
            )


def test_power_matches_repeated_multiplication_through_8(rng):
    m = random_matryoshkan(rng, 10, diag_low=-10.0, diag_high=-1.0)
    acc = eye(10)
    for k in range(9):
        ref = acc.dense()
        direct = mk.power(m, k).dense()
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(direct - ref).max() <= 1e-11 * scale
        acc = mk.multiply(acc, m)


# -- solve_lower -----------------------------------------------------------------


def test_solve_lower_matches_dense(rng):
    m = random_matryoshkan(rng, 9)
    b = rng.uniform(-1, 1, 9)
    x = mk.solve_lower(m, b)
    assert np.abs(m.dense() @ x - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


def test_solve_lower_zero_pivot():
    m = M([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(SingularMatrix):
        mk.solve_lower(m, [1.0, 1.0])


def test_solve_lower_rejects_wrong_shaped_rhs():
    # four entries, as many as the order, but not one vector
    with pytest.raises(InvalidDimension):
        mk.solve_lower(eye(4), [[1.0, 2.0], [3.0, 4.0]])


# -- the shared trailing-row recursion against its two former loops ------------


def _wide_range_matryoshkan(rng, order):
    """Entries of either sign spanning about e^-9..e^9, 30% of them exact
    zeros below the diagonal; the diagonal is nonzero."""
    size = order * (order + 1) // 2
    packed = np.exp(rng.uniform(-9.0, 9.0, size)) * rng.choice([-1.0, 1.0], size)
    packed[rng.random(size) < 0.3] = 0.0
    idx = np.arange(1, order + 1)
    packed[idx * (idx + 1) // 2 - 1] = np.exp(rng.uniform(-9.0, 9.0, order)) * rng.choice(
        [-1.0, 1.0], order
    )
    dense = np.zeros((order, order))
    dense[np.tril_indices(order)] = packed
    return M(dense)


def test_trailing_rows_match_reference_loops_bytewise():
    # the identity pins the signs of the zeros below the diagonal
    assert mk.inverse(eye(3)).packed.tobytes() == (
        np.array([1.0, -0.0, 1.0, -0.0, -0.0, 1.0]).tobytes()
    )
    rng = np.random.default_rng(13)
    with np.errstate(over="ignore", invalid="ignore"):
        for order in range(1, 101):
            m = _wide_range_matryoshkan(rng, order)
            for x in (m, eye(order)):
                assert mk.inverse(x).packed.tobytes() == reference_inverse(x).packed.tobytes(), order
            assert (
                mk.eigendecompose(m).U.packed.tobytes()
                == reference_eigendecompose(m).packed.tobytes()
            ), order


def test_values_are_immutable_and_shareable(rng):
    m = random_matryoshkan(rng, 8)
    with pytest.raises((AttributeError, ValueError)):
        m.packed[0] = 1.0
    with pytest.raises(AttributeError):
        m.order = 3
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: mk.exp_scaled(m, 1.0).packed, range(8)))
    for r in results[1:]:
        assert np.array_equal(r, results[0])


def test_threads_keep_the_bits_of_one_thread():
    # eight threads on two CPUs, switching every microsecond, each round an
    # order-100 and an order-10 transient and an order-20 exp_scaled, so the
    # per-thread Taylor scratch buffers grow and shrink under one another
    spec = mk.HawkesSpec(1.0, 1.0, 2.0, x0=1.5)
    big, small, m = mk.build(spec, 100), mk.build(spec, 10), mk.build(spec, 20)[0].theta

    def round_():
        return (
            mk.transient_vector(*big, 0.1).values.tobytes(),
            mk.transient_vector(*small, 1.0).values.tobytes(),
            mk.exp_scaled(m, 1.0).dense().tobytes(),
        )

    want, rounds, results, errors = round_(), 4, [], []

    def worker():
        try:
            results.extend(round_() for _ in range(rounds))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 8 * rounds
    assert all(result == want for result in results)


def test_warm_transient_allocates_no_taylor_workspace():
    # after one warm call the order-100 kernel reuses its thread's scratch
    # buffer, (p + q + 2) 101^2 doubles (1.06 MB); what remains is the graded
    # generator and the grading's logarithms, a few 101^2 arrays
    system, init = mk.build(mk.HawkesSpec(1.0, 1.0, 2.0, x0=1.5), 100)
    mk.transient_vector(system, init, 0.1)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        mk.transient_vector(system, init, 0.1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4 * 101**2 * 8
    # a matrix result is the caller's own, not a view of the scratch buffer
    B = system.theta.dense() * 0.1
    first, second = core._taylor_exp(B), core._taylor_exp(B)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, core._SCRATCH.buffer)


def test_every_matrix_is_read_only_dense_with_exact_zeros_above(rng):
    # the private constructor takes a computed array as it is, so every path
    # that reaches it must leave +0.0, not -0.0, above the diagonal; the public
    # one accepts -0.0 there and stores +0.0
    m = random_matryoshkan(rng, 7)
    signed = np.tril(rng.standard_normal((5, 5)))
    signed[np.triu_indices(5, 1)] = -0.0
    generic = mk.GenericGeneratorSpec(
        (-0.3, 0.5, 0.7, -0.2, -1.0, -3.0, 0.0, 0.0, 0.1, -0.2),
        up=mk.DeterministicJumps(0.0),
        down=mk.ExponentialJumps(2.0),
        collapse=mk.UniformJumps(),
    )
    matrices = {
        "constructor": M(signed),
        "order 1": mk.MatryoshkanMatrix.from_diagonal([-0.5]),
        "zeros": mk.MatryoshkanMatrix.from_diagonal(np.zeros(3)),
        "from_diagonal": mk.MatryoshkanMatrix.from_diagonal([-1.0, -0.0, 2.0]),
        "leading": m.leading(4),
        "extend": mk.extend(m, rng.standard_normal(7), -3.0),
        "extend base": mk.extend(None, [], -0.0),
        "add": mk.add(m, M(np.tril(-m.dense()))),
        "multiply": mk.multiply(m, m),
        "inverse": mk.inverse(m),
        "power 0": mk.power(m, 0),
        "power 5": mk.power(m, 5),
        "exp_scaled": mk.exp_scaled(m, 0.7),
        "eigenvectors": mk.eigendecompose(m).U,
        "build generic": mk.build(generic, 9)[0].theta,
    }
    for a in (-1.5, 0.0):
        matrices[f"pascal_matryoshkan {a}"] = mk.pascal_matryoshkan(6, a)
        matrices[f"pascal_lower {a}"] = mk.pascal_lower(6, a)
    for name, (spec, _) in FIXTURES.items():
        matrices[f"build {name}"] = mk.build(spec, 12)[0].theta
    for name, x in matrices.items():
        dense = x.dense()
        assert dense.shape == (x.order, x.order) and dense.dtype == np.float64, name
        assert dense.flags.c_contiguous and not dense.flags.writeable, name
        upper = dense[np.triu_indices(x.order, 1)]
        assert upper.tobytes() == np.zeros(upper.shape).tobytes(), name
        assert x.packed.tobytes() == dense[np.tril_indices(x.order)].tobytes(), name


# -- property tests ----------------------------------------------------------------


@st.composite
def small_matryoshkan(draw):
    order = draw(st.integers(min_value=1, max_value=6))
    diag = draw(
        st.lists(
            st.floats(min_value=-8.0, max_value=-0.5),
            min_size=order,
            max_size=order,
            unique_by=lambda x: round(x, 2),
        )
    )
    entries = draw(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0),
            min_size=order * (order - 1) // 2,
            max_size=order * (order - 1) // 2,
        )
    )
    dense = np.diag(diag)
    pos = 0
    for i in range(order):
        dense[i, :i] = entries[pos : pos + i]
        pos += i
    return M(dense)


@settings(max_examples=40, deadline=None)
@given(small_matryoshkan(), small_matryoshkan())
def test_closure_of_sum_and_product(x, y):
    if x.order != y.order:
        return
    k = max(1, x.order - 1)
    for op in (mk.add, mk.multiply):
        result = op(x, y)
        dense = result.dense()
        n = result.order
        if n >= 2:
            assert np.all(dense[np.triu_indices(n, k=1)] == 0.0)
        assert np.array_equal(
            result.leading(k).packed, op(x.leading(k), y.leading(k)).packed
        )


@settings(max_examples=40, deadline=None)
@given(small_matryoshkan())
def test_inverse_property(m):
    if m.coincident_pairs():
        return
    residual = mk.multiply(m, mk.inverse(m)).dense() - np.eye(m.order)
    assert np.abs(residual).max() <= 1e-10
