"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.

Criterion 4 pins the growth-collapse stationary moments to (n+1)! (g/r)^n,
the Gamma(2, r/g) moments.  The generator applied to x^n gives
m_n = g n m_(n-1) / (r (1 - E[C^n])), and Uniform(0, 1) collapse has
E[C^n] = 1/(n+1).  The constant 2 n! (g/r)^n fits no collapse law: n = 1
forces E[C] = 1/2, then n = 2 forces E[C^2] = 0 < E[C]^2.
"""

import math
import time
import warnings

import numpy as np
import pytest

import matryoshkan as mk
from matryoshkan.errors import EstimatePrecisionWarning

from conftest import random_matryoshkan, taylor_exp
from reference_builders import reference_build, systems_equal

DECADES = (1e-2, 1e-3, 1e-4, 1e-5)


def _report(num: int, passed: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\ncriterion {num}: {status} ({elapsed:.1f} s){suffix}")


def _euler_rel_errors(system, init, t, component=None):
    closed = mk.transient_vector(system, init, t)
    rels = []
    for delta in DECADES:
        stepped = mk.euler_solve(system, init, mk.EulerConfig(step=delta, horizon=t))
        _, rel = mk.error_metrics(stepped, closed)
        rels.append(rel[component - 1] if component else np.nanmax(rel))
    return rels


def test_criterion_1_hawkes_benchmark():
    t0 = time.perf_counter()
    system, init = mk.build(mk.HawkesSpec(1.0, 1.0, 2.0), 4)
    rels = _euler_rel_errors(system, init, 10.0, component=4)
    in_band = 1e-6 <= rels[0] <= 2e-5
    factors = [rels[i] / rels[i + 1] for i in range(3)]
    factors_ok = all(8.0 <= f <= 12.0 for f in factors)
    elapsed = time.perf_counter() - t0
    detail = (
        f"rel(1e-2)={rels[0]:.2e}, decade factors="
        + "/".join(f"{f:.2f}" for f in factors)
    )
    passed = in_band and factors_ok and elapsed < 60.0
    _report(1, passed, elapsed, detail)
    assert in_band, detail
    assert factors_ok, detail
    assert elapsed < 60.0


def test_criterion_2_decade_scaling_other_fixtures():
    t0 = time.perf_counter()
    fixtures = {
        "shotnoise": (
            mk.build(
                mk.ShotNoiseSpec(1.0, 4.0, mk.LogNormalJumps(0.0, 1.0)), 10
            ),
            5.0,
        ),
        "cir": (mk.build(mk.ItoSpec(1.0, 1.0, 1.0, 1.0, 1.0), 10), 5.0),
        "growthcollapse": (
            mk.build(mk.GrowthCollapseSpec(1.0, 0.5), 10),
            8.0,
        ),
        "ephemeral": (mk.build(mk.EphemeralSpec(1.0, 2.0, 3.0), 10), 5.0),
    }
    details = []
    passed = True
    for name, ((system, init), horizon) in fixtures.items():
        rels = _euler_rel_errors(system, init, horizon)
        monotone = all(a > b for a, b in zip(rels, rels[1:]))
        fine = [rels[1] / rels[2], rels[2] / rels[3]]
        fine_ok = all(8.0 <= f <= 12.0 for f in fine)
        passed = passed and monotone and fine_ok
        details.append(f"{name}: {fine[0]:.2f}/{fine[1]:.2f}{'' if monotone else ' NOT MONOTONE'}")
    elapsed = time.perf_counter() - t0
    passed = passed and elapsed < 120.0
    _report(2, passed, elapsed, "finest factors " + ", ".join(details))
    assert passed, details


def test_criterion_3_performance_ordering():
    t0 = time.perf_counter()
    system, init = mk.build(mk.HawkesSpec(1.0, 1.0, 2.0), 100)
    # an untimed call first: the first calls in a process with multithreaded
    # BLAS also pay for starting its threads
    mk.transient_vector(system, init, 10.0)
    closed_times = []
    for _ in range(3):
        c0 = time.perf_counter()
        mk.transient_vector(system, init, 10.0)
        closed_times.append(time.perf_counter() - c0)
    closed_time = float(np.median(closed_times))
    e0 = time.perf_counter()
    mk.euler_solve(system, init, mk.EulerConfig(step=1e-5, horizon=10.0))
    euler_time = time.perf_counter() - e0
    ratio = euler_time / closed_time
    elapsed = time.perf_counter() - t0
    passed = closed_time < 1.0 and ratio >= 100.0
    _report(
        3,
        passed,
        elapsed,
        f"closed {closed_time * 1e3:.1f} ms, stepped {euler_time:.2f} s, ratio {ratio:.0f}x",
    )
    assert closed_time < 1.0
    assert ratio >= 100.0


def test_criterion_4_growth_collapse_stationary_constant():
    t0 = time.perf_counter()
    growth, rate = 1.0, 0.5
    system, init = mk.build(mk.GrowthCollapseSpec(growth, rate), 10)
    steady = mk.steady_vector(system).values
    transient = mk.transient_vector(system, init, 200.0).values
    stated = np.array(
        [math.factorial(n + 1) * (growth / rate) ** n for n in range(1, 11)]
    )
    steady_err = np.abs(steady / stated - 1.0).max()
    transient_err = np.abs(transient / stated - 1.0).max()
    steady_ok = bool(steady_err <= 1e-10)
    transient_ok = bool(transient_err <= 1e-8)
    elapsed = time.perf_counter() - t0
    passed = steady_ok and transient_ok and elapsed < 5.0
    _report(
        4,
        passed,
        elapsed,
        f"m_n = g n m_(n-1) / (r (1 - E[C^n])) = (n+1)!(g/r)^n for uniform "
        f"collapse; steady off by {steady_err:.1e}, transient(200) by "
        f"{transient_err:.1e}",
    )
    assert steady_ok and transient_ok, (
        "growth-collapse stationary moments must follow "
        "m_n = g n m_(n-1) / (r (1 - E[C^n])), which for Uniform(0, 1) "
        f"collapse is (n+1)!(g/r)^n; steady off by {steady_err:.1e} "
        f"(bound 1e-10), transient(200) off by {transient_err:.1e} (bound 1e-8)"
    )
    assert elapsed < 5.0


def test_criterion_5_stationary_means():
    t0 = time.perf_counter()
    hawkes, _ = mk.build(mk.HawkesSpec(1.0, 1.0, 2.0), 1)
    shot, _ = mk.build(
        mk.ShotNoiseSpec(1.0, 4.0, mk.LogNormalJumps(0.0, 1.0)), 1
    )
    ephemeral, _ = mk.build(mk.EphemeralSpec(1.0, 2.0, 3.0), 1)
    ou, _ = mk.build(mk.ItoSpec(mu=1.0, theta=-2.0, sigma=1.0, gamma=0.0), 1)
    checks = {
        "hawkes": (mk.steady_nth(hawkes, 1), 2.0),
        "shotnoise": (mk.steady_nth(shot, 1), math.exp(0.5) / 4.0),
        "ephemeral": (mk.steady_nth(ephemeral, 1), 1.0),
        "ou": (mk.steady_nth(ou, 1), 0.5),
    }
    worst = max(abs(got / want - 1.0) for got, want in checks.values())
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-12 and elapsed < 1.0
    _report(5, passed, elapsed, f"worst relative miss {worst:.1e}")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_6_ode_residuals():
    t0 = time.perf_counter()
    fixtures = {
        "hawkes": mk.build(mk.HawkesSpec(1.0, 1.0, 2.0), 10),
        "shotnoise": mk.build(
            mk.ShotNoiseSpec(1.0, 4.0, mk.LogNormalJumps(0.0, 1.0)), 10
        ),
        "cir": mk.build(mk.ItoSpec(1.0, 1.0, 1.0, 1.0, 1.0), 10),
        "growthcollapse": mk.build(mk.GrowthCollapseSpec(1.0, 0.5), 10),
        "ephemeral": mk.build(mk.EphemeralSpec(1.0, 2.0, 3.0), 10),
    }
    h = 1e-4
    worst = 0.0
    for system, init in fixtures.values():
        T = system.theta.dense()
        for t in (0.5, 2.0, 10.0):
            plus = mk.transient_vector(system, init, t + h).values
            minus = mk.transient_vector(system, init, t - h).values
            fd = (plus - minus) / (2.0 * h)
            rhs = T @ mk.transient_vector(system, init, t).values + system.theta0
            worst = max(worst, float(np.max(np.abs(fd - rhs) / np.maximum(1.0, np.abs(rhs)))))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-5 and elapsed < 30.0
    _report(6, passed, elapsed, f"worst residual {worst:.1e}")
    assert worst <= 1e-5
    assert elapsed < 30.0


def test_criterion_7_monte_carlo_cross_validation():
    t0 = time.perf_counter()
    specs = {
        "hawkes": mk.HawkesSpec(1.0, 1.0, 2.0),
        "shotnoise": mk.ShotNoiseSpec(1.0, 4.0, mk.LogNormalJumps(0.0, 1.0)),
        "growthcollapse": mk.GrowthCollapseSpec(1.0, 0.5),
        "ephemeral": mk.EphemeralSpec(1.0, 2.0, 3.0),
    }
    horizon = 10.0
    worst_z = 0.0
    for name, spec in specs.items():
        system, init = mk.build(spec, 3)
        closed = mk.transient_vector(system, init, horizon).values
        terminals = mk.simulate(spec, mk.SimConfig(paths=100000, horizon=horizon, seed=2024))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimatePrecisionWarning)
            estimates = mk.estimate_moments(terminals, 3)
        for k, (est, truth) in enumerate(zip(estimates, closed), start=1):
            z = abs(est.mean - truth) / est.std_error
            worst_z = max(worst_z, z)
            assert z <= 4.0, (name, k, est.mean, truth, est.std_error)
        small = mk.SimConfig(paths=1000, horizon=horizon, seed=2024)
        assert np.array_equal(mk.simulate(spec, small), mk.simulate(spec, small))
    elapsed = time.perf_counter() - t0
    passed = worst_z <= 4.0 and elapsed < 600.0
    _report(7, passed, elapsed, f"worst |z| {worst_z:.2f} over 4 families x 3 orders")
    assert elapsed < 600.0


def test_criterion_8_core_algebra_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    t_exp = 0.35
    worst = {"inv": 0.0, "exp": 0.0, "pow": 0.0, "eig": 0.0}
    for case in range(1000):
        order = int(rng.integers(1, 21))
        m = random_matryoshkan(
            rng, order, diag_low=-(order + 1.0), diag_high=-1.0, entry_scale=1.0
        )
        dense = m.dense()

        inv_res = np.abs(mk.multiply(m, mk.inverse(m)).dense() - np.eye(order)).max()
        worst["inv"] = max(worst["inv"], inv_res)

        mine = mk.exp_scaled(m, t_exp).dense()
        ref = taylor_exp(dense, t_exp)
        exp_res = np.abs(mine - ref).max() / max(1.0, np.abs(ref).max())
        worst["exp"] = max(worst["exp"], exp_res)

        acc = mk.MatryoshkanMatrix.from_diagonal(np.ones(order))
        for k in range(9):
            if k in (0, 1, 2, 5, 8):
                direct = mk.power(m, k).dense()
                refp = acc.dense()
                pow_res = np.abs(direct - refp).max() / max(1.0, np.abs(refp).max())
                worst["pow"] = max(worst["pow"], pow_res)
            acc = mk.multiply(acc, m)

        pair = mk.eigendecompose(m)
        eig_res = np.abs(
            dense @ pair.U.dense() - pair.U.dense() @ np.diag(pair.D)
        ).max() / max(1.0, np.abs(dense).max())
        worst["eig"] = max(worst["eig"], eig_res)

        if order >= 2 and case % 10 == 0:
            k = order - 1
            assert np.array_equal(
                mk.exp_scaled(m, t_exp).leading(k).packed,
                mk.exp_scaled(m.leading(k), t_exp).packed,
            )
            assert np.array_equal(
                mk.inverse(m).leading(k).packed, mk.inverse(m.leading(k)).packed
            )
            assert np.array_equal(
                mk.power(m, 3).leading(k).packed, mk.power(m.leading(k), 3).packed
            )
    elapsed = time.perf_counter() - t0
    ok = (
        worst["inv"] <= 1e-10
        and worst["exp"] <= 1e-10
        and worst["pow"] <= 1e-11
        and worst["eig"] <= 1e-11
    )
    passed = ok and elapsed < 60.0
    _report(
        8,
        passed,
        elapsed,
        "worst inv/exp/pow/eig = "
        + "/".join(f"{worst[k]:.1e}" for k in ("inv", "exp", "pow", "eig")),
    )
    assert ok, worst
    assert elapsed < 60.0


def test_criterion_9_builder_equivalence_grid():
    t0 = time.perf_counter()
    configs = 0
    orders = (2, 5, 8, 20)
    grids = []
    for ls in (0.5, 1.0, 1.7):
        for a in (0.3, 1.0):
            for b in (1.4, 2.0, 3.3):
                if b > a:
                    grids.append(mk.HawkesSpec(ls, a, b))
    for rate in (0.6, 1.3):
        for decay in (0.9, 4.0):
            for jumps in (mk.DeterministicJumps(1.2), mk.ExponentialJumps(2.1), mk.LogNormalJumps(0.1, 0.7)):
                grids.append(mk.ShotNoiseSpec(rate, decay, jumps, 0.2))
    for gamma in (0.0, 1.0, 2.0):
        for theta in (-1.3, 0.4):
            for sigma in (0.5, 1.1):
                grids.append(mk.ItoSpec(0.7, theta, sigma, gamma, 0.9))
    for growth in (0.8, 1.5):
        for rate in (0.4, 1.0):
            for collapse in (mk.UniformJumps(), mk.DeterministicJumps(0.5)):
                grids.append(mk.GrowthCollapseSpec(growth, rate, 0.1, collapse))
    for baseline in (0.7, 1.6):
        for jump in (0.4, 1.1):
            for expiry in (1.9, 3.2):
                grids.append(mk.EphemeralSpec(baseline, jump, expiry, 1))
    for spec in grids:
        for order in orders:
            assert systems_equal(
                mk.build(spec, order), reference_build(spec, order)
            ), (type(spec).__name__, spec, order)
            configs += 1
    elapsed = time.perf_counter() - t0
    passed = configs >= 50 and elapsed < 5.0
    _report(9, passed, elapsed, f"{configs} configurations bit-identical")
    assert configs >= 50
    assert elapsed < 5.0
