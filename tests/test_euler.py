import math
import time

import numpy as np
import pytest

import matryoshkan as mk
from matryoshkan import euler
from matryoshkan.errors import InvalidDimension, InvalidInput, Overflow

from conftest import FIXTURES, build_fixture
from reference_builders import reference_euler_solve


def test_hand_iteration():
    # ds/dt = -s from 1 with two half steps: 1 -> 0.5 -> 0.25
    system = mk.CoefficientSystem(mk.MatryoshkanMatrix.from_diagonal([-1.0]), [0.0])
    init = mk.InitialMomentVector.from_state(1.0, 1)
    out = mk.euler_solve(system, init, mk.EulerConfig(step=0.5, horizon=1.0))
    assert out.values[0] == 0.25


def test_config_step_accounting():
    cfg = mk.EulerConfig(step=0.3, horizon=1.0)
    assert cfg.steps == 3
    assert cfg.remainder == pytest.approx(0.1, abs=1e-12)
    assert abs(cfg.remainder) <= cfg.step / 2 + 1e-12
    # ds/dt = 1 from 0: the values sit at steps * step = 0.9, not at 1.0
    system = mk.CoefficientSystem(mk.MatryoshkanMatrix.from_diagonal([0.0]), [1.0])
    out = mk.euler_solve(system, mk.InitialMomentVector.from_state(0.0, 1), cfg)
    assert out.values[0] == pytest.approx(cfg.steps * cfg.step, rel=1e-15)
    assert mk.EulerConfig(step=1e-3, horizon=5.0).steps == 5000
    with pytest.raises(InvalidInput):
        mk.EulerConfig(step=0.0, horizon=1.0)


def test_config_rejects_non_finite_values():
    # a NaN step used to crash in steps(); an infinite one took zero steps
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInput, match="finite"):
            mk.EulerConfig(step=bad, horizon=1.0)
        with pytest.raises(InvalidInput, match="finite"):
            mk.EulerConfig(step=1e-3, horizon=bad)


def test_fine_step_limit_matches_closed_form():
    # first-moment solve at step 1e-6 against the closed form
    _, system, init, _ = build_fixture("hawkes", 1)
    stepped = mk.euler_solve(system, init, mk.EulerConfig(step=1e-6, horizon=10.0))
    closed = mk.transient_vector(system, init, 10.0)
    rel = abs(stepped.values[0] - closed.values[0]) / closed.values[0]
    assert rel <= 1e-5


@pytest.mark.parametrize("name", list(FIXTURES))
def test_fine_step_agreement_all_fixtures(name):
    # the explosive diffusion's error at this step is t * chi_10^2 * step / 2,
    # which crosses 1e-4 right at t = 2; its check runs at t = 1
    t = 1.0 if name == "cir" else 2.0
    _, system, init, _ = build_fixture(name, 10)
    stepped = mk.euler_solve(system, init, mk.EulerConfig(step=1e-6, horizon=t))
    closed = mk.transient_vector(system, init, t)
    _, rel = mk.error_metrics(stepped, closed)
    assert np.nanmax(rel) <= 1e-4


@pytest.mark.parametrize("name", list(FIXTURES))
def test_first_order_convergence(name):
    # global error of the explicit step is O(step): each decade of step
    # removes one decade of error, within the stated 0.1 log tolerance
    _, system, init, horizon = build_fixture(name, 4)
    closed = mk.transient_vector(system, init, horizon)
    rels = []
    for delta in (1e-2, 1e-3, 1e-4):
        stepped = mk.euler_solve(system, init, mk.EulerConfig(step=delta, horizon=horizon))
        _, rel = mk.error_metrics(stepped, closed)
        rels.append(np.nanmax(rel))
    for coarse, fine in zip(rels, rels[1:]):
        assert 0.9 <= math.log10(coarse / fine) <= 1.1


def test_overflow_on_unstable_step():
    _, system, init, _ = build_fixture("shotnoise", 10)
    with pytest.raises(Overflow):
        mk.euler_solve(system, init, mk.EulerConfig(step=1.0, horizon=2000.0))
    # the order-1 loop stops at the first non-finite step: s doubles each
    # step and leaves the double range after 1,024 of the 10^6
    scalar = mk.CoefficientSystem(mk.MatryoshkanMatrix.from_diagonal([1.0]), [0.0])
    init = mk.InitialMomentVector.from_state(1.0, 1)
    with pytest.raises(Overflow, match="Euler iteration"):
        mk.euler_solve(scalar, init, mk.EulerConfig(step=1.0, horizon=1e6))


def _stepped_bytes(solve, system, init, cfg):
    """The stepped values' bytes, or the refusal's type and message."""
    try:
        return solve(system, init, cfg).values.tobytes()
    except Overflow as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("n", [2, 3, 10, 101])
def test_stepping_is_bit_identical_to_the_reference_loop(n):
    # seeded random lower-triangular systems, run across the 1,024-step range
    # checks and through the overflow exit, against the loop that held the
    # step as a Python float
    rng = np.random.default_rng(n)
    for steps in (1, 1023, 1024, 1025, 2500):
        T = np.tril(rng.standard_normal((n, n))) / n
        system = mk.CoefficientSystem(mk.MatryoshkanMatrix(T), rng.standard_normal(n))
        init = mk.InitialMomentVector(rng.standard_normal(n))
        cfg = mk.EulerConfig(step=1e-3, horizon=steps * 1e-3)
        assert cfg.steps == steps
        stepped = _stepped_bytes(mk.euler_solve, system, init, cfg)
        assert isinstance(stepped, bytes)
        assert stepped == _stepped_bytes(reference_euler_solve, system, init, cfg)
    # a diagonal of +50 at step 1e-2 grows by 1.5 per step and leaves the
    # double range after about 1,750 steps; +1e3 at step 1 after about 100
    for diagonal, step, horizon in ((50.0, 1e-2, 30.0), (1e3, 1.0, 3000.0), (1e3, 1.0, 150.0)):
        T = np.tril(rng.standard_normal((n, n))) / n
        np.fill_diagonal(T, diagonal)
        system = mk.CoefficientSystem(mk.MatryoshkanMatrix(T), rng.standard_normal(n))
        init = mk.InitialMomentVector(rng.random(n) + 1.0)
        cfg = mk.EulerConfig(step=step, horizon=horizon)
        stepped = _stepped_bytes(mk.euler_solve, system, init, cfg)
        assert stepped == "Overflow: Euler iteration leaves the double range"
        assert stepped == _stepped_bytes(reference_euler_solve, system, init, cfg)


def test_stable_run_past_1e300_returns_finite_values():
    # growth-collapse order 10 settles at 3.99e307: a finite double, not an
    # overflow
    system, init = mk.build(mk.GrowthCollapseSpec(1e30, 1.0), 10)
    out = mk.euler_solve(system, init, mk.EulerConfig(step=1e-2, horizon=200.0))
    assert np.all(np.isfinite(out.values))
    assert out.values[-1] > 1e307


def test_error_metrics_examples():
    a = mk.MomentVector([2.1])
    b = mk.MomentVector([2.0])
    abs_err, rel_err = mk.error_metrics(a, b)
    assert abs_err[0] == pytest.approx(0.1, rel=1e-12)
    assert rel_err[0] == pytest.approx(0.05, rel=1e-12)
    same = mk.error_metrics(b, b)
    assert same[0][0] == 0.0 and same[1][0] == 0.0
    with pytest.raises(InvalidDimension, match="^m_closed must have order 1, got 2$"):
        mk.error_metrics(a, mk.MomentVector([2.0, 4.0]))


def test_error_metrics_zero_reference():
    a = mk.MomentVector([1.0, 0.5])
    b = mk.MomentVector([2.0, 0.0])
    abs_err, rel_err = mk.error_metrics(a, b)
    assert abs_err[1] == 0.5
    assert np.isnan(rel_err[1])


def test_bench_record_layout():
    _, system, init, _ = build_fixture("hawkes", 3)
    records = mk.bench(system, init, 1.0, deltas=[1e-2], trials=1)
    assert len(records) == 2
    closed, euler = records
    assert closed.method == "closed-form" and closed.delta is None
    assert closed.abs_error == 0.0 and closed.rel_error == 0.0
    assert euler.method == "euler" and euler.delta == 1e-2
    assert euler.abs_error > 0.0 and euler.rel_error > 0.0


def test_bench_runtime_scales_with_step_count():
    # ten times the steps should cost clearly more; the [5, 20] band holds
    # on a quiet machine, so allow a few attempts
    _, system, init, _ = build_fixture("hawkes", 6)
    for attempt in range(3):
        records = mk.bench(system, init, 5.0, deltas=[1e-2, 1e-3, 1e-4], trials=3)
        times = [r.run_time_median_seconds for r in records if r.method == "euler"]
        assert times[0] < times[1] < times[2]
        ratios = [times[1] / times[0], times[2] / times[1]]
        if all(5.0 <= r <= 20.0 for r in ratios):
            return
    pytest.fail(f"per-decade cost ratios stayed outside [5, 20]: {ratios}")


def test_bench_validates_arguments():
    _, system, init, _ = build_fixture("hawkes", 2)
    with pytest.raises(InvalidInput):
        mk.bench(system, init, 1.0, deltas=[1e-2], trials=0)


def test_bench_rejects_a_step_before_timing_anything(monkeypatch):
    # a step size past the step bound is rejected before the first of the
    # trials, not after the closed form has been timed trials times
    _, system, init, _ = build_fixture("hawkes", 3)
    calls = []
    monkeypatch.setattr(euler, "transient_vector", lambda *args: calls.append(args))
    with pytest.raises(InvalidInput, match="per path exceed the limit"):
        mk.bench(system, init, 1.0, deltas=[1e-2, 1e-300], trials=50)
    assert calls == []
