import math
import time

import numpy as np
import pytest

import matryoshkan as mk
from matryoshkan.errors import InvalidInput, Overflow

from conftest import FIXTURES, build_fixture


def test_hand_iteration():
    # ds/dt = -s from 1 with two half steps: 1 -> 0.5 -> 0.25
    system = mk.CoefficientSystem(mk.MatryoshkanMatrix.initial(-1.0), [0.0])
    init = mk.InitialMomentVector.from_state(1.0, 1)
    out = mk.euler_solve(system, init, mk.EulerConfig(step=0.5, horizon=1.0))
    assert out.values[0] == 0.25


def test_config_step_accounting():
    cfg = mk.EulerConfig(step=0.3, horizon=1.0)
    assert cfg.steps == 3
    assert cfg.remainder == pytest.approx(0.1, abs=1e-12)
    assert abs(cfg.remainder) <= cfg.step / 2 + 1e-12
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


def test_error_metrics_examples():
    a = mk.MomentVector(1.0, [2.1])
    b = mk.MomentVector(1.0, [2.0])
    abs_err, rel_err = mk.error_metrics(a, b)
    assert abs_err[0] == pytest.approx(0.1, rel=1e-12)
    assert rel_err[0] == pytest.approx(0.05, rel=1e-12)
    same = mk.error_metrics(b, b)
    assert same[0][0] == 0.0 and same[1][0] == 0.0


def test_error_metrics_zero_reference():
    a = mk.MomentVector(1.0, [1.0, 0.5])
    b = mk.MomentVector(1.0, [2.0, 0.0])
    abs_err, rel_err = mk.error_metrics(a, b)
    assert abs_err[1] == 0.5
    assert np.isnan(rel_err[1])


def test_bench_record_layout():
    _, system, init, _ = build_fixture("hawkes", 3)
    records = mk.bench(system, init, 1.0, 3, deltas=[1e-2], trials=1)
    assert len(records) == 2
    closed, euler = records
    assert closed.method == "closed-form" and closed.delta is None
    assert closed.abs_error == 0.0 and closed.rel_error == 0.0
    assert euler.method == "euler" and euler.delta == 1e-2
    assert euler.abs_error > 0.0 and euler.rel_error > 0.0
    assert euler.order == 3 and euler.trials == 1


def test_bench_runtime_scales_with_step_count():
    # ten times the steps should cost clearly more; the [5, 20] band holds
    # on a quiet machine, so allow a few attempts
    _, system, init, _ = build_fixture("hawkes", 6)
    for attempt in range(3):
        records = mk.bench(
            system, init, 5.0, 6, deltas=[1e-2, 1e-3, 1e-4], trials=3
        )
        times = [r.run_time_median_seconds for r in records if r.method == "euler"]
        assert times[0] < times[1] < times[2]
        ratios = [times[1] / times[0], times[2] / times[1]]
        if all(5.0 <= r <= 20.0 for r in ratios):
            return
    pytest.fail(f"per-decade cost ratios stayed outside [5, 20]: {ratios}")


def test_bench_validates_arguments():
    _, system, init, _ = build_fixture("hawkes", 2)
    with pytest.raises(InvalidInput):
        mk.bench(system, init, 1.0, 2, deltas=[1e-2], trials=0)
    with pytest.raises(InvalidInput):
        mk.bench(system, init, 1.0, 5, deltas=[1e-2], trials=1)
