import math
import time
import warnings

import numpy as np
import pytest

import matryoshkan as mk
from matryoshkan import mc
from matryoshkan.errors import EstimatePrecisionWarning, InvalidInput, MatryoshkanError, Overflow

from conftest import build_fixture
from corpus import THINNING_REFUSALS, THINNING_SPECS
from reference_builders import reference_thinning_kernel


def within_se(estimate, truth, k=4.0):
    return abs(estimate.mean - truth) <= k * estimate.std_error


def test_same_seed_is_bitwise_identical():
    spec, _ = (mk.HawkesSpec(1.0, 1.0, 2.0), None)
    cfg = mk.SimConfig(paths=500, horizon=5.0, seed=42)
    a = mk.simulate(spec, cfg)
    b = mk.simulate(spec, cfg)
    assert np.array_equal(a, b)
    c = mk.simulate(spec, mk.SimConfig(paths=500, horizon=5.0, seed=43))
    assert not np.array_equal(a, c)


def test_poisson_counting_moments():
    # homogeneous Poisson counting process through the generic generator:
    # constant rate, unit up-jumps
    lam, t = 1.0, 5.0
    spec = mk.GenericGeneratorSpec(
        coeffs=(lam, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        up=mk.DeterministicJumps(1.0),
    )
    terminals = mk.simulate(spec, mk.SimConfig(paths=100000, horizon=t, seed=7))
    est = mk.estimate_moments(terminals, 2)
    assert within_se(est[0], lam * t)
    assert within_se(est[1], lam * t + (lam * t) ** 2)


def test_shot_noise_fast_decay_limit():
    spec = mk.ShotNoiseSpec(rate=1.0, decay=200.0, jumps=mk.DeterministicJumps(1.0))
    terminals = mk.simulate(spec, mk.SimConfig(paths=20000, horizon=5.0, seed=11))
    assert np.mean(terminals < 1e-6) >= 0.85
    assert terminals.mean() <= 0.02


@pytest.mark.parametrize("name", ["hawkes", "shotnoise", "growthcollapse", "ephemeral"])
def test_exact_simulators_match_closed_form(name):
    spec, system, init, _ = build_fixture(name, 3)
    horizon = 10.0
    closed = mk.transient_vector(system, init, horizon).values
    terminals = mk.simulate(spec, mk.SimConfig(paths=30000, horizon=horizon, seed=5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EstimatePrecisionWarning)
        estimates = mk.estimate_moments(terminals, 3)
    for k, (est, truth) in enumerate(zip(estimates, closed), start=1):
        assert within_se(est, truth), (name, k, est.mean, truth, est.std_error)


def test_growth_collapse_long_run_mean():
    # k = 1 stationary moment is 2 * growth / rate
    spec = mk.GrowthCollapseSpec(growth=1.0, collapse_rate=0.5)
    terminals = mk.simulate(spec, mk.SimConfig(paths=30000, horizon=100.0, seed=13))
    est = mk.estimate_moments(terminals, 1)[0]
    assert within_se(est, 4.0)


def test_diffusion_discretized_estimates():
    spec = mk.ItoSpec(mu=1.0, theta=-1.0, sigma=0.5, gamma=0.0, x0=1.0)
    system, init = mk.build(spec, 2)
    closed = mk.transient_vector(system, init, 2.0).values
    cfg = mk.SimConfig(paths=30000, horizon=2.0, seed=3, sim_step=1e-3)
    est = mk.estimate_moments(mk.simulate(spec, cfg), 2)
    for e, truth in zip(est, closed):
        # allow the O(step) weak bias on top of sampling noise
        assert abs(e.mean - truth) <= 4.0 * e.std_error + 2e-3 * abs(truth)


def test_block_substreams_are_bitwise_reproducible():
    # 10,000 paths span three blocks, each drawing from its own substream
    spec = mk.HawkesSpec(1.0, 1.0, 2.0)
    cfg = mk.SimConfig(paths=10000, horizon=2.0, seed=42)
    a = mk.simulate(spec, cfg)
    assert a.shape == (10000,)
    assert np.array_equal(a, mk.simulate(spec, cfg))
    assert not np.array_equal(a, mk.simulate(spec, mk.SimConfig(paths=10000, horizon=2.0, seed=43)))


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_exact_diffusion_laws_ignore_the_step(gamma):
    spec = mk.ItoSpec(mu=1.0, theta=-1.0, sigma=0.5, gamma=gamma, x0=1.0)
    coarse = mk.simulate(spec, mk.SimConfig(paths=5000, horizon=2.0, seed=9, sim_step=1e-1))
    fine = mk.simulate(spec, mk.SimConfig(paths=5000, horizon=2.0, seed=9, sim_step=1e-4))
    assert np.array_equal(coarse, fine)


@pytest.mark.parametrize(
    "spec",
    [
        mk.ItoSpec(mu=1.0, theta=-1.0, sigma=0.5, gamma=0.0, x0=1.0),
        mk.ItoSpec(mu=1.0, theta=1.0, sigma=1.0, gamma=1.0, x0=1.0),
        mk.ItoSpec(mu=1.0, theta=-1.0, sigma=1.0, gamma=1.0, x0=1.0),
    ],
    ids=["ou", "cir-growing", "cir-reverting"],
)
def test_exact_diffusion_laws_match_closed_form(spec):
    # no discretization bias: the plain z-test applies
    horizon = 1.0
    system, init = mk.build(spec, 2)
    closed = mk.transient_vector(system, init, horizon).values
    terminals = mk.simulate(spec, mk.SimConfig(paths=30000, horizon=horizon, seed=17))
    for k, (est, truth) in enumerate(zip(mk.estimate_moments(terminals, 2), closed), start=1):
        assert within_se(est, truth), (k, est.mean, truth, est.std_error)


def test_geometric_diffusion_stays_on_euler_steps():
    # gamma = 2 has no exact law here: Euler-Maruyama runs and honours the step
    spec = mk.ItoSpec(mu=0.0, theta=-0.5, sigma=0.4, gamma=2.0, x0=1.0)
    system, init = mk.build(spec, 2)
    closed = mk.transient_vector(system, init, 1.0).values
    cfg = mk.SimConfig(paths=20000, horizon=1.0, seed=5, sim_step=1e-3)
    terminals = mk.simulate(spec, cfg)
    for est, truth in zip(mk.estimate_moments(terminals, 2), closed):
        assert abs(est.mean - truth) <= 4.0 * est.std_error + 2e-3 * abs(truth)
    coarse = mk.simulate(spec, mk.SimConfig(paths=20000, horizon=1.0, seed=5, sim_step=1e-2))
    assert not np.array_equal(terminals, coarse)


@pytest.mark.filterwarnings("ignore::matryoshkan.errors.EstimatePrecisionWarning")
def test_estimate_moments_degenerate_and_small_samples():
    est = mk.estimate_moments(np.full(10, 3.0), 2)
    assert est[0].mean == 3.0 and est[0].std_error == 0.0
    assert est[1].mean == 9.0 and est[1].std_error == 0.0
    two = mk.estimate_moments(np.array([0.0, 2.0]), 1)[0]
    assert two.mean == 1.0 and two.std_error == 1.0
    with pytest.raises(InvalidInput):
        mk.estimate_moments(np.array([1.0]), 1)
    with pytest.raises(InvalidInput):
        mk.estimate_moments(np.array([]), 1)
    with pytest.raises(InvalidInput, match="max_order must be >= 1, got 0"):
        mk.estimate_moments(np.array([1.0, 2.0]), 0)


def test_estimate_moments_raise_overflow_past_the_double_range():
    # squared deviations of about 1e400 at order 1, and of 1e598 at order 2
    with pytest.raises(Overflow, match="order 1"):
        mk.estimate_moments([1e200, 2e200, 3e200], 2)
    with pytest.raises(Overflow, match="order 2"):
        mk.estimate_moments([1.0e150, 1.1e150, 1.2e150], 2)
    # and powers of 1e400 at order 2
    with pytest.raises(Overflow, match="order 2"):
        mk.estimate_moments([1e200, 1e200], 2)


def test_estimate_moments_stop_at_the_first_order_that_overflows():
    # a million orders would take seconds; the run ends where the range does,
    # and a sample that would warn at order 6 raises without a warning
    wide = np.random.default_rng(1).lognormal(0.0, 2.0, 50)
    for sample, order in (([1e200, 1e200], 2), (wide, 84)):
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(Overflow, match=f"^sample moment estimate of order {order} leaves"):
                mk.estimate_moments(sample, 10**6)
        assert time.perf_counter() - start < 1.0 and caught == []


def test_estimate_moments_warns_on_wide_standard_error():
    rng = np.random.default_rng(1)
    sample = rng.lognormal(0.0, 2.0, 50)
    with pytest.warns(EstimatePrecisionWarning):
        mk.estimate_moments(sample, 6)


def test_generic_simulation_rejects_diffusion_terms():
    spec = mk.GenericGeneratorSpec(coeffs=(0.0,) * 6 + (0.5, 0.0, 0.0, 0.0))
    with pytest.raises(InvalidInput):
        mk.simulate(spec, mk.SimConfig(paths=10, horizon=1.0, seed=0))


def test_generic_simulation_rejects_negative_rates():
    spec = mk.GenericGeneratorSpec(
        coeffs=(-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        up=mk.DeterministicJumps(1.0),
    )
    with pytest.raises(InvalidInput, match=r"at state 0\.0$"):
        mk.simulate(spec, mk.SimConfig(paths=10, horizon=1.0, seed=0))
    # the state prints as a plain float, not as a numpy repr
    drifting = mk.GenericGeneratorSpec(
        coeffs=(-1.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0),
        up=mk.DeterministicJumps(1.0),
        x0=1.0,
    )
    with pytest.raises(InvalidInput, match=r"^negative jump rate reached at state 1\.0$"):
        mk.simulate(drifting, mk.SimConfig(paths=10, horizon=1.0, seed=0))
    collapsing = mk.GenericGeneratorSpec((0.0,) * 9 + (-0.5,), collapse=mk.UniformJumps())
    with pytest.raises(InvalidInput, match=r"^negative collapse rate -0\.5$"):
        mk.simulate(collapsing, mk.SimConfig(paths=10, horizon=1.0, seed=0))


@pytest.mark.parametrize("name", list(THINNING_SPECS))
def test_thinning_is_bit_identical_to_the_reference_kernel(name, monkeypatch):
    # one block at 3,000 paths and two at 5,000: the same draws in the same
    # order and sizes give the same terminal values, bit for bit
    spec = THINNING_SPECS[name]
    cfgs = [mk.SimConfig(paths=paths, horizon=1.0, seed=seed)
            for paths in (3000, 5000) for seed in range(1, 21)]
    kernel = [mk.simulate(spec, cfg).tobytes() for cfg in cfgs]
    monkeypatch.setattr(mc, "_thinning_kernel", reference_thinning_kernel)
    assert [mk.simulate(spec, cfg).tobytes() for cfg in cfgs] == kernel


def test_thinning_refusals_match_the_reference_kernel(monkeypatch):
    kernels = (mc._thinning_kernel, reference_thinning_kernel)
    refusals = {}
    for name, (spec, horizon) in THINNING_REFUSALS.items():
        cfg = mk.SimConfig(paths=5000, horizon=horizon, seed=3)
        outcomes = []
        for kernel in kernels:
            monkeypatch.setattr(mc, "_thinning_kernel", kernel)
            with pytest.raises(MatryoshkanError) as info:
                mk.simulate(spec, cfg)
            outcomes.append(f"{type(info.value).__name__}: {info.value}")
        assert outcomes[0] == outcomes[1], name
        refusals[name] = outcomes[0]
    assert refusals == {
        "negative rate at the start": "InvalidInput: negative jump rate reached at state 0.0",
        "negative rate first at the window's end": "InvalidInput: negative jump rate reached at state -2.0",
        "negative rate after a down jump": "InvalidInput: negative jump rate reached at state -0.5",
        "negative collapse rate": "InvalidInput: negative collapse rate -0.5",
        "non-finite bound": "Overflow: jump-rate bound leaves the double range",
        "proposal limit": "InvalidInput: 2e+09 expected thinning proposals per path exceed the limit of 1e+09",
    }


def test_simulate_rejects_unsupported_objects():
    with pytest.raises(InvalidInput, match=r"^spec must be a ProcessSpec, got object$"):
        mk.simulate(object(), mk.SimConfig(paths=10, horizon=1.0, seed=0))


@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
def test_diffusion_at_time_zero_is_the_initial_state(gamma):
    spec = mk.ItoSpec(mu=1.0, theta=-1.0, sigma=1.0, gamma=gamma, x0=2.5)
    assert mk.simulate(spec, mk.SimConfig(paths=5, horizon=0.0, seed=0)).tolist() == [2.5] * 5


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_diffusion_law_past_the_double_range_raises_overflow(gamma):
    # e^{theta t} = e^1000 leaves the double range in the exact law's mean
    spec = mk.ItoSpec(mu=1.0, theta=1000.0, sigma=1.0, gamma=gamma, x0=1.0)
    with pytest.raises(Overflow, match="transition law at t = 1.0"):
        mk.simulate(spec, mk.SimConfig(paths=5, horizon=1.0, seed=0))


def test_euler_maruyama_path_past_the_double_range_raises_overflow():
    # e^{100 t} leaves the double range near t = 7.1; a path then ends in
    # inf or NaN, which is the simulation's overflow, not a bad sample
    spec = mk.ItoSpec(mu=0.0, theta=100.0, sigma=1.0, gamma=2.0, x0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(Overflow, match=r"^simulated path leaves the double range$"):
            mk.simulate(spec, mk.SimConfig(paths=5, horizon=8.0, seed=0))


def test_square_root_law_with_vanishing_sigma_raises_overflow():
    # sigma**2 underflows to 0, and the law divides by it
    spec = mk.ItoSpec(mu=1.0, theta=-1.0, sigma=1e-200, gamma=1.0, x0=1.0)
    with pytest.raises(Overflow, match=r"^transition law at t = 1\.0 leaves the double range$"):
        mk.simulate(spec, mk.SimConfig(paths=5, horizon=1.0, seed=0))


def test_explosive_rate_bound_raises_overflow():
    # drift x' = x with jump rate x: the bound over the horizon leaves the
    # double range, where thinning can make no progress
    spec = mk.GenericGeneratorSpec(
        coeffs=(0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
        up=mk.DeterministicJumps(1.0),
        x0=1.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(Overflow):
            mk.simulate(spec, mk.SimConfig(paths=10, horizon=1000.0, seed=0))


@pytest.mark.parametrize("role", ["up", "collapse"])
def test_a_law_that_cannot_be_sampled_is_refused_whatever_the_seed(role):
    # at rate 0.01 few seeds see an event of the law's kind; a law asked for
    # a draw only at such an event let most seeds return values
    coeffs = (0.01,) + (0.0,) * 9 if role == "up" else (0.0,) * 9 + (0.01,)
    spec = mk.GenericGeneratorSpec(coeffs, x0=1.0, **{role: mk.ExplicitJumps((0.5, 0.5))})
    for seed in range(20):
        with pytest.raises(InvalidInput, match="^ExplicitJumps cannot be sampled$"):
            mk.simulate(spec, mk.SimConfig(paths=10, horizon=1.0, seed=seed))


def test_explicit_moments_cannot_be_sampled():
    spec = mk.ShotNoiseSpec(rate=5.0, decay=1.0, jumps=mk.ExplicitJumps((0.5, 1.0 / 3.0)))
    with pytest.raises(InvalidInput):
        mk.simulate(spec, mk.SimConfig(paths=10, horizon=1.0, seed=0))


def test_sim_config_validation():
    with pytest.raises(InvalidInput):
        mk.SimConfig(paths=0, horizon=1.0, seed=0)
    with pytest.raises(InvalidInput):
        mk.SimConfig(paths=1, horizon=-1.0, seed=0)
    with pytest.raises(InvalidInput):
        mk.SimConfig(paths=1, horizon=1.0, seed=0, sim_step=0.0)
    # a non-finite horizon or step would never end the path loop
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidInput):
            mk.SimConfig(paths=1, horizon=bad, seed=0)
        with pytest.raises(InvalidInput):
            mk.SimConfig(paths=1, horizon=1.0, seed=0, sim_step=bad)


def test_integer_counts_take_numpy_integers_and_reject_the_rest():
    # a numpy integer seed draws what the same int draws; np.int64 once
    # overflowed the substream key
    spec = mk.HawkesSpec(1.0, 1.0, 2.0)
    for seed in (2, -7, 2**63):
        ints = mk.simulate(spec, mk.SimConfig(paths=3, horizon=1.0, seed=seed))
        wrapped = np.int64(seed) if seed < 2**63 else np.uint64(seed)
        cfg = mk.SimConfig(paths=np.int32(3), horizon=1.0, seed=wrapped)
        assert type(cfg.paths) is int and type(cfg.seed) is int
        assert mk.simulate(spec, cfg).tobytes() == ints.tobytes()
    for field, value in (("paths", 2.5), ("paths", 3.0), ("seed", 1.5), ("seed", "1")):
        with pytest.raises(InvalidInput, match=f"^{field} must be an integer, got"):
            mk.SimConfig(**{"paths": 3, "seed": 1, field: value}, horizon=1.0)


def test_generic_matches_ephemeral_simulator():
    # the birth-death record simulates through its generic generator, so
    # both specs give the same paths at one seed and the same law across seeds
    eph = mk.EphemeralSpec(baseline=1.0, jump=2.0, expiry=3.0)
    gen = mk.GenericGeneratorSpec(
        coeffs=(1.0, 2.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        up=mk.DeterministicJumps(1.0),
        down=mk.DeterministicJumps(1.0),
    )
    a = mk.estimate_moments(mk.simulate(eph, mk.SimConfig(paths=20000, horizon=5.0, seed=21)), 1)[0]
    b = mk.estimate_moments(mk.simulate(gen, mk.SimConfig(paths=20000, horizon=5.0, seed=22)), 1)[0]
    assert abs(a.mean - b.mean) <= 4.0 * math.hypot(a.std_error, b.std_error)
    same = mk.SimConfig(paths=1000, horizon=5.0, seed=21)
    assert np.array_equal(mk.simulate(eph, same), mk.simulate(gen, same))
