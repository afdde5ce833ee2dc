"""Seeded sweep of generic generators against a 50-digit mpmath reference.

The draws are fixed by one seed and cycle through every mechanism (up-jumps,
down-jumps, collapse), every jump law (deterministic, exponential, uniform),
both drift signs and x0 in {0, 0.5, 2}; magnitudes and the horizon come from
the seeded generator.  Down-jumps give sign-alternating rows that cancel, and
exponential collapse factors give diagonals that leave the double range, so
every draw either matches the reference to 1e-8 or raises ``Overflow``
exactly when the reference is beyond the largest double.  Each order gets
twelve draws; order 20 costs up to a second of mpmath per draw.
"""

import sys

import mpmath
import numpy as np
import pytest

import matryoshkan as mk
from matryoshkan.errors import Overflow

from oracle import TINY, mpmath_transient

SEED = 11
COUNT = 36
MECHANISMS = ("up", "down", "collapse")
LAWS = ("deterministic", "exponential", "uniform")
ORDERS = (3, 10, 20)
X0 = (0.0, 0.5, 2.0)
TIMES = (0.05, 1.0, 8.0)
REL_TOL = 1e-8


def _law(name: str, rng: np.random.Generator, collapse: bool):
    # a collapse law is the factor C in x -> C x, so it stays mostly below 1
    if name == "deterministic":
        return mk.DeterministicJumps(rng.uniform(0.1, 0.9) if collapse else rng.uniform(0.2, 1.5))
    if name == "exponential":
        return mk.ExponentialJumps(rng.uniform(2.0, 5.0) if collapse else rng.uniform(1.0, 5.0))
    return mk.UniformJumps()


def _draws():
    rng = np.random.default_rng(SEED)
    out = []
    for i in range(COUNT):
        mechanism = MECHANISMS[i % 3]
        law = LAWS[(i // 3) % 3]
        sign = -1.0 if (i // 3) % 2 == 0 else 1.0
        a = [0.0] * 10
        a[4] = sign * rng.uniform(0.0, 1.0)
        a[5] = sign * rng.uniform(0.1, 1.0)
        # slots of the constant and the state-proportional rate
        constant, linear = {"up": (0, 1), "down": (2, 3), "collapse": (9, None)}[mechanism]
        a[constant] = rng.uniform(0.2, 2.0)
        if linear is not None:
            a[linear] = rng.uniform(0.0, 1.0)
        spec = mk.GenericGeneratorSpec(
            coeffs=tuple(a),
            x0=X0[(i // 9) % 3],
            **{mechanism: _law(law, rng, mechanism == "collapse")},
        )
        # every (mechanism, law) pair meets every order as x0 cycles
        order = ORDERS[(i + i // 3 + i // 9) % 3]
        out.append((f"{i}:{mechanism}:{law}:n={order}", order, spec, float(rng.choice(TIMES))))
    return out


DRAWS = _draws()


def test_draws_cover_every_regime():
    assert len(DRAWS) >= 36
    assert {order for _, order, _, _ in DRAWS} == {3, 10, 20}
    specs = [spec for _, _, spec, _ in DRAWS]
    for mechanism in MECHANISMS:
        laws = {type(getattr(spec, mechanism)) for spec in specs if getattr(spec, mechanism) is not None}
        assert laws == {mk.DeterministicJumps, mk.ExponentialJumps, mk.UniformJumps}, mechanism
    assert {spec.x0 for spec in specs} == set(X0)
    assert {np.sign(spec.coeffs[5]) for spec in specs} == {-1.0, 1.0}
    assert {t for _, _, _, t in DRAWS} == set(TIMES)


@pytest.mark.parametrize("key, order, spec, t", DRAWS, ids=[d[0] for d in DRAWS])
def test_transient_matches_mpmath_or_overflows_with_it(key, order, spec, t):
    system, init = mk.build(spec, order)
    ref = mpmath_transient(system, init, t)
    if any(abs(r) > sys.float_info.max for r in ref):
        with pytest.raises(Overflow):
            mk.transient_vector(system, init, t)
        return
    values = mk.transient_vector(system, init, t).values
    errors = [abs(mpmath.mpf(x) - r) / abs(r) for x, r in zip(values, ref) if abs(r) > TINY]
    assert max(errors, default=0.0) <= REL_TOL
