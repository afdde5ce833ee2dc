"""Every public count and real parameter, every array's shape and order, and
every spec and law field, against the values it must refuse: each refusal is
a library error whose message opens with the parameter's name.  New cases
are rows of ``_TABLE``."""

import math

import numpy as np

import matryoshkan as mk
from matryoshkan.core import _MAX_ENTRIES, _MAX_ORDER
from matryoshkan.errors import InvalidDimension, InvalidInput, UnsupportedGamma
from matryoshkan.processes import ProcessSpec


def _bad_count(out_of_range=None, error=InvalidInput):
    """Bad values of a count: floats, even a whole one, a string, None, NaN
    and, where the count has a bound, a value past it."""
    bad = [(2.0, InvalidInput), (2.5, InvalidInput), ("2", InvalidInput), (None, InvalidInput),
           (math.nan, InvalidInput)]
    return bad + ([] if out_of_range is None else [(out_of_range, error)])


def _bad_real(out_of_range=None, error=InvalidInput, optional=False):
    """Bad values of a real: a string that float() would parse, None where
    the real is not optional, NaN, infinity and, where the real has a bound,
    a value past it."""
    bad = [("1", InvalidInput), (math.nan, InvalidInput), (math.inf, InvalidInput)]
    bad += [] if optional else [(None, InvalidInput)]
    return bad + ([] if out_of_range is None else [(out_of_range, error)])


def _bad_array(size):
    """Bad entries of an array of ``size`` numbers: strings that float()
    would parse, and None."""
    return [(["1"] * size, InvalidInput), ([None] * size, InvalidInput)]


def _bad_shape(ndim, order=None):
    """Bad shapes of a real number (ndim 0), a vector (1) or a square matrix
    (2) of ``order`` entries a side (2 where any order is taken): one
    dimension more with as many entries, one fewer, a matrix that is not
    square and, where the order is fixed, one more."""
    size = 2 if order is None else order
    bad = [np.ones((1,) + (size,) * ndim)]
    bad += [np.ones((size,) * (ndim - 1))] if ndim else []
    bad += [np.ones((size, size + 1))] if ndim == 2 else []
    bad += [] if order is None else [np.ones((order + 1,) * ndim)]
    return [(b, InvalidDimension) for b in bad]


def _bad_spec():
    """Bad values of a process spec: an object, a number, a family's name,
    None and the bare base of the records."""
    return [(object(), InvalidInput), (1.0, InvalidInput), ("hawkes", InvalidInput), (None, InvalidInput),
            (ProcessSpec(), InvalidInput)]


def _bad_law(optional=False):
    """Bad values of a jump-law field: a number, a descriptor string and,
    where the law is required, None."""
    return [(1.0, InvalidInput), ("exponential:1", InvalidInput)] + ([] if optional else [(None, InvalidInput)])


_M = mk.MatryoshkanMatrix.from_diagonal([-1.0, -2.0, -3.0])
_SYSTEM, _INIT = mk.build(mk.HawkesSpec(1.0, 1.0, 2.0), 3)
_UP = mk.DeterministicJumps(1.0)
_SMALLER = mk.MatryoshkanMatrix.from_diagonal([-1.0, -2.0])

# (name the message opens with, call taking the bad value, bad values with
# the error each raises)
_TABLE = [
    # counts
    ("order", lambda v: mk.build(mk.HawkesSpec(1.0, 1.0, 2.0), v), _bad_count(0, InvalidDimension)),
    ("order", lambda v: mk.InitialMomentVector.from_state(1.0, v), _bad_count(0, InvalidDimension)),
    ("order", lambda v: mk.pascal_matryoshkan(v, 1.0), _bad_count(0, InvalidDimension)),
    ("order", lambda v: mk.pascal_lower(v, 1.0), _bad_count(0, InvalidDimension)),
    # sizes whose storage numpy cannot address
    ("order", lambda v: mk.build(mk.HawkesSpec(1.0, 1.0, 2.0), v), [(_MAX_ORDER + 1, InvalidDimension)]),
    ("paths", lambda v: mk.SimConfig(v, 1.0, 1), [(_MAX_ENTRIES + 1, InvalidInput)]),
    ("n", lambda v: mk.transient_scalar(_SYSTEM, _INIT, 1.0, v), _bad_count(4)),
    ("n", lambda v: mk.steady_nth(_SYSTEM, v), _bad_count(0)),
    ("k", lambda v: _M.leading(v), _bad_count(4, InvalidDimension)),
    ("k", lambda v: _SYSTEM.leading(v), _bad_count(0, InvalidDimension)),
    ("k", lambda v: mk.power(_M, v), _bad_count(-1, InvalidDimension)),
    ("trials", lambda v: mk.bench(_SYSTEM, _INIT, 1.0, [1e-2], v), _bad_count(0)),
    ("max_order", lambda v: mk.estimate_moments([1.0, 2.0, 3.0], v), _bad_count(0)),
    ("paths", lambda v: mk.SimConfig(v, 1.0, 1), _bad_count(0)),
    ("seed", lambda v: mk.SimConfig(3, 1.0, v), _bad_count()),
    ("n", lambda v: mk.DeterministicJumps(1.0).moments(v), _bad_count(-1)),
    ("n", lambda v: mk.ExponentialJumps(2.0).moments(v), _bad_count(-1)),
    ("n", lambda v: mk.LogNormalJumps(0.0, 1.0).moments(v), _bad_count(-1)),
    ("n", lambda v: mk.UniformJumps().moments(v), _bad_count(-1)),
    ("n", lambda v: mk.ExplicitJumps((1.0, 2.0)).moments(v), _bad_count(-1)),
    # reals of functions and configurations
    ("t", lambda v: mk.transient_vector(_SYSTEM, _INIT, v), _bad_real(-1.0)),
    ("t", lambda v: mk.transient_scalar(_SYSTEM, _INIT, v, 2), _bad_real(-1.0)),
    ("t", lambda v: mk.exp_scaled(_M, v), _bad_real()),
    ("x0", lambda v: mk.InitialMomentVector.from_state(v, 2), _bad_real()),
    ("a", lambda v: mk.pascal_matryoshkan(3, v), _bad_real()),
    ("a", lambda v: mk.pascal_lower(3, v), _bad_real()),
    ("step", lambda v: mk.EulerConfig(v, 1.0), _bad_real(0.0)),
    ("step", lambda v: mk.bench(_SYSTEM, _INIT, 1.0, [v], 1), _bad_real(-1e-2)),
    ("horizon", lambda v: mk.EulerConfig(0.1, v), _bad_real(-1.0)),
    ("horizon", lambda v: mk.SimConfig(3, v, 1), _bad_real(-1.0)),
    ("sim_step", lambda v: mk.SimConfig(3, 1.0, 1, sim_step=v), _bad_real(0.0)),
    # arrays of matrix entries and vectors, their shapes and orders
    ("array", lambda v: mk.MatryoshkanMatrix([v]), _bad_array(1) + [([math.nan], InvalidInput)]),
    ("array", lambda v: mk.MatryoshkanMatrix(v), _bad_shape(2)),
    ("values", lambda v: mk.MatryoshkanMatrix.from_diagonal(v),
     _bad_array(2) + [([1.0, math.nan], InvalidInput)] + _bad_shape(1)),
    ("row", lambda v: mk.extend(_M, v, -4.0), _bad_array(3) + [([1.0, math.nan, 1.0], InvalidInput)] + _bad_shape(1, 3)),
    ("row", lambda v: mk.extend(None, v, 1.0), _bad_shape(1, 0)),
    ("diag", lambda v: mk.extend(None, [], v),
     [("3", InvalidInput), (None, InvalidInput), (math.nan, InvalidInput), ([1.0, 2.0], InvalidDimension)]
     + _bad_shape(0)),
    ("rhs", lambda v: mk.solve_lower(_M, v), _bad_array(3) + _bad_shape(1, 3)),
    ("theta0", lambda v: mk.CoefficientSystem(_M, v), _bad_array(3) + _bad_shape(1, 3)),
    ("powers", lambda v: mk.InitialMomentVector(v), _bad_array(3) + [([math.nan, 1.0, 1.0], InvalidInput)] + _bad_shape(1)),
    ("values", lambda v: mk.MomentVector(v), _bad_array(3) + [([math.nan, 1.0, 1.0], InvalidInput)] + _bad_shape(1)),
    ("terminals", lambda v: mk.estimate_moments(v, 2),
     _bad_array(3) + [([math.nan, 1.0, 2.0], InvalidInput), (np.ones((2, 2)), InvalidDimension)] + _bad_shape(1)),
    # operands of another order
    ("y", lambda v: mk.add(_M, v), [(_SMALLER, InvalidDimension)]),
    ("y", lambda v: mk.multiply(_M, v), [(_SMALLER, InvalidDimension)]),
    ("init", lambda v: mk.transient_vector(_SYSTEM, v, 1.0), [(mk.InitialMomentVector([1.0]), InvalidDimension)]),
    ("init", lambda v: mk.euler_solve(_SYSTEM, v, mk.EulerConfig(0.1, 1.0)),
     [(mk.InitialMomentVector([1.0]), InvalidDimension)]),
    ("m_closed", lambda v: mk.error_metrics(mk.MomentVector([1.0, 2.0, 3.0]), v),
     [(mk.MomentVector([1.0]), InvalidDimension)]),
    # operands of another type: an array or a list where a matrix or a
    # record belongs
    ("theta", lambda v: mk.CoefficientSystem(v, [1.0, 2.0]), [(np.eye(2), InvalidInput)]),
    ("x", lambda v: mk.add(v, _M), [(np.eye(3), InvalidInput)]),
    ("y", lambda v: mk.add(_M, v), [(np.eye(3), InvalidInput)]),
    ("y", lambda v: mk.multiply(_M, v), [(np.eye(3), InvalidInput)]),
    ("m", lambda v: mk.solve_lower(v, [1.0, 2.0]), [(np.eye(2), InvalidInput)]),
    ("base", lambda v: mk.extend(v, [1.0, 2.0], 1.0), [(np.eye(2), InvalidInput)]),
    ("m", lambda v: mk.inverse(v), [(np.eye(2), InvalidInput)]),
    ("m", lambda v: mk.power(v, 2), [(np.eye(2), InvalidInput)]),
    ("m", lambda v: mk.exp_scaled(v, 1.0), [(np.eye(2), InvalidInput)]),
    ("m", lambda v: mk.eigendecompose(v), [(np.eye(2), InvalidInput)]),
    ("init", lambda v: mk.transient_vector(_SYSTEM, v, 1.0), [([1.0, 1.0], InvalidInput)]),
    ("system", lambda v: mk.transient_vector(v, _INIT, 1.0), [((_M, [1.0, 2.0, 3.0]), InvalidInput)]),
    ("init", lambda v: mk.transient_scalar(_SYSTEM, v, 1.0, 2), [([1.0, 1.0, 1.0], InvalidInput)]),
    ("system", lambda v: mk.transient_scalar(v, _INIT, 1.0, 2), [(_M, InvalidInput)]),
    ("init", lambda v: mk.euler_solve(_SYSTEM, v, mk.EulerConfig(0.1, 1.0)), [(_INIT.powers, InvalidInput)]),
    ("system", lambda v: mk.steady_vector(v), [(_M, InvalidInput)]),
    ("system", lambda v: mk.steady_nth(v, 2), [(_M, InvalidInput)]),
    ("system", lambda v: mk.validate(v), [(_M, InvalidInput)]),
    # record fields
    ("lambda_star", lambda v: mk.HawkesSpec(v, 1.0, 2.0), _bad_real(0.0)),
    ("alpha", lambda v: mk.HawkesSpec(1.0, v, 2.0), _bad_real(-1.0)),
    ("beta", lambda v: mk.HawkesSpec(1.0, 1.0, v), _bad_real(0.0)),
    ("x0", lambda v: mk.HawkesSpec(1.0, 1.0, 2.0, x0=v), _bad_real(0.0, optional=True)),
    ("rate", lambda v: mk.ShotNoiseSpec(v, 1.0, _UP), _bad_real(0.0)),
    ("decay", lambda v: mk.ShotNoiseSpec(1.0, v, _UP), _bad_real(-1.0)),
    ("x0", lambda v: mk.ShotNoiseSpec(1.0, 1.0, _UP, v), _bad_real(-1.0)),
    ("mu", lambda v: mk.ItoSpec(v, -1.0, 1.0, 1.0), _bad_real()),
    ("theta", lambda v: mk.ItoSpec(1.0, v, 1.0, 1.0), _bad_real()),
    ("sigma", lambda v: mk.ItoSpec(1.0, -1.0, v, 1.0), _bad_real()),
    ("gamma", lambda v: mk.ItoSpec(1.0, -1.0, 1.0, v), _bad_real(-0.5, UnsupportedGamma) + [(2.5, UnsupportedGamma)]),
    ("x0", lambda v: mk.ItoSpec(1.0, -1.0, 1.0, 1.0, v), _bad_real()),
    ("growth", lambda v: mk.GrowthCollapseSpec(v, 1.0), _bad_real(0.0)),
    ("collapse_rate", lambda v: mk.GrowthCollapseSpec(1.0, v), _bad_real(-1.0)),
    ("x0", lambda v: mk.GrowthCollapseSpec(1.0, 1.0, v), _bad_real(-1.0)),
    ("baseline", lambda v: mk.EphemeralSpec(v, 1.0, 2.0), _bad_real(0.0)),
    ("jump", lambda v: mk.EphemeralSpec(1.0, v, 2.0), _bad_real(0.0)),
    ("expiry", lambda v: mk.EphemeralSpec(1.0, 2.0, v), _bad_real(2.0)),
    ("x0", lambda v: mk.EphemeralSpec(1.0, 1.0, 2.0, v), _bad_real(-1.0) + [(0.5, InvalidInput)]),
    ("coeffs[4]", lambda v: mk.GenericGeneratorSpec((0.0,) * 4 + (v,) + (0.0,) * 5), _bad_real()),
    ("coeffs[0]", lambda v: mk.GenericGeneratorSpec(v), [("0000500000", InvalidInput)]),
    ("coeffs", lambda v: mk.GenericGeneratorSpec(v), [(None, InvalidInput), (1.0, InvalidInput)]),
    ("x0", lambda v: mk.GenericGeneratorSpec((0.0,) * 10, x0=v), _bad_real()),
    ("size", lambda v: mk.DeterministicJumps(v), _bad_real(-1.0)),
    ("rate", lambda v: mk.ExponentialJumps(v), _bad_real(0.0)),
    ("location", lambda v: mk.LogNormalJumps(v, 1.0), _bad_real()),
    ("scale", lambda v: mk.LogNormalJumps(0.0, v), _bad_real(-1.0)),
    ("values[1]", lambda v: mk.ExplicitJumps((1.0, v)), _bad_real()),
    ("values[0]", lambda v: mk.ExplicitJumps(v), [("123", InvalidInput)]),
    # specs and law fields
    ("spec", lambda v: mk.build(v, 3), _bad_spec()),
    ("spec", lambda v: mk.simulate(v, mk.SimConfig(paths=10, horizon=1.0, seed=0)), _bad_spec()),
    ("jumps", lambda v: mk.ShotNoiseSpec(1.0, 4.0, jumps=v), _bad_law()),
    ("collapse", lambda v: mk.GrowthCollapseSpec(1.0, 1.0, collapse=v), _bad_law()),
    ("up", lambda v: mk.GenericGeneratorSpec((1.0,) + (0.0,) * 9, up=v), _bad_law(optional=True)),
    ("down", lambda v: mk.GenericGeneratorSpec((0.0,) * 3 + (1.0,) + (0.0,) * 6, down=v), _bad_law(optional=True)),
    ("collapse", lambda v: mk.GenericGeneratorSpec((0.0,) * 9 + (1.0,), collapse=v), _bad_law(optional=True)),
    # coefficients a record derives, named by what the caller set
    ("sigma**2 / 2", lambda v: mk.build(mk.ItoSpec(1.0, -1.0, v, 1.0), 2), [(1e200, InvalidInput)]),
    ("beta * lambda_star", lambda v: mk.build(mk.HawkesSpec(v, 1.0, v), 2), [(1e200, InvalidInput)]),
]


def test_every_count_real_and_law_refuses_bad_values_by_name():
    # each once escaped as a raw TypeError or AttributeError, was accepted
    # (a string a float() parses, an array of another shape that flattened
    # to the right size), or named a coefficient the caller never set
    wrong = []
    for name, call, bad_values in _TABLE:
        for value, error in bad_values:
            try:
                call(value)
            except Exception as exc:
                if type(exc) is not error or not str(exc).startswith((f"{name} must be ", f"{name} must have order ")):
                    wrong.append(f"{name}={value!r}: {type(exc).__name__}: {exc}")
            else:
                wrong.append(f"{name}={value!r}: accepted")
    assert wrong == []

