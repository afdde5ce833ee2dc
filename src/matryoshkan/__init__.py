"""Closed-form transient and stationary moments of one-dimensional Markov
processes via nested triangular matrix recursions, with an explicit-Euler
baseline and an exact-simulation Monte Carlo cross-check."""

import importlib

from . import core, engine, errors, processes
from .core import *
from .engine import *
from .errors import *
from .processes import *

__version__ = "0.1.0"

# the names of euler and mc -> their module, imported on first access
_LAZY = dict.fromkeys(("BenchRecord", "EulerConfig", "bench", "error_metrics", "euler_solve"), "euler")
_LAZY.update(dict.fromkeys(("MomentEstimate", "SimConfig", "estimate_moments", "simulate"), "mc"))

__all__ = [*core.__all__, *engine.__all__, *errors.__all__, *processes.__all__, *_LAZY]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
