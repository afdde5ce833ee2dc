"""Byte-identity corpus: one SHA-256 digest per layer over fixed inputs.

Run from the repository root:

    PYTHONPATH=src python tests/corpus.py

It prints one ``<layer> <digest>`` line for each of ``build`` (the matrix,
shift and initial powers ``build`` returns), ``transient_vector``,
``grading`` (the exponents ``engine._grading`` returns inside those calls),
``steady_vector``, ``solve_lower``, ``euler`` (``euler_solve`` at two steps,
and one step that overflows), ``simulate`` (thinning, the exact diffusion
laws and Euler-Maruyama, refusals included) and ``cli``.  Two trees that
print the same digest for a layer give that layer's outputs bit for bit on
this corpus, refusals included: an error enters the digest as its type and
message.  Run it on both sides of a change that must not move any number.
pytest does not collect this file; ``CASES`` is also the pinned set of the
engine's bit-identity test, and ``THINNING_SPECS`` and ``THINNING_REFUSALS``
those of the thinning kernel's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

import matryoshkan as mk
from matryoshkan import cli, engine
from matryoshkan.errors import MatryoshkanError

from oracle import benchmark_spec
from test_sweep import DRAWS

ORDERS = (10, 30, 60, 100)
TIMES = (0.01, 0.1, 1.0, 5.0, 50.0)
# the benchmark's families; shot noise with lognormal jumps builds to order 37
FAMILIES = {"hawkes": 100, "shotnoise": 37, "cir": 100, "growthcollapse": 100, "ephemeral": 100,
            "generic": 100}
# zero and repeated diagonals: the Poisson count, Brownian motion with drift
# and geometric Brownian motion with theta = 0
DEGENERATE = {
    "poisson": mk.GenericGeneratorSpec(coeffs=(2.0,) + (0.0,) * 9, up=mk.DeterministicJumps(1.0)),
    "brownian-drift": mk.ItoSpec(mu=0.7, theta=0.0, sigma=1.3, gamma=0.0),
    "gbm-theta-0": mk.ItoSpec(mu=0.0, theta=0.0, sigma=0.5, gamma=2.0, x0=1.5),
}
# thinning's specs: every benchmark jump family, the Poisson count, a spec
# with down jumps and a collapse-only spec
THINNING_SPECS = {
    **{f: benchmark_spec(mk, f) for f in FAMILIES if f != "cir"},
    "poisson": DEGENERATE["poisson"],
    "down-jumps": mk.GenericGeneratorSpec(
        coeffs=(1.0, 0.2, 0.5, 0.3, 1.0, -0.5, 0.0, 0.0, 0.0, 0.0),
        up=mk.ExponentialJumps(2.0), down=mk.UniformJumps(), x0=2.0,
    ),
    "collapse-only": mk.GenericGeneratorSpec(
        coeffs=(0.0,) * 4 + (1.0, 0.3, 0.0, 0.0, 0.0, 0.7), collapse=mk.UniformJumps(), x0=1.0
    ),
}
# (spec, horizon) of each refusal of the thinning kernel
THINNING_REFUSALS = {
    "negative rate at the start": (
        mk.GenericGeneratorSpec(coeffs=(-1.0,) + (0.0,) * 9, up=mk.DeterministicJumps(1.0)), 1.0
    ),
    # the down rate 0.5 + x is 1.5 at x0 = 1 and -1.5 where the drift -3 ends
    "negative rate first at the window's end": (
        mk.GenericGeneratorSpec(coeffs=(0.0, 0.0, 0.5, 1.0, -3.0) + (0.0,) * 5,
                                down=mk.DeterministicJumps(1.0), x0=1.0), 1.0
    ),
    # a down jump of 1 from x0 = 0.5 leaves the up rate x at -0.5
    "negative rate after a down jump": (
        mk.GenericGeneratorSpec(coeffs=(0.0, 1.0, 2.0) + (0.0,) * 7, up=mk.DeterministicJumps(1.0),
                                down=mk.DeterministicJumps(1.0), x0=0.5), 1.0
    ),
    "negative collapse rate": (
        mk.GenericGeneratorSpec((0.0,) * 9 + (-0.5,), collapse=mk.UniformJumps()), 1.0
    ),
    "non-finite bound": (
        mk.GenericGeneratorSpec(coeffs=(0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
                                up=mk.DeterministicJumps(1.0), x0=1.0), 1000.0
    ),
    "proposal limit": (
        mk.GenericGeneratorSpec(coeffs=(2e9,) + (0.0,) * 9, up=mk.DeterministicJumps(1.0)), 1.0
    ),
}
# Euler-Maruyama's specs: a power 1 of the state in the volatility, a
# fractional power, and the square root outside its exact law
EULER_MARUYAMA_SPECS = {
    "ito:gamma=2": mk.ItoSpec(mu=1.0, theta=-1.0, sigma=0.5, gamma=2.0, x0=1.0),
    "ito:gamma=1.5": mk.ItoSpec(mu=1.0, theta=-1.0, sigma=0.5, gamma=1.5, x0=1.0),
    "ito:gamma=1,mu<0": mk.ItoSpec(mu=-0.5, theta=-1.0, sigma=0.5, gamma=1.0, x0=1.0),
}
SEEDS = range(1, 40)
PATHS = 1000
EULER_STEPS = (1e-2, 1e-3)
CLI_ARGS = [
    ["--process", "hawkes", "--params", "lambda-star=1,alpha=1,beta=2"],
    ["--process", "ito", "--params", "mu=1,theta=1,sigma=1,gamma=1,x0=1"],
    ["--process", "growthcollapse", "--params", "lambda=1,mu=0.5"],
    ["--process", "ephemeral", "--params", "nu-star=1,alpha=2,mu=3"],
    ["--process", "shotnoise", "--params", "lambda=1,beta=4", "--jumps", "lognormal:0,1"],
]


def _cases():
    """(label, spec, order, times): every benchmark family and degenerate
    diagonal at each order and time, and the sweep's generic draws."""
    out = []
    for family, top in FAMILIES.items():
        spec = benchmark_spec(mk, family)
        out += [(f"{family}:n={n}", spec, n, TIMES) for n in ORDERS if n <= top]
    for name, spec in DEGENERATE.items():
        out += [(f"{name}:n={n}", spec, n, TIMES) for n in ORDERS]
    out += [(f"sweep:{key}", spec, n, (t,)) for key, n, spec, t in DRAWS]
    return out


CASES = _cases()


class _Digest:
    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, label: str, value) -> None:
        """One labelled result: array bytes, text, or an error's type and message."""
        if isinstance(value, BaseException):
            value = f"{type(value).__name__}: {value}"
        data = value.encode() if isinstance(value, str) else np.ascontiguousarray(value).tobytes()
        self._hash.update(f"{label}\0{len(data)}\0".encode() + data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _outcome(call):
    try:
        return call()
    except MatryoshkanError as exc:
        return exc


def _numeric_layers(layers: dict) -> None:
    grading, real = layers["grading"], engine._grading

    def spy(A, v, t):
        e = real(A, v, t)
        grading.add(f"{A.shape[0]}:{t!r}", e.astype(np.int64))
        return e

    engine._grading = spy
    try:
        for label, spec, n, times in CASES:
            built = _outcome(lambda: mk.build(spec, n))
            if isinstance(built, BaseException):
                for name in ("build", "transient_vector", "euler"):
                    layers[name].add(label, built)
                continue
            system, init = built
            for part, array in (("theta", system.theta.dense()), ("theta0", system.theta0),
                                ("powers", init.powers)):
                layers["build"].add(f"{label}:{part}", array)
            for t in times:
                result = _outcome(lambda: mk.transient_vector(system, init, t).values)
                layers["transient_vector"].add(f"{label}:t={t!r}", result)
            layers["steady_vector"].add(label, _outcome(lambda: mk.steady_vector(system).values))
            with np.errstate(over="ignore", invalid="ignore"):
                solved = _outcome(lambda: mk.solve_lower(system.theta, -system.theta0))
            layers["solve_lower"].add(label, solved)
            for step in EULER_STEPS:
                cfg = mk.EulerConfig(step=step, horizon=1.0)
                layers["euler"].add(f"{label}:step={step!r}",
                                    _outcome(lambda: mk.euler_solve(system, init, cfg).values))
    finally:
        engine._grading = real
    # a step past the stiffest diagonal's stability limit
    system, init = mk.build(benchmark_spec(mk, "shotnoise"), 10)
    cfg = mk.EulerConfig(step=1.0, horizon=2000.0)
    layers["euler"].add("shotnoise:n=10:step=1.0:t=2000",
                        _outcome(lambda: mk.euler_solve(system, init, cfg).values))


def _simulate_layer(digest: _Digest) -> None:
    specs = {family: benchmark_spec(mk, family) for family in FAMILIES}
    specs["poisson"] = DEGENERATE["poisson"]
    for family, spec in specs.items():
        for seed in SEEDS:
            cfg = mk.SimConfig(paths=PATHS, horizon=1.0, seed=seed)
            digest.add(f"{family}:seed={seed}", _outcome(lambda: mk.simulate(spec, cfg)))
    # horizon 0 and two blocks of paths for every spec, and five seeds of one
    # block for the specs the loop above does not run
    wide = {**specs, **THINNING_SPECS, **EULER_MARUYAMA_SPECS}
    for name, spec in wide.items():
        runs = [(10, 0.0, 1), (5000, 1.0, 1)]
        runs += [] if name in specs else [(PATHS, 1.0, seed) for seed in range(1, 6)]
        for paths, horizon, seed in runs:
            cfg = mk.SimConfig(paths=paths, horizon=horizon, seed=seed)
            digest.add(f"{name}:paths={paths}:t={horizon!r}:seed={seed}",
                       _outcome(lambda: mk.simulate(spec, cfg)))
    for name, (spec, horizon) in THINNING_REFUSALS.items():
        cfg = mk.SimConfig(paths=5000, horizon=horizon, seed=3)
        digest.add(name, _outcome(lambda: mk.simulate(spec, cfg)))


def _cli_layer(digest: _Digest) -> None:
    argvs = []
    for args in CLI_ARGS:
        for fmt in ("json", "csv"):
            argvs += [["moments", *args, "--order", n, "--time", t, "--format", fmt]
                      for n in ("4", "30") for t in ("0.1", "5")]
            argvs.append(["steady", *args, "--order", "10", "--format", fmt])
        argvs.append(["simulate", *args, "--order", "3", "--time", "1", "--paths", "100", "--seed", "7"])
    argvs += [["moments", *CLI_ARGS[0], "--order", "3", "--time", "1e9"],
              ["moments", *CLI_ARGS[1], "--order", "40", "--time", "50"]]
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digest.add(" ".join(argv), f"{code}\0{out.getvalue()}\0{err.getvalue()}")


def main() -> int:
    names = ("build", "transient_vector", "grading", "steady_vector", "solve_lower", "euler", "simulate",
             "cli")
    layers = {name: _Digest() for name in names}
    _numeric_layers(layers)
    _simulate_layer(layers["simulate"])
    _cli_layer(layers["cli"])
    for name in names:
        print(f"{name} {layers[name].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
