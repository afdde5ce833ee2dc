"""Byte-identity corpus: one SHA-256 digest per layer over fixed inputs.

Run from the repository root:

    PYTHONPATH=src python tests/corpus.py

It prints one ``<layer> <digest>`` line for each of ``transient_vector``,
``grading`` (the exponents ``engine._grading`` returns inside those calls),
``steady_vector``, ``solve_lower``, ``simulate`` and ``cli``.  Two trees that
print the same digest for a layer give that layer's outputs bit for bit on
this corpus, refusals included: an error enters the digest as its type and
message.  Run it on both sides of a change that must not move any number.
pytest does not collect this file; ``CASES`` is also the pinned set of the
engine's bit-identity test.
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
SEEDS = range(1, 40)
PATHS = 1000
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
                layers["transient_vector"].add(label, built)
                continue
            system, init = built
            for t in times:
                result = _outcome(lambda: mk.transient_vector(system, init, t).values)
                layers["transient_vector"].add(f"{label}:t={t!r}", result)
            layers["steady_vector"].add(label, _outcome(lambda: mk.steady_vector(system).values))
            with np.errstate(over="ignore", invalid="ignore"):
                solved = _outcome(lambda: mk.solve_lower(system.theta, -system.theta0))
            layers["solve_lower"].add(label, solved)
    finally:
        engine._grading = real


def _simulate_layer(digest: _Digest) -> None:
    specs = {family: benchmark_spec(mk, family) for family in FAMILIES}
    specs["poisson"] = DEGENERATE["poisson"]
    for family, spec in specs.items():
        for seed in SEEDS:
            cfg = mk.SimConfig(paths=PATHS, horizon=1.0, seed=seed)
            digest.add(f"{family}:seed={seed}", _outcome(lambda: mk.simulate(spec, cfg)))


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
    names = ("transient_vector", "grading", "steady_vector", "solve_lower", "simulate", "cli")
    layers = {name: _Digest() for name in names}
    _numeric_layers(layers)
    _simulate_layer(layers["simulate"])
    _cli_layer(layers["cli"])
    for name in names:
        print(f"{name} {layers[name].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
