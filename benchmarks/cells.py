"""Cell definitions: which process, order and time each workload operation uses.

A cell is one input of one operation.  Process families are described as
plain data (spec class name plus keyword arguments) so that the reference
cache can fingerprint them without importing the library; the specs are the
fixtures of ``tests/conftest.py`` plus one generic spec for Monte Carlo.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

FAMILIES = {
    "hawkes": {"spec": "HawkesSpec", "lambda_star": 1.0, "alpha": 1.0, "beta": 2.0},
    "shotnoise": {
        "spec": "ShotNoiseSpec",
        "rate": 1.0,
        "decay": 4.0,
        "jumps": {"spec": "LogNormalJumps", "location": 0.0, "scale": 1.0},
    },
    "cir": {"spec": "ItoSpec", "mu": 1.0, "theta": 1.0, "sigma": 1.0, "gamma": 1.0, "x0": 1.0},
    "growthcollapse": {"spec": "GrowthCollapseSpec", "growth": 1.0, "collapse_rate": 0.5},
    "ephemeral": {"spec": "EphemeralSpec", "baseline": 1.0, "jump": 2.0, "expiry": 3.0},
    # up-jumps at rate 1 with exponential(2) sizes, drift 0.5 - x, uniform
    # collapse at rate 0.5
    "generic": {
        "spec": "GenericGeneratorSpec",
        "coeffs": [1.0, 0.0, 0.0, 0.0, 0.5, -1.0, 0.0, 0.0, 0.0, 0.5],
        "up": {"spec": "ExponentialJumps", "rate": 2.0},
        "collapse": {"spec": "UniformJumps"},
        "x0": 1.0,
    },
}

# The same specs as CLI --process and --params; the benchmark's tests check
# that both give identical moments.
CLI_ARGS = {
    "hawkes": ("hawkes", "lambda-star=1,alpha=1,beta=2"),
    "cir": ("ito", "mu=1,theta=1,sigma=1,gamma=1,x0=1"),
    "growthcollapse": ("growthcollapse", "lambda=1,mu=0.5"),
    "ephemeral": ("ephemeral", "nu-star=1,alpha=2,mu=3"),
}

# Shot noise with lognormal jumps cannot build past order 37.
MAX_ORDER = {"shotnoise": 37}

ORDERS = (10, 30, 60, 100)
MC_ORDER = 3
MC_TIME = 1.0
MC_VARIANCE_ORDER = 2 * MC_ORDER

WORKLOADS = ("transient_clustered", "transient_separated", "mc_verify", "cli_moments")


@dataclass(frozen=True)
class Cell:
    """One operation input.  ``kind`` is transient, steady, mc or cli;
    ``time`` is None for stationary moments; ``fmt`` is the CLI output format."""

    kind: str
    family: str
    order: int
    time: float | None
    fmt: str | None = None

    @property
    def id(self) -> str:
        parts = [self.kind, self.family, f"n={self.order}", _time_label(self.time)]
        if self.fmt:
            parts.append(self.fmt)
        return ":".join(parts)

    @property
    def ref_key(self) -> str:
        """Key of the reference moments this cell is checked against."""
        return ref_key(self.family, self.order, self.time)

    def ref_keys(self) -> tuple[str, ...]:
        """Every reference this cell needs; Monte Carlo also needs the moments
        up to twice its order for the exact standard error."""
        if self.kind == "mc":
            return (self.ref_key, ref_key(self.family, MC_VARIANCE_ORDER, self.time))
        return (self.ref_key,)


def _time_label(time: float | None) -> str:
    return "steady" if time is None else f"t={time:g}"


def ref_key(family: str, order: int, time: float | None) -> str:
    return f"{family}:n={order}:{_time_label(time)}"


def _orders(family: str) -> list[int]:
    return [n for n in ORDERS if n <= MAX_ORDER.get(family, n)]


def _transient(families, times) -> list[Cell]:
    return [
        Cell("transient", f, n, t) for f in families for t in times for n in _orders(f)
    ]


def grid(workload: str) -> list[Cell]:
    """The workload's cells before cells whose reference overflows are left out."""
    if workload == "transient_clustered":
        return _transient(("hawkes", "shotnoise", "cir", "ephemeral"), (0.01, 0.1)) + _transient(
            ("growthcollapse",), (0.01, 0.1, 5.0, 50.0)
        )
    if workload == "transient_separated":
        stable = ("hawkes", "shotnoise", "growthcollapse", "ephemeral")
        return _transient(("hawkes", "shotnoise", "cir", "ephemeral"), (1.0, 5.0, 50.0)) + [
            Cell("steady", f, n, None) for f in stable for n in _orders(f)
        ]
    if workload == "mc_verify":
        return [Cell("mc", f, MC_ORDER, MC_TIME) for f in FAMILIES]
    if workload == "cli_moments":
        cells = [
            Cell("cli", f, n, t)
            for f in ("hawkes", "cir", "growthcollapse", "ephemeral")
            for n in (4, 10, 30)
            for t in (0.1, 5.0)
        ]
        cells += [
            Cell("cli", f, n, None) for f in ("hawkes", "growthcollapse", "ephemeral") for n in (4, 10, 30)
        ]
        # alternate the two document formats through the mix
        return [
            Cell(c.kind, c.family, c.order, c.time, "json" if i % 2 == 0 else "csv")
            for i, c in enumerate(cells)
        ]
    raise ValueError(f"unknown workload {workload!r}")


# One small operation per layer, run in every traced pass so that each layer
# has spans in every workload's traced run.
PROBE = (
    Cell("transient", "hawkes", 10, 1.0),
    Cell("steady", "hawkes", 10, None),
    Cell("mc", "hawkes", MC_ORDER, MC_TIME),
    Cell("cli", "hawkes", 4, 1.0, "json"),
)


def reference_keys() -> list[str]:
    """Every reference the benchmark needs, sorted."""
    cells = [c for w in WORKLOADS for c in grid(w)] + list(PROBE)
    return sorted({k for c in cells for k in c.ref_keys()})


def parse_ref_key(key: str) -> tuple[str, int, float | None]:
    family, order, time = key.split(":")
    return family, int(order[2:]), None if time == "steady" else float(time[2:])


def fingerprint(method: str) -> str:
    """Hash of the family definitions, the reference cells and the reference method."""
    doc = {"families": FAMILIES, "keys": reference_keys(), "method": method}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def make_spec(mk, family: str):
    """Instantiate a family's spec from the library module ``mk``."""
    return _instantiate(mk, FAMILIES[family])


def _instantiate(mk, node: dict):
    kwargs = {k: _instantiate(mk, v) if isinstance(v, dict) else v for k, v in node.items() if k != "spec"}
    return getattr(mk, node["spec"])(**kwargs)
