"""High-precision reference moments for the tests, read from the benchmark's cache.

``benchmarks/reference.json`` holds mpmath values of the augmented-generator
exponential for every benchmark cell (method in ``benchmarks/reference.py``).
The cache is read only through ``reference.load``, which refuses a cache
built for other cell definitions, and each reference is checked to have been
computed on the exact inputs that ``build`` gives today, so a stale cache
fails loudly instead of comparing against the wrong numbers.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TINY = 1e-200  # entries below this magnitude are not compared relatively


def _benchmark_module(name: str):
    if str(BENCHMARKS) not in sys.path:
        sys.path.append(str(BENCHMARKS))
    return importlib.import_module(name)


def cached_transient_references(mk):
    """(key, system, init, time, reference) for every transient cell whose
    reference is in the double range; reference rows are (hi, lo) double
    pairs whose sum is the moment to about 32 digits."""
    cells = _benchmark_module("cells")
    reference = _benchmark_module("reference")
    out = []
    for key, entry in sorted(reference.load().items()):
        family, order, time = cells.parse_ref_key(key)
        if time is None or entry.get("overflow"):
            continue
        system, init = mk.build(cells.make_spec(mk, family), order)
        assert reference.input_digest(system, init) == entry["inputs_sha256"], f"stale reference {key}"
        out.append((key, system, init, time, np.array(entry["values"], dtype=np.float64)))
    return out


def worst_relative_error(values, ref) -> float:
    """Largest |x - (hi + lo)| / |hi| over entries with |hi| > TINY."""
    hi, lo = ref[:, 0], ref[:, 1]
    mask = np.abs(hi) > TINY
    return float(np.max(np.abs((values[mask] - hi[mask]) - lo[mask]) / np.abs(hi[mask])))
