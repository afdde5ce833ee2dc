"""High-precision reference moments for the tests, read from the benchmark's cache.

``benchmarks/reference.json`` holds mpmath values of the augmented-generator
exponential for every benchmark cell (method in ``benchmarks/reference.py``).
The cache is read only through ``reference.load``, which refuses a cache
built for other cell definitions, and each reference is checked to have been
computed on the exact inputs that ``build`` gives today, so a stale cache
fails loudly instead of comparing against the wrong numbers.

``mpmath_transient`` computes a reference directly, for systems the cache
does not hold, from ``mpmath.expm`` of the augmented generator.

``spec_system``, ``exact_steady`` and ``exact_transient`` start one step earlier, from the spec
instead of the doubles ``build`` returns: the generator is applied to x^k in
exact rational arithmetic, so the reference also measures the rounding of the
built binomials, jump moments and initial powers.
"""

import importlib
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from matryoshkan.processes import DeterministicJumps, ExplicitJumps, ExponentialJumps, UniformJumps

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TINY = 1e-200  # entries below this magnitude are not compared relatively


def _benchmark_module(name: str):
    if str(BENCHMARKS) not in sys.path:
        sys.path.append(str(BENCHMARKS))
    return importlib.import_module(name)


def benchmark_spec(mk, family: str):
    """The spec of one of the benchmark's process families."""
    return _benchmark_module("cells").make_spec(mk, family)


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


def mpmath_transient(system, init, t: float) -> list:
    """Rows 1..n of mpmath.expm(A t) [1; s(0)] at 50 digits, as mpf values,
    for the augmented generator A = [[0, 0], [c, T]] of ``system``."""
    n = system.order
    A = np.zeros((n + 1, n + 1))
    A[1:, 0] = system.theta0
    A[1:, 1:] = system.theta.dense()
    with mpmath.workdps(50):
        E = mpmath.expm(mpmath.matrix(A.tolist()) * mpmath.mpf(t))
        v = [mpmath.mpf(1)] + [mpmath.mpf(x) for x in init.powers]
        return [mpmath.fsum(E[i, j] * v[j] for j in range(i + 1)) for i in range(1, n + 1)]


def _exact_moments(law, n: int) -> list[Fraction]:
    """E[J^0..J^n] of the laws whose moments are rational in their parameters."""
    if isinstance(law, DeterministicJumps):
        return [Fraction(law.size) ** k for k in range(n + 1)]
    if isinstance(law, ExponentialJumps):
        return [math.factorial(k) / Fraction(law.rate) ** k for k in range(n + 1)]
    if isinstance(law, UniformJumps):
        return [Fraction(1, k + 1) for k in range(n + 1)]
    if isinstance(law, ExplicitJumps):
        return [Fraction(1)] + [Fraction(v) for v in law.values[:n]]
    raise TypeError(f"no exact moments for {type(law).__name__}")


def spec_system(spec, n: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The moment system of ``spec`` to order n, exactly, and s(0).

    Row k - 1 holds the coefficients of x^0..x^k in the generator applied to
    x^k: rate(x) E[(x + J)^k - x^k] for up-jumps, the same with -J for
    down-jumps, the drift times k x^(k-1), the diffusion coefficient times
    k (k - 1) x^(k-2) and the collapse rate times (E[C^k] - 1) x^k.
    """
    g = spec.generator()
    a = [Fraction(v) for v in g.coeffs]
    jumps = [
        (a[r], a[r + 1], _exact_moments(law, n), sign)
        for r, law, sign in ((0, g.up, 1), (2, g.down, -1))
        if a[r] or a[r + 1]
    ]
    collapse = _exact_moments(g.collapse, n) if a[9] else None
    rows = []
    for k in range(1, n + 1):
        row = [Fraction(0)] * (k + 1)
        for const, linear, moments, sign in jumps:
            for j in range(k):
                term = math.comb(k, j) * sign ** (k - j) * moments[k - j]
                row[j] += const * term
                row[j + 1] += linear * term
        row[k - 1] += a[4] * k
        row[k] += a[5] * k
        if k >= 2:
            row[k - 2] += a[6] * k * (k - 1)
            row[k - 1] += a[7] * k * (k - 1)
            row[k] += a[8] * k * (k - 1)
        if collapse:
            row[k] += a[9] * (collapse[k] - 1)
        rows.append(row)
    return rows, [Fraction(g.x0) ** k for k in range(1, n + 1)]


def _mpf_rows(rows) -> list[list]:
    return [[mpmath.mpf(v.numerator) / v.denominator for v in row] for row in rows]


def exact_steady(rows, dps: int = 150) -> list:
    """The stationary vector beta of ds/dt = c + T s, the solution of
    0 = c + T beta by forward substitution at ``dps`` digits, as mpf."""
    with mpmath.workdps(dps):
        beta = []
        for k, row in enumerate(_mpf_rows(rows)):
            beta.append(-(row[0] + mpmath.fsum(row[j + 1] * beta[j] for j in range(k))) / row[-1])
        return beta


def exact_transient(rows, initial, times, dps: int = 150) -> list[list]:
    """Moments s(t) of ds/dt = c + T s, s(0) = initial, at each time, as mpf.

    For distinct nonzero diagonals d_k each moment is an exponential
    polynomial s_k = beta_k + sum_j alpha_kj e^(d_j t), with beta from
    ``exact_steady``; substituting it into row k gives alpha_kj (j < k) from
    the rows above, and s_k(0) gives alpha_kk.
    """
    with mpmath.workdps(dps):
        mp = _mpf_rows(rows)
        d = [row[-1] for row in mp]
        if 0 in d or len(set(d)) < len(d):
            raise ValueError("the exponential-polynomial solve needs distinct nonzero diagonals")
        beta = exact_steady(rows, dps)
        alpha = []
        for k, row in enumerate(mp):
            ak = [mpmath.fsum(row[j + 1] * alpha[j][m] for j in range(m, k)) / (d[m] - d[k]) for m in range(k)]
            start = mpmath.mpf(initial[k].numerator) / initial[k].denominator
            ak.append(start - beta[k] - mpmath.fsum(ak))
            alpha.append(ak)
        out = []
        for t in times:
            e = [mpmath.exp(dk * mpmath.mpf(t)) for dk in d]
            out.append([beta[k] + mpmath.fsum(ak[m] * e[m] for m in range(k + 1)) for k, ak in enumerate(alpha)])
        return out
