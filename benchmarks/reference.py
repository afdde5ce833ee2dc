"""High-precision reference moments, computed with mpmath and cached on disk.

The reference for a cell is computed on the double-precision (T, c, s(0))
that the library builds, converted exactly to mpmath numbers:

* transient: the exponential of the augmented generator A = [[0, 0], [c, T]]
  applied to [1; s(0)].  A is lower triangular with the diagonal
  (0, d_1, ..., d_n), so e^{At} = V e^{Λt} V^{-1} with V the unit lower
  triangular eigenvector matrix; V is built column by column in exact
  substitution order.  Clustered diagonals make V ill-conditioned, which
  costs digits, not correctness: the working precision starts at 64 digits
  and doubles until two evaluations, at D and 2D digits, agree to 40 digits.
* steady: exact forward substitution of T s = -c, checked the same way.

Each value is stored as a pair of doubles (hi, lo) with hi + lo equal to the
reference to about 32 digits, so that relative errors of double results are
measured exactly rather than against a rounded reference.  A cell whose
reference leaves the double range is marked ``overflow``; the library
should raise Overflow there and the benchmark leaves the cell out.

mpmath is imported only to build the cache; the benchmark run reads the
cache alone and refuses one whose fingerprint does not match the cell
definitions in ``cells.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import cells

METHOD = (
    "augmented-generator eigen-expansion and exact substitution in mpmath; "
    "precision from 64 digits, doubled until evaluations at D and 2D digits "
    "agree to 40 digits; values as (hi, lo) double pairs"
)
MIN_DIGITS = 64
AGREE_DIGITS = 40
CACHE = Path(__file__).with_name("reference.json")


class StaleReference(Exception):
    """The reference cache is missing or was built for other cell definitions."""


def input_digest(system, init) -> str:
    """Hash of the double-precision inputs a reference was computed on."""
    h = hashlib.sha256()
    for part in (system.theta.packed, system.theta0, init.powers):
        h.update(part.astype("<f8").tobytes())
    return h.hexdigest()


def load(path: Path = CACHE) -> dict:
    """The cached references by key; raises StaleReference on a mismatch."""
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise StaleReference(f"no reference cache at {path}") from None
    want = cells.fingerprint(METHOD)
    if doc.get("fingerprint") != want:
        raise StaleReference(
            f"reference cache {path} has fingerprint {doc.get('fingerprint')!r}, "
            f"but the cell definitions give {want!r}; rebuild it with "
            "`python3 benchmarks/run.py --build-reference`"
        )
    return doc["cells"]


def build(mk, log=None) -> dict:
    """Compute every reference the cell definitions need and write the cache."""
    groups: dict[tuple[str, int], list[float | None]] = {}
    for key in cells.reference_keys():
        family, order, time = cells.parse_ref_key(key)
        groups.setdefault((family, order), []).append(time)
    out = {}
    for (family, order), times in sorted(groups.items()):
        system, init = mk.build(cells.make_spec(mk, family), order)
        digest = input_digest(system, init)
        for time in times:
            values, digits, agreement = _converged(system, init, time)
            entry = {"inputs_sha256": digest, "digits": digits, "agreement": agreement}
            if any(abs(v) > sys.float_info.max for v in values):
                entry["overflow"] = True
            else:
                entry["values"] = [_split(v) for v in values]
            out[cells.ref_key(family, order, time)] = entry
            if log:
                log(f"{cells.ref_key(family, order, time)}: {digits} digits, agreement {agreement:.1e}")
    doc = {"fingerprint": cells.fingerprint(METHOD), "method": METHOD, "cells": out}
    CACHE.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return out


def _converged(system, init, time):
    import mpmath

    digits = MIN_DIGITS
    prev = _evaluate(system, init, time, digits)
    while True:
        cur = _evaluate(system, init, time, 2 * digits)
        with mpmath.workdps(2 * digits):
            gap = max(
                (abs((a - b) / b) for a, b in zip(prev, cur) if b != 0), default=mpmath.mpf(0)
            )
            if gap < mpmath.mpf(10) ** -AGREE_DIGITS:
                return cur, 2 * digits, float(gap)
        digits *= 2
        prev = cur


def _evaluate(system, init, time, digits):
    import mpmath

    with mpmath.workdps(digits):
        mpf = mpmath.mpf
        n = system.order
        L = system.theta.dense()
        T = [[mpf(float(L[k, j])) for j in range(k + 1)] for k in range(n)]
        c = [mpf(float(x)) for x in system.theta0]
        if time is None:
            s = []
            for k in range(n):
                s.append(-(c[k] + mpmath.fdot(T[k][:k], s)) / T[k][k])
            return s
        # augmented generator: row 0 is zero, row k+1 is (c_k, T_k)
        A = [[mpf(0)]] + [[c[k]] + T[k] for k in range(n)]
        lam = [A[i][i] for i in range(n + 1)]
        # column i of V: the eigenvector for lam[i], zero above row i
        cols = []
        for i in range(n + 1):
            col = [mpf(1)]
            for k in range(i + 1, n + 1):
                col.append(mpmath.fdot(A[k][i:k], col) / (lam[i] - lam[k]))
            cols.append(col)
        rows = [[cols[i][k - i] for i in range(k + 1)] for k in range(n + 1)]
        v = [mpf(1)] + [mpf(float(x)) for x in init.powers]
        w = []
        for k in range(n + 1):
            w.append(v[k] - mpmath.fdot(rows[k][:k], w))
        t = mpf(time)
        e = [w[i] * mpmath.exp(lam[i] * t) for i in range(n + 1)]
        return [mpmath.fdot(rows[k], e[: k + 1]) for k in range(1, n + 1)]


def _split(value) -> list[float]:
    """(hi, lo) doubles with hi + lo equal to ``value`` to about 32 digits."""
    import mpmath

    hi = float(value)
    return [hi, float(mpmath.fsub(value, hi, exact=True))]
