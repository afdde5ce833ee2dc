"""Hand-written moment-system rows of the five named process families.

These are the closed-form rows each family's generator gives, written out
directly instead of through the generic generator.  The library builds every
family through `matryoshkan.build`; the tests compare its output against
these functions, so the equivalence check is not a tautology.
`reference_generic_build` applies any generic generator row by row, one
Python loop iteration per moment order, as the library once did.
`reference_inverse` and `reference_eigendecompose` are the two row loops the
library once wrote out separately and now shares.  `reference_grading` and
`reference_solve_lower` are the grading and forward-substitution loops the
engine and core ran before their rows lost their per-call numpy overhead;
`reference_euler_solve` and `reference_thinning_kernel` are the Euler loop
and the thinning kernel before their steps and iterations lost theirs.
`reference_taylor_exp` is the Taylor kernel as it was before its temporaries
moved into a per-thread scratch buffer, allocating them on every call, and
before its product was chosen once per call.
This module holds no tests.
"""

import math

import numpy as np

from matryoshkan.core import (
    _SPLIT_ORDER, _TAYLOR_COEF, _VECTOR_SQUARINGS, MatryoshkanMatrix, _check_steps, _overflow, _overflow_order,
    _taylor_degree,
)
from matryoshkan.engine import CoefficientSystem, InitialMomentVector, MomentVector
from matryoshkan.errors import InvalidInput, SingularMatrix, UnsupportedGamma
from matryoshkan.processes import pascal_lower


def _lower(rows: list[np.ndarray]) -> MatryoshkanMatrix:
    """The matrix whose row i holds rows[i] up to its diagonal."""
    dense = np.zeros((len(rows), len(rows)))
    for i, row in enumerate(rows):
        dense[i, : i + 1] = row
    return MatryoshkanMatrix(dense)


def _from_zero(law, n: int) -> np.ndarray:
    """E[J^k] for k = 0..n, the k = 0 entry pinned to 1."""
    return np.concatenate(([1.0], law.moments(n)))


def _check_order(n: int) -> None:
    if n < 1:
        raise InvalidInput(f"order must be >= 1, got {n}")


def build_hawkes(spec, n: int) -> tuple[CoefficientSystem, InitialMomentVector]:
    """Moment system of the self-exciting intensity.

    Row k: binomial jump entries C(k, j-1) alpha^(k-j+1), a band k*beta*lambda_star
    at column k-1, and diagonal k*alpha - k*beta = -k(beta - alpha).  Shift
    vector (beta*lambda_star, 0, ..., 0).
    """
    _check_order(n)
    blam = spec.beta * spec.lambda_star
    rows = []
    for k in range(1, n + 1):
        kf = float(k)
        b = pascal_lower(k + 1, 1.0).dense()[k]
        row = b[:k] * np.power(spec.alpha, np.arange(k, 0, -1, dtype=np.float64))
        if k >= 2:
            row[k - 2] += blam * kf
        row[k - 1] = row[k - 1] - spec.beta * kf
        rows.append(row)
    theta0 = np.zeros(n)
    theta0[0] = blam
    system = CoefficientSystem(_lower(rows), theta0)
    return system, InitialMomentVector.from_state(spec.x0, n)


def build_shot_noise(spec, n: int) -> tuple[CoefficientSystem, InitialMomentVector]:
    """Moment system of the shot noise intensity.

    Row k: entries C(k, i) rate E[J^(k-i)] for i < k, diagonal -k*decay.
    The shift vector is dense: component k is rate * E[J^k].
    """
    _check_order(n)
    jm = _from_zero(spec.jumps, n)
    rows = []
    theta0 = np.empty(n)
    for k in range(1, n + 1):
        b = pascal_lower(k + 1, 1.0).dense()[k]
        coef = spec.rate * b[:k] * jm[k:0:-1]
        theta0[k - 1] = coef[0]
        row = np.empty(k)
        row[: k - 1] = coef[1:]
        row[k - 1] = -spec.decay * float(k)
        rows.append(row)
    system = CoefficientSystem(_lower(rows), theta0)
    return system, InitialMomentVector.from_state(spec.x0, n)


def build_ito(spec, n: int) -> tuple[CoefficientSystem, InitialMomentVector]:
    """Moment system of the affine-drift diffusion for integer gamma.

    Diagonal k*theta, plus k(k-1) sigma^2/2 on the diagonal when gamma = 2;
    the diffusion band sits gamma - 2 places below the diagonal otherwise.
    Shift vector (mu, sigma^2 [gamma = 0], 0, ..., 0).
    """
    _check_order(n)
    if spec.gamma not in (0.0, 1.0, 2.0):
        raise UnsupportedGamma(
            f"exact systems need gamma in {{0, 1, 2}}, got {spec.gamma};"
            " fractional gamma can only be simulated"
        )
    g = int(spec.gamma)
    half = spec.sigma * spec.sigma / 2
    rows = []
    theta0 = np.zeros(n)
    theta0[0] = spec.mu
    if g == 0 and n >= 2:
        theta0[1] = half * 2.0
    for k in range(1, n + 1):
        kf = float(k)
        row = np.zeros(k)
        diag = spec.theta * kf
        if k >= 2:
            kk1 = float(k * (k - 1))
            row[k - 2] += spec.mu * kf
            if g == 1:
                row[k - 2] += half * kk1
            elif g == 0 and k >= 3:
                row[k - 3] += half * kk1
            elif g == 2:
                diag = diag + half * kk1
        row[k - 1] = diag
        rows.append(row)
    system = CoefficientSystem(_lower(rows), theta0)
    return system, InitialMomentVector.from_state(spec.x0, n)


def build_growth_collapse(spec, n: int) -> tuple[CoefficientSystem, InitialMomentVector]:
    """Moment system of the growth-collapse process.

    Row k: band k*growth at column k-1 and diagonal
    collapse_rate * (E[C^k] - 1), which is -k*mu/(k+1) for uniform collapse.
    Shift vector (growth, 0, ..., 0).
    """
    _check_order(n)
    cm = spec.collapse.moments(n)
    rows = []
    for k in range(1, n + 1):
        row = np.zeros(k)
        if k >= 2:
            row[k - 2] = spec.growth * float(k)
        row[k - 1] = spec.collapse_rate * (cm[k - 1] - 1.0)
        rows.append(row)
    theta0 = np.zeros(n)
    theta0[0] = spec.growth
    system = CoefficientSystem(_lower(rows), theta0)
    return system, InitialMomentVector.from_state(spec.x0, n)


def build_ephemeral(spec, n: int) -> tuple[CoefficientSystem, InitialMomentVector]:
    """Moment system of the ephemerally self-exciting count.

    Row k, column i: C(k,i) baseline + C(k,i-1) jump +/- C(k,i-1) expiry,
    the sign alternating with k - i; diagonal -k(expiry - jump).  Shift
    vector is baseline in every component.
    """
    _check_order(n)
    rows = []
    for k in range(1, n + 1):
        kf = float(k)
        b = pascal_lower(k + 1, 1.0).dense()[k]
        row = np.empty(k)
        for i in range(1, k):
            val = spec.baseline * b[i] + spec.jump * b[i - 1]
            down = spec.expiry * b[i - 1]
            # expiry contributes with sign (-1)^(k-i+1)
            row[i - 1] = val + down if (k - i) % 2 == 1 else val - down
        row[k - 1] = spec.jump * kf - spec.expiry * kf
        rows.append(row)
    theta0 = np.full(n, spec.baseline)
    system = CoefficientSystem(_lower(rows), theta0)
    return system, InitialMomentVector.from_state(float(spec.x0), n)


BUILDERS = {
    "HawkesSpec": build_hawkes,
    "ShotNoiseSpec": build_shot_noise,
    "ItoSpec": build_ito,
    "GrowthCollapseSpec": build_growth_collapse,
    "EphemeralSpec": build_ephemeral,
}


def reference_generic_build(spec, n: int) -> tuple[CoefficientSystem, InitialMomentVector]:
    """The generic generator applied to x^k one row at a time.

    Row k starts from zeros and adds, in the order a0, ..., a9, the
    binomial jump terms C(k, j) E[J^(k-j)] (signed (-1)^(k-j) for
    down-jumps), drift k x^(k-1), diffusion k(k-1) x^(k-2) and collapse
    E[C^k] - 1.
    """
    _check_order(n)
    spec = spec.generator()
    a = spec.coeffs
    need_up = a[0] != 0.0 or a[1] != 0.0
    need_down = a[2] != 0.0 or a[3] != 0.0
    need_collapse = a[9] != 0.0
    ea = _from_zero(spec.up, n) if need_up else None
    eb = _from_zero(spec.down, n) if need_down else None
    ec = spec.collapse.moments(n) if need_collapse else None

    rows = []
    theta0 = np.zeros(n)
    for k in range(1, n + 1):
        kf = float(k)
        coef = np.zeros(k + 1)
        if need_up or need_down:
            b = pascal_lower(k + 1, 1.0).dense()[k, :k]
        if need_up:
            up = ea[k:0:-1]
            if a[0] != 0.0:
                coef[:k] += a[0] * b * up
            if a[1] != 0.0:
                coef[1:] += a[1] * b * up
        if need_down:
            dn = eb[k:0:-1]
            sign = np.where((k - np.arange(k)) % 2 == 0, 1.0, -1.0)
            if a[2] != 0.0:
                coef[:k] += a[2] * b * dn * sign
            if a[3] != 0.0:
                coef[1:] += a[3] * b * dn * sign
        if a[4] != 0.0:
            coef[k - 1] += a[4] * kf
        if a[5] != 0.0:
            coef[k] += a[5] * kf
        if k >= 2:
            kk1 = float(k * (k - 1))
            if a[6] != 0.0:
                coef[k - 2] += a[6] * kk1
            if a[7] != 0.0:
                coef[k - 1] += a[7] * kk1
            if a[8] != 0.0:
                coef[k] += a[8] * kk1
        if need_collapse:
            coef[k] += a[9] * (ec[k - 1] - 1.0)
        theta0[k - 1] = coef[0]
        rows.append(coef[1:])
    system = CoefficientSystem(_lower(rows), theta0)
    return system, InitialMomentVector.from_state(spec.x0, n)


def reference_inverse(m: MatryoshkanMatrix) -> MatryoshkanMatrix:
    """Inverse of a nonsingular m, one trailing row at a time."""
    d = m.diagonal()
    n = m.order
    L = m.dense()
    W = np.zeros((n, n))
    W[0, 0] = 1.0 / d[0]
    for k in range(1, n):
        W[k, :k] = -(L[k, :k] @ W[:k, :k]) / d[k]
        W[k, k] = 1.0 / d[k]
    return MatryoshkanMatrix(W)


def reference_eigendecompose(m: MatryoshkanMatrix) -> MatryoshkanMatrix:
    """Unit lower-triangular eigenvectors of m with a distinct diagonal."""
    d = m.diagonal()
    n = m.order
    L = m.dense()
    U = np.zeros((n, n))
    U[0, 0] = 1.0
    for i in range(1, n):
        U[i, :i] = (L[i, :i] @ U[:i, :i]) / (d[:i] - d[i])
        U[i, i] = 1.0
    return MatryoshkanMatrix(U)


def reference_grading(A: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Grading exponents of e^{A t} v, row k scanning the candidates
    (min(log(t/(p_j+1)), log hold_k) + log w_j) + log|a_kj| of rows j < k
    with five numpy calls and three slices."""
    with np.errstate(divide="ignore"):
        log_a = np.log(np.abs(A))
        log_w = np.log(np.abs(v))
        log_hold = -np.log(np.abs(np.diagonal(A)))
    log_t = math.log(t)
    jumps = [0] * A.shape[0]
    log_next = np.full(A.shape[0], log_t)
    for k in range(1, A.shape[0]):
        cand = np.minimum(log_next[:k], log_hold[k])
        cand += log_w[:k]
        cand += log_a[k, :k]
        j = int(cand.argmax())
        if cand[j] > log_w[k]:
            log_w[k] = cand[j]
            jumps[k] = jumps[j] + 1
            log_next[k] = log_t - math.log(jumps[k] + 1)
    e = np.where(np.isfinite(log_w), np.rint(log_w / math.log(2.0)), -1000)
    return np.clip(e, -1000, 1000).astype(np.int64)


def _tril_matmul(X: np.ndarray, Y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """X @ Y into ``out`` for lower-triangular X and Y, testing the order on
    every product: three gemms from _SPLIT_ORDER up, one below."""
    n = X.shape[0]
    if n < _SPLIT_ORDER:
        return np.matmul(X, Y, out=out)
    h = n // 2
    np.matmul(X[:h, :h], Y[:h, :h], out=out[:h, :h])
    np.matmul(X[h:, h:], Y[h:, h:], out=out[h:, h:])
    np.matmul(X[h:], Y[:, :h], out=out[h:, :h])
    out[:h, h:] = 0.0
    return out


def reference_taylor_exp(B: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """e^B, or e^B w for a vector w, for a lower-triangular B by Taylor
    scaling and squaring.

    T_m(2^{-s} B) is evaluated by Paterson-Stockmeyer: the powers X^0..X^p
    are stacked, every p-term chunk sum comes from one product of the chunk
    coefficients with that stack, and Horner's rule in X^p joins the chunks.
    No linear system is solved, and every other product is triangular.
    The diagonal of T_m and of each square is reset to the exact e^{b_kk tau}
    (Al-Mohy & Higham, SIMAX 31, 2009).  Given w, the last
    r = min(s, _VECTOR_SQUARINGS) squarings are 2^r products of e^{2^{-r} B}
    with the vector instead (Al-Mohy & Higham, SIMAX 33, 2011).  Powers of
    two keep the scaling exact.  Entries that leave the double range come
    back non-finite.
    """
    norm = float(np.abs(B).sum(axis=0).max())
    if not math.isfinite(norm):
        raise _overflow("generator times t")
    index, s = _taylor_degree(norm)
    coef = _TAYLOR_COEF[index]
    p = coef.shape[1] - 1
    n = B.shape[0]
    idx = np.diag_indices(n)
    powers = np.empty((p + 1, n, n))
    powers[0] = 0.0
    powers[0][idx] = 1.0
    np.ldexp(B, -s, out=powers[1])
    for j in range(2, p + 1):
        _tril_matmul(powers[j - 1], powers[1], powers[j])
    chunks = (coef @ powers.reshape(p + 1, n * n)).reshape(-1, n, n)
    R, spare = chunks[-1], np.empty((n, n))
    for chunk in chunks[-2::-1]:
        R, spare = _tril_matmul(R, powers[p], spare), R
        R += chunk
    r = 0 if w is None else min(s, _VECTOR_SQUARINGS)
    # R approximates e^{2^{-s} B} and squaring i gives e^{2^{i+1-s} B}: each
    # diagonal is known exactly
    diagonals = np.exp(np.ldexp(np.diagonal(B), np.arange(-s, 1 - r)[:, None]))
    R[idx] = diagonals[0]
    for diagonal in diagonals[1:]:
        R, spare = _tril_matmul(R, R, spare), R
        R[idx] = diagonal
    if w is None:
        return R
    for _ in range(1 << r):
        w = R @ w
    return w


def reference_solve_lower(m: MatryoshkanMatrix, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution on numpy scalars: x_i = (b_i - L_i x) / d_i."""
    b = np.asarray(rhs, dtype=np.float64)
    L, d = m.dense(), m.diagonal()
    x = np.empty(m.order)
    for i in range(m.order):
        if d[i] == 0.0:
            raise SingularMatrix(i + 1)
        x[i] = (b[i] - np.dot(L[i, :i], x[:i])) / d[i]
    return x


def reference_euler_solve(system: CoefficientSystem, init: InitialMomentVector, cfg) -> MomentVector:
    """s <- s + step (T s + c) for orders >= 2, four numpy calls per step on
    the step as a Python float, and a range check after every 1,024th."""
    s = init.powers.copy()
    T, c = system.theta.dense(), system.theta0
    r = np.empty(system.order)
    h = float(cfg.step)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.steps):
            np.dot(T, s, out=r)
            r += c
            r *= h
            s += r
            if (k & 1023) == 0 and _overflow_order(s) is not None:
                break
    if _overflow_order(s) is not None:
        raise _overflow("Euler iteration")
    return MomentVector(s)


def reference_thinning_kernel(g, horizon: float):
    """The block kernel of thinning with three rate evaluations per
    iteration, each with its own sign checks, and the event kind from a
    stacked comparison."""
    a = g.coeffs
    if a[6] != 0.0 or a[7] != 0.0 or a[8] != 0.0:
        raise InvalidInput("generic simulation does not support diffusion terms")
    if a[9] < 0.0:
        raise InvalidInput(f"negative collapse rate {a[9]!r}")
    kinds = ((g.up, np.add, a[:2]), (g.down, np.subtract, a[2:4]), (g.collapse, np.multiply, a[9:]))
    events = [(k, law, act) for k, (law, act, rates) in enumerate(kinds) if any(rates)]

    def flow(x, s):
        if a[5] == 0.0:
            return x + a[4] * s
        a5s = a[5] * s
        return x * np.exp(a5s) + a[4] * np.expm1(a5s) / a[5]

    def edges(x):
        up, down = a[0] + a[1] * x, a[2] + a[3] * x
        if (up < 0.0).any() or (down < 0.0).any():
            state = x[np.argmin(np.minimum(up, down))]
            raise InvalidInput(f"negative jump rate reached at state {float(state)!r}")
        return up, up + down, up + down + a[9]

    def run(rng: np.random.Generator, m: int) -> np.ndarray:
        out = np.empty(m)
        live = np.arange(m)
        x, t = np.full(m, float(g.x0)), np.zeros(m)
        with np.errstate(all="ignore"):
            while live.size:
                window = horizon - t
                x_end = flow(x, window)
                bound = np.maximum(edges(x)[2], edges(x_end)[2])
                s = rng.standard_exponential(live.size) / bound
                peak = float(bound.max())
                if not math.isfinite(peak):
                    raise _overflow("jump-rate bound")
                _check_steps("expected thinning proposals", peak * horizon)
                done = ~(s < window)
                out[live[done]] = x_end[done]
                go = ~done
                live, s, bound = live[go], s[go], bound[go]
                x, t = flow(x[go], s), t[go] + s
                u = rng.random(live.size) * bound
                kind = (u >= np.array(edges(x))).sum(axis=0)
                for k, jumps, act in events:
                    hit = kind == k
                    if hit.any():
                        x[hit] = act(x[hit], jumps.sample(rng, int(hit.sum())))
        return out

    return run


def reference_build(spec, n: int) -> tuple[CoefficientSystem, InitialMomentVector]:
    """The hand-written system of spec's family."""
    return BUILDERS[type(spec).__name__](spec, n)


def systems_equal(left, right) -> bool:
    """Exact equality of matrix, shift vector and initial powers."""
    ls, li = left
    rs, ri = right
    return (
        np.array_equal(ls.theta.packed, rs.theta.packed)
        and np.array_equal(ls.theta0, rs.theta0)
        and np.array_equal(li.powers, ri.powers)
    )
