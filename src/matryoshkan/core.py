"""Nested lower-triangular matrix algebra.

The matrices handled here belong to nested sequences: the leading k-by-k
block of the order-n member is itself the order-k member.  Packed row-major
storage makes the nesting literal (the order-k block is a prefix of the
buffer), and every operation assembles its result one row at a time from the
leading block alone, so ``op(m).leading(k)`` equals ``op(m.leading(k))`` bit
for bit.  The inverse and the eigendecomposition extend row by row with one
vector-matrix product and one triangular substitution, O(n^2) per row.
Products take row i as a vector times the leading (i+1)-block, integer powers
are binary powering over that product, and row i of the scaled exponential is
row i of the dense Pade-13 exponential of the leading (i+1)-block.  The same
Pade kernel serves the moment engine's transient solution: ``_affine_flow``
applies the exponential of the augmented generator by graded scaling and
squaring.  None of these needs a distinct spectrum.

All values are immutable after construction and all operations are pure
functions, so instances may be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    InvalidDimension,
    InvalidInput,
    Overflow,
    SingularMatrix,
)

__all__ = [
    "DISTINCT_RTOL",
    "EigenPair",
    "MatryoshkanMatrix",
    "add",
    "eigendecompose",
    "exp_scaled",
    "extend",
    "inverse",
    "multiply",
    "power",
    "solve_lower",
]

# Two diagonal entries a, b count as coincident when
# |a - b| <= DISTINCT_RTOL * max(1, |a|, |b|).  The eigendecomposition divides
# by diagonal gaps and a repeated diagonal can be defective, so it fails
# loudly instead of returning noise.
DISTINCT_RTOL = 1e-9

# Pade-13 coefficients b_0..b_13 and the largest 1-norm of X at which r_13(X)
# meets e^X to unit roundoff (Higham, SIMAX 26, 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
_LOG_EPS = math.log(np.finfo(np.float64).eps)
# Grading exponents are clipped to +-_GRADE_EXP; a component no path reaches
# is identically zero and takes the lowest.
_GRADE_EXP = 1000


def _packed_size(order: int) -> int:
    return order * (order + 1) // 2


class MatryoshkanMatrix:
    """Lower-triangular matrix stored as packed row-major rows.

    Row i (0-based) occupies ``packed[i*(i+1)//2 : i*(i+1)//2 + i + 1]``, so
    the first k*(k+1)//2 entries are exactly the order-k leading block.
    Entries above the diagonal are not stored and export as exact 0.0.
    """

    __slots__ = ("order", "_data", "_dense", "_diag", "_coincident")

    def __init__(self, order: int, packed):
        if order < 1:
            raise InvalidDimension(f"order must be >= 1, got {order}")
        data = np.asarray(packed, dtype=np.float64).reshape(-1).copy()
        if data.shape[0] != _packed_size(order):
            raise InvalidDimension(
                f"order {order} needs {_packed_size(order)} packed entries, "
                f"got {data.shape[0]}"
            )
        data.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "_dense", None)
        object.__setattr__(self, "_diag", None)
        object.__setattr__(self, "_coincident", None)

    def __setattr__(self, name, value):
        raise AttributeError("MatryoshkanMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def initial(cls, value: float) -> "MatryoshkanMatrix":
        """The order-1 base case of a nested sequence."""
        return cls(1, [float(value)])

    @classmethod
    def identity(cls, order: int) -> "MatryoshkanMatrix":
        dense = np.eye(order)
        return cls.from_dense(dense)

    @classmethod
    def zeros(cls, order: int) -> "MatryoshkanMatrix":
        return cls(order, np.zeros(_packed_size(order)))

    @classmethod
    def from_diagonal(cls, values) -> "MatryoshkanMatrix":
        d = np.asarray(values, dtype=np.float64).reshape(-1)
        return cls.from_dense(np.diag(d))

    @classmethod
    def from_dense(cls, array) -> "MatryoshkanMatrix":
        a = np.asarray(array, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidDimension(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if n >= 2 and np.any(a[np.triu_indices(n, k=1)] != 0.0):
            raise InvalidDimension("entries above the diagonal must be exactly zero")
        packed = np.concatenate([a[i, : i + 1] for i in range(n)])
        return cls(n, packed)

    # -- accessors -------------------------------------------------------

    @property
    def packed(self) -> np.ndarray:
        """Read-only packed storage (row-major lower triangle)."""
        return self._data

    def dense(self) -> np.ndarray:
        """Read-only dense export with exact zeros above the diagonal."""
        if self._dense is None:
            n = self.order
            out = np.zeros((n, n))
            pos = 0
            for i in range(n):
                out[i, : i + 1] = self._data[pos : pos + i + 1]
                pos += i + 1
            out.setflags(write=False)
            object.__setattr__(self, "_dense", out)
        return self._dense

    def diagonal(self) -> np.ndarray:
        """The diagonal entries, which are also the eigenvalues."""
        if self._diag is None:
            idx = np.arange(1, self.order + 1)
            d = self._data[idx * (idx + 1) // 2 - 1].copy()
            d.setflags(write=False)
            object.__setattr__(self, "_diag", d)
        return self._diag

    def sub_row(self, i: int) -> np.ndarray:
        """Entries of 0-based row i strictly left of the diagonal."""
        if not 0 <= i < self.order:
            raise InvalidDimension(f"row {i} out of range for order {self.order}")
        start = i * (i + 1) // 2
        return self._data[start : start + i].copy()

    def leading(self, k: int) -> "MatryoshkanMatrix":
        """The order-k leading block, a prefix of the packed storage."""
        if not 1 <= k <= self.order:
            raise InvalidDimension(f"leading block order {k} out of range")
        return MatryoshkanMatrix(k, self._data[: _packed_size(k)])

    @property
    def is_invertible(self) -> bool:
        return bool(np.all(self.diagonal() != 0.0))

    @property
    def has_distinct_spectrum(self) -> bool:
        return not self.coincident_pairs()

    def coincident_pairs(self) -> tuple[tuple[int, int], ...]:
        """1-based diagonal index pairs that coincide under DISTINCT_RTOL."""
        if self._coincident is None:
            d = self.diagonal()
            a = np.abs(d)
            tol = DISTINCT_RTOL * np.maximum(1.0, np.maximum(a[:, None], a[None, :]))
            hit = np.triu(np.abs(d[:, None] - d[None, :]) <= tol, k=1)
            i, j = np.nonzero(hit)  # row-major: ordered by i, then j
            pairs = tuple(zip((i + 1).tolist(), (j + 1).tolist()))
            object.__setattr__(self, "_coincident", pairs)
        return self._coincident

    def __repr__(self) -> str:
        return f"MatryoshkanMatrix(order={self.order})"


@dataclass(frozen=True)
class EigenPair:
    """Eigendecomposition M U = U diag(D) with U lower unitriangular."""

    U: MatryoshkanMatrix
    D: np.ndarray


# -- helpers --------------------------------------------------------------


def _require_same_order(x: MatryoshkanMatrix, y: MatryoshkanMatrix) -> None:
    if x.order != y.order:
        raise InvalidDimension(f"order mismatch: {x.order} vs {y.order}")


def _pade_exp(B: np.ndarray) -> np.ndarray:
    """e^B for a lower-triangular B by Pade-13 scaling and squaring.

    B is scaled by 2^{-s} under theta_13, the lower-triangular Pade
    denominator is solved index-reversed (upper triangular, so partial
    pivoting never swaps a row), and the diagonal is reset to the exact
    e^{b_kk tau} after each squaring (Al-Mohy & Higham, SIMAX 31, 2009).
    Powers of two keep the scaling exact.  Entries that leave the double
    range come back non-finite.
    """
    norm = float(np.abs(B).sum(axis=0).max())
    if not math.isfinite(norm):
        raise Overflow("generator entries times t exceed the double-precision range")
    s = 0 if norm <= _THETA13 else math.ceil(math.log2(norm / _THETA13))
    X = np.ldexp(B, -s)
    b = _PADE13
    eye = np.eye(B.shape[0])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2) + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2) + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye
    R = np.linalg.solve((V - U)[::-1, ::-1], (V + U)[::-1])[::-1]
    diag = np.diagonal(B)
    idx = np.diag_indices(B.shape[0])
    for i in range(s):
        R = R @ R
        R[idx] = np.exp(np.ldexp(diag, i + 1 - s))
    return R


def solve_lower(m: MatryoshkanMatrix, rhs, shift: float = 0.0) -> np.ndarray:
    """Solve (M - shift I) x = rhs by forward substitution."""
    b = np.asarray(rhs, dtype=np.float64).reshape(-1)
    if b.shape[0] != m.order:
        raise InvalidDimension(f"rhs length {b.shape[0]} != order {m.order}")
    L = m.dense()
    d = m.diagonal()
    x = np.empty(m.order)
    for i in range(m.order):
        piv = d[i] - shift
        if piv == 0.0:
            raise SingularMatrix(i + 1)
        x[i] = (b[i] - np.dot(L[i, :i], x[:i])) / piv
    return x


# -- operations -----------------------------------------------------------


def extend(
    base: MatryoshkanMatrix | None,
    row,
    diag: float,
) -> MatryoshkanMatrix:
    """Append one row to a nested matrix, growing its order by one.

    With ``base=None`` and an empty row this is the order-1 base case.
    """
    r = np.asarray(row, dtype=np.float64).reshape(-1)
    if base is None:
        if r.shape[0] != 0:
            raise InvalidDimension("base case takes an empty row")
        return MatryoshkanMatrix.initial(diag)
    if r.shape[0] != base.order:
        raise InvalidDimension(
            f"row length {r.shape[0]} != base order {base.order}"
        )
    packed = np.concatenate([base.packed, r, [float(diag)]])
    return MatryoshkanMatrix(base.order + 1, packed)


def add(x: MatryoshkanMatrix, y: MatryoshkanMatrix) -> MatryoshkanMatrix:
    """Entrywise sum; nesting and triangularity are preserved by storage."""
    _require_same_order(x, y)
    return MatryoshkanMatrix(x.order, x.packed + y.packed)


def multiply(x: MatryoshkanMatrix, y: MatryoshkanMatrix) -> MatryoshkanMatrix:
    """Triangular matrix product, row by row from the leading blocks.

    Row i is x_i times the leading (i+1)-block of y, with shapes that depend
    on i alone, so the product nests bit for bit; one dense BLAS product of
    the whole matrices does not, because its blocking depends on the order.
    """
    _require_same_order(x, y)
    X = x.dense()
    Y = y.dense()
    packed = np.concatenate([X[i, : i + 1] @ Y[: i + 1, : i + 1] for i in range(x.order)])
    return MatryoshkanMatrix(x.order, packed)


def inverse(m: MatryoshkanMatrix) -> MatryoshkanMatrix:
    """Inverse built row by row from the leading-block inverse.

    The trailing row of the order-k inverse is -(1/d_k) m_k W_{k-1} with
    W_{k-1} the inverse already assembled, and 1/d_k on the diagonal.  No
    dense general-purpose inversion is involved.
    """
    d = m.diagonal()
    zero = np.flatnonzero(d == 0.0)
    if zero.size:
        raise SingularMatrix(int(zero[0]) + 1)
    n = m.order
    L = m.dense()
    W = np.zeros((n, n))
    W[0, 0] = 1.0 / d[0]
    for k in range(1, n):
        W[k, :k] = -(L[k, :k] @ W[:k, :k]) / d[k]
        W[k, k] = 1.0 / d[k]
    return MatryoshkanMatrix.from_dense(W)


def power(m: MatryoshkanMatrix, k: int) -> MatryoshkanMatrix:
    """Integer power M^k by binary powering over ``multiply``.

    Every product is row-nested, so the power is too; repeated diagonals
    need no special care.

    Raises:
        InvalidDimension: k is negative.
        Overflow: an entry left the double-precision range.
    """
    if k < 0:
        raise InvalidDimension(f"exponent must be >= 0, got {k}")
    if k == 0:
        return MatryoshkanMatrix.identity(m.order)
    result = None
    base = m
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if k & 1:
                result = base if result is None else multiply(result, base)
            k >>= 1
            if not k:
                break
            base = multiply(base, base)
    if not np.all(np.isfinite(result.packed)):
        raise Overflow("matrix power exceeded the double-precision range")
    return result


def exp_scaled(m: MatryoshkanMatrix, t: float) -> MatryoshkanMatrix:
    """Matrix exponential e^{M t}, one row per leading block.

    Row i is row i of the Pade-13 exponential of the leading (i+1)-block of
    M t, so it depends on that block alone and the result nests bit for
    bit; the diagonal is the exact (e^{d_1 t}, ..., e^{d_n t}).  Repeated
    diagonals need no special care.  Row i costs one dense (i+1)-order
    exponential, O(n^4 / 4) in all.

    Raises:
        InvalidInput: t is not finite.
        Overflow: an entry left the double-precision range.
    """
    t = float(t)
    if not math.isfinite(t):
        raise InvalidInput(f"t must be finite, got {t}")
    n = m.order
    L = m.dense()
    E = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            E[i, : i + 1] = _pade_exp(L[: i + 1, : i + 1] * t)[i]
        E[np.diag_indices(n)] = np.exp(m.diagonal() * t)
    if not np.all(np.isfinite(E)):
        raise Overflow("matrix exponential exceeded the double-precision range")
    return MatryoshkanMatrix.from_dense(E)


def _grading(A: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Power-of-two exponents e_k of a diagonal similarity for e^{A t} v.

    Component k is scaled by its heaviest generator path from row 0 or from
    v, the p-th jump into component k weighing |a_kj| min(t/p, 1/|a_kk|):
    within time t a path of p jumps carries t^p/p!, and a decaying component
    holds at most 1/|a_kk| of its inflow.  Each component keeps only its
    heaviest path, so row k reads rows <= k alone, and the pass works in
    logarithms so that no weight underflows.
    """
    with np.errstate(divide="ignore"):
        log_a = np.log(np.abs(A))
        log_w = np.log(np.abs(v))
        log_hold = -np.log(np.abs(np.diagonal(A)))
    log_t = math.log(t)
    jumps = [0] * A.shape[0]
    log_next = np.full(A.shape[0], log_t)  # log(t / (jumps + 1)), the next jump's time factor
    for k in range(1, A.shape[0]):
        cand = np.minimum(log_next[:k], log_hold[k])
        cand += log_w[:k]
        cand += log_a[k, :k]
        j = int(cand.argmax())
        if cand[j] > log_w[k]:
            log_w[k] = cand[j]
            jumps[k] = jumps[j] + 1
            log_next[k] = log_t - math.log(jumps[k] + 1)
    e = np.where(np.isfinite(log_w), np.rint(log_w / math.log(2.0)), -_GRADE_EXP)
    return np.clip(e, -_GRADE_EXP, _GRADE_EXP).astype(np.int64)


def _affine_flow(m: MatryoshkanMatrix, shift: np.ndarray, init: np.ndarray, t: float) -> np.ndarray:
    """s(t) for s' = M s + shift, s(0) = init, with t > 0.

    s(t) is rows 1..n of e^{A t} [1; init] for the augmented generator
    A = [[0, 0], [shift, M]] (Van Loan, IEEE TAC 23, 1978), which needs no
    resolvent and no distinct spectrum.  The exponential is graded: the
    grading D = diag(2^e) makes every component of D^{-1} e^{At} [1; init] of
    order one, and ``_pade_exp`` exponentiates B = D^{-1} A t D.  Powers of
    two keep the grading exact.

    Once every e^{d_k t} is below machine epsilon, the origin moves to the
    stationary point s_inf, so the flow carries only the small remainder
    init - s_inf and near-stationary moments stay a smooth function of t.
    Entries that leave the double range come back non-finite.
    """
    n = m.order
    with np.errstate(over="ignore", invalid="ignore"):
        anchor = None
        if np.all(m.diagonal() * t <= _LOG_EPS):
            anchor = solve_lower(m, -shift)
            shift = m.dense() @ anchor + shift
            init = init - anchor
        A = np.zeros((n + 1, n + 1))
        A[1:, 0] = shift
        A[1:, 1:] = m.dense()
        v = np.concatenate(([1.0], init))
        e = _grading(A, v, t)
        R = _pade_exp(np.ldexp(A * t, e[None, :] - e[:, None]))
        flow = np.ldexp(R @ np.ldexp(v, -e), e)[1:]
        return flow if anchor is None else anchor + flow


def eigendecompose(m: MatryoshkanMatrix) -> EigenPair:
    """Eigenvectors by the trailing-row recursion; eigenvalues are the diagonal.

    Balancing row n of M U = U D gives m_n U_{n-1} = u_n (D_{n-1} - d_n I)
    for the trailing row u_n, so u_n = m_n U_{n-1} (D_{n-1} - d_n I)^{-1}
    with a 1 on the diagonal; the shifted diagonal inverts entrywise.
    Requires a distinct spectrum, since a repeated diagonal can be defective.
    """
    pairs = m.coincident_pairs()
    if pairs:
        raise DegenerateSpectrum(pairs)
    d = m.diagonal()
    n = m.order
    L = m.dense()
    U = np.zeros((n, n))
    U[0, 0] = 1.0
    for i in range(1, n):
        U[i, :i] = (L[i, :i] @ U[:i, :i]) / (d[:i] - d[i])
        U[i, i] = 1.0
    return EigenPair(U=MatryoshkanMatrix.from_dense(U), D=d.copy())
