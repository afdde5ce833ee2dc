"""Nested lower-triangular matrix algebra.

The matrices handled here belong to nested sequences: the leading k-by-k
block of the order-n member is itself the order-k member.  Each matrix holds
its dense lower triangle with exact zeros above the diagonal, so the order-k
member is its top-left k-by-k block, and every operation assembles its
result one row at a time from the leading block alone, so
``op(m).leading(k)`` equals ``op(m.leading(k))`` bit for bit.  A row of the
inverse or of the eigenvectors costs one vector times the leading block
built so far and one division, O(n^2) per row.
Products take row i as a vector times the leading (i+1)-block, integer powers
are binary powering over that product, and row i of the scaled exponential is
row i of the Taylor exponential of the leading (i+1)-block, evaluated without
a linear solve.  None of these needs a distinct spectrum.  A result that
leaves the double range raises Overflow naming its first order.

All values are immutable after construction and all operations are pure
functions, so instances may be shared freely across threads.  The Taylor
kernel reuses one scratch buffer per thread, grown to the largest workspace
that thread has needed, so operations stay pure and thread-safe and no
result is a view of it.
"""

from __future__ import annotations

import math
import operator
import threading
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

# Taylor degrees m = p q and the largest 1-norm theta_m of X at which the
# truncated series T_m(X) is e^(X + dX) with ||dX|| <= 2^-53 ||X|| (Al-Mohy &
# Higham, SIMAX 33, 2011, Table 3.1).  Paterson-Stockmeyer evaluates T_m in
# p + q - 2 products (Paterson & Stockmeyer, SIAM J. Comput. 2, 1973).
_TAYLOR_DEGREES = (
    # (p, q, theta_m)
    (2, 1, 2.580956802971767e-08),
    (2, 2, 3.397168839976962e-04),
    (3, 2, 9.065656407595102e-03),
    (3, 3, 8.957760203223343e-02),
    (4, 3, 2.996158913811581e-01),
    (4, 4, 7.802874256626574e-01),
    (5, 4, 1.438252596804337e+00),
    (5, 5, 2.428582524442826e+00),
    (6, 5, 3.539666348743689e+00),
)


def _taylor_coefficients(p: int, q: int) -> np.ndarray:
    """Row k holds the coefficients of chunk k of T_pq over X^0..X^p."""
    coef = np.zeros((q, p + 1))
    for k in range(q):
        for j in range(p + 1 if k == q - 1 else p):
            coef[k, j] = 1.0 / math.factorial(k * p + j)
    coef.setflags(write=False)
    return coef


_TAYLOR_COEF = tuple(_taylor_coefficients(p, q) for p, q, _ in _TAYLOR_DEGREES)

# Products of lower-triangular matrices from this order up skip the zero
# upper-right block; below it the three smaller calls save no time.
_SPLIT_ORDER = 64
# Squarings that e^B w finishes on the vector: 2^r matrix-vector products
# replace the last r squarings.  r = 4 doubled the worst transient error.
_VECTOR_SQUARINGS = 3
# The most Euler steps, Euler-Maruyama steps or expected thinning proposals a
# path may take; a run past it would not end in any useful time.
_MAX_STEPS = 1e9
# The most float64 entries numpy can address in one array, and the largest
# order whose augmented (n+1)-by-(n+1) system fits in them: a larger size is
# an input error, not numpy's "array is too big".
_MAX_ENTRIES = np.iinfo(np.intp).max // 8
_MAX_ORDER = math.isqrt(_MAX_ENTRIES) - 1
# Each thread's Taylor workspace, kept for the thread's life: a buffer freed
# after every call would come back from the OS as fresh pages on the next one.
_SCRATCH = threading.local()


def _bounded(what: str, x, low, high, above: bool, error):
    """x, or ``error`` naming the bound it breaks: at least ``low`` (above it
    when ``above``) and at most ``high``, where each is given."""
    if low is not None and (x <= low if above else x < low):
        raise error(f"{what} must be {'>' if above else '>='} {low}, got {x!r}")
    if high is not None and x > high:
        raise error(f"{what} must be <= {high}, got {x!r}")
    return x


def _integer(what: str, value, low=None, high=None, error=InvalidInput) -> int:
    """``value`` as a Python int in bounds; a numpy integer is one, a float
    is not.  Every rejection reads ``<what> must be <rule>, got <value>``."""
    try:
        k = operator.index(value)
    except TypeError:
        raise InvalidInput(f"{what} must be an integer, got {value!r}") from None
    return _bounded(what, k, low, high, False, error)


def _real(what: str, value, low=None, high=None, above=False, error=InvalidInput) -> float:
    """``value`` as a finite float in bounds, worded as by ``_integer``; a
    string is refused, and NaN, which fails no bound check, is refused first."""
    try:
        if isinstance(value, (str, bytes)):
            raise TypeError
        x = float(value)
    except OverflowError:  # an int past the double range
        x = math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise InvalidInput(f"{what} must be a real number, got {value!r}") from None
    if not math.isfinite(x):
        raise InvalidInput(f"{what} must be finite, got {x!r}")
    return _bounded(what, x, low, high, above, error)


def _reals(what: str, values) -> tuple[float, ...]:
    """Each entry of the sequence ``values`` through ``_real``, named
    ``<what>[i]``; a string is a sequence whose entries are refused."""
    try:
        entries = enumerate(values)
    except TypeError:
        raise InvalidInput(f"{what} must be a sequence of reals, got {values!r}") from None
    return tuple(_real(f"{what}[{i}]", v) for i, v in entries)


def _check_order(order) -> int:
    return _integer("order", order, 1, _MAX_ORDER, InvalidDimension)


def _check_steps(what: str, count: float) -> None:
    if count > _MAX_STEPS:
        raise InvalidInput(f"{count:.3g} {what} per path exceed the limit of {_MAX_STEPS:.0e}")


_SHAPES = ("a real number", "a vector", "a square matrix")


def _same_order(what: str, got: int, order: int) -> None:
    """The one order check: ``<what> must have order <order>, got <got>``."""
    if got != order:
        raise InvalidDimension(f"{what} must have order {order}, got {got}")


def _shaped(what: str, values, ndim: int, order=None, nan: bool = True) -> np.ndarray:
    """``values`` as float64: a real number (``ndim`` 0), a vector (1) or a
    square matrix (2), of ``order`` where given, and never flattened.
    Non-numbers are refused as by ``_real``, and NaN unless ``nan``: a NaN
    that enters a matrix or a sample would read later as Overflow.  Only
    ``theta0`` and ``rhs`` take NaN, since ``build``'s own inf - inf in a
    shift must still read as Overflow.  Infinities pass, for the range
    checks to report."""
    a = np.asarray(values)
    if a.dtype.kind not in "biuf" or (not nan and np.isnan(a).any()):
        raise InvalidInput(f"{what} must be real numbers, got {values!r}")
    if a.ndim != ndim or (ndim == 2 and a.shape[0] != a.shape[1]):
        raise InvalidDimension(f"{what} must be {_SHAPES[ndim]}, got shape {a.shape}")
    if order is not None:
        _same_order(what, a.shape[0], order)
    return a.astype(np.float64, copy=False)


def _typed(what: str, value, kind: type):
    """``value`` if it is a ``kind``; else InvalidInput
    ``<what> must be a <kind>, got <type>``, in place of the AttributeError
    that the first attribute read would raise."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise InvalidInput(f"{what} must be {article} {kind.__name__}, got {type(value).__name__}")
    return value


def _frozen(what: str, values, order=None, nan: bool = True) -> np.ndarray:
    """A read-only float64 copy of the vector ``values``, checked by ``_shaped``."""
    out = _shaped(what, values, 1, order, nan).copy()
    out.setflags(write=False)
    return out


class MatryoshkanMatrix:
    """Lower-triangular matrix held as one read-only dense n-by-n array.

    ``MatryoshkanMatrix(array)`` takes a square array with exact zeros above
    the diagonal and stores them as +0.0, so the order-k leading block is the
    top-left k-by-k block.  ``packed`` exports the lower triangle row by row:
    row i (0-based) is ``packed[i*(i+1)//2 : i*(i+1)//2 + i + 1]``.
    """

    __slots__ = ("order", "_data")

    def __init__(self, array):
        a = _shaped("array", array, 2, nan=False)
        _check_order(a.shape[0])
        if np.triu(a, 1).any():
            raise InvalidDimension("entries above the diagonal must be exactly zero")
        # np.tril writes +0.0 above the diagonal, where a may hold -0.0
        self._take(np.tril(a))

    @classmethod
    def _own(cls, dense: np.ndarray) -> "MatryoshkanMatrix":
        """Wrap a fresh lower-triangular array with exact +0.0 above the
        diagonal, frozen in place, so no caller may keep it; a strided view
        is copied, since products with it run slower."""
        m = object.__new__(cls)
        m._take(dense)
        return m

    def _take(self, dense: np.ndarray) -> None:
        dense = np.ascontiguousarray(dense)
        dense.setflags(write=False)
        object.__setattr__(self, "order", dense.shape[0])
        object.__setattr__(self, "_data", dense)

    def __setattr__(self, name, value):
        raise AttributeError("MatryoshkanMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_diagonal(cls, values) -> "MatryoshkanMatrix":
        d = _shaped("values", values, 1, nan=False)
        _check_order(d.shape[0])
        return cls._own(np.diag(d))

    # -- accessors -------------------------------------------------------

    @property
    def packed(self) -> np.ndarray:
        """Read-only packed export (row-major lower triangle), gathered on
        each call."""
        out = self._data[np.tril_indices(self.order)]
        out.setflags(write=False)
        return out

    def dense(self) -> np.ndarray:
        """The read-only dense storage, exact +0.0 above the diagonal."""
        return self._data

    def diagonal(self) -> np.ndarray:
        """The diagonal entries, which are also the eigenvalues (read-only)."""
        return self._data.diagonal()

    def leading(self, k: int) -> "MatryoshkanMatrix":
        """The order-k leading block, a copy of the top-left k-by-k block."""
        k = _integer("k", k, 1, self.order, InvalidDimension)
        return MatryoshkanMatrix._own(self._data[:k, :k].copy())

    def coincident_pairs(self) -> tuple[tuple[int, int], ...]:
        """1-based diagonal index pairs that coincide under DISTINCT_RTOL."""
        d = self.diagonal()
        a = np.abs(d)
        tol = DISTINCT_RTOL * np.maximum(1.0, np.maximum(a[:, None], a[None, :]))
        hit = np.triu(np.abs(d[:, None] - d[None, :]) <= tol, k=1)
        i, j = np.nonzero(hit)  # row-major: ordered by i, then j
        return tuple(zip((i + 1).tolist(), (j + 1).tolist()))

    def __repr__(self) -> str:
        return f"MatryoshkanMatrix(order={self.order})"


@dataclass(frozen=True)
class EigenPair:
    """Eigendecomposition M U = U diag(D) with U lower unitriangular."""

    U: MatryoshkanMatrix
    D: np.ndarray


# -- helpers --------------------------------------------------------------


def _taylor_degree(norm: float) -> tuple[int, int]:
    """Index into _TAYLOR_DEGREES and squaring count s for 1-norm ``norm``.

    Each degree needs s = ceil(log2(norm / theta_m)) squarings; the pair with
    the fewest products plus squarings wins, and on a tie the fewer squarings.
    """
    options = []
    for index, (p, q, theta) in enumerate(_TAYLOR_DEGREES):
        ratio = norm / theta
        if ratio == math.inf:
            # never the cheapest: the last degree's ratio is always finite,
            # and there it costs at least 6 products plus squarings less
            continue
        s = 0 if norm <= theta else math.ceil(math.log2(ratio))
        options.append((p + q - 2 + s, s, index))
    _, s, index = min(options)
    return index, s


def _tril_matmul(n: int):
    """The product ``matmul(X, Y, out=out)`` of n-by-n lower-triangular X and
    Y into ``out``, which aliases neither, chosen once per order.

    Below _SPLIT_ORDER it is np.matmul.  From there it is three gemms, the two
    diagonal blocks and the lower-left block X[h:] @ Y[:, :h], and the strict
    upper triangle of ``out`` is exactly 0.0: half the flops of a dense
    product.
    """
    if n < _SPLIT_ORDER:
        return np.matmul
    h = n // 2

    def split(X: np.ndarray, Y: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.matmul(X[:h, :h], Y[:h, :h], out=out[:h, :h])
        np.matmul(X[h:, h:], Y[h:, h:], out=out[h:, h:])
        np.matmul(X[h:], Y[:, :h], out=out[h:, :h])
        out[:h, h:] = 0.0
        return out

    return split


def _taylor_exp(B: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
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
    back non-finite.  The stack, the chunk sums and a spare product live in
    this thread's scratch buffer, which grows to the largest (p + q + 2) n^2
    entries its thread has needed and holds whatever the last call left;
    e^B comes back as a copy.  The product is chosen once per call
    (``_tril_matmul``), the kernel's only test of the order.
    """
    norm = float(np.maximum.reduce(np.add.reduce(np.abs(B), axis=0)))
    if not math.isfinite(norm):
        raise _overflow("generator times t")
    index, s = _taylor_degree(norm)
    coef = _TAYLOR_COEF[index]
    q, p = coef.shape[0], coef.shape[1] - 1
    n = B.shape[0]
    matmul = _tril_matmul(n)
    size = (p + q + 2) * n * n
    buffer = getattr(_SCRATCH, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _SCRATCH.buffer = np.empty(size)
    work = buffer[:size].reshape(p + q + 2, n, n)
    powers, chunks, spare = work[: p + 1], work[p + 1 : -1], work[-1]
    powers[0].fill(0.0)
    powers[0].reshape(-1)[:: n + 1] = 1.0
    X = X1 = np.ldexp(B, -s, out=powers[1])
    for power in powers[2:]:
        X = matmul(X, X1, out=power)
    np.matmul(coef, powers.reshape(p + 1, n * n), out=chunks.reshape(q, n * n))
    R = chunks[-1]
    for chunk in chunks[-2::-1]:
        R, spare = matmul(R, X, out=spare), R
        R += chunk
    r = 0 if w is None else min(s, _VECTOR_SQUARINGS)
    # R approximates e^{2^{-s} B} and squaring i gives e^{2^{i+1-s} B}: each
    # diagonal is known exactly
    diagonals = np.exp(np.ldexp(B.diagonal(), np.arange(-s, 1 - r)[:, None]))
    R.reshape(-1)[:: n + 1] = diagonals[0]
    for diagonal in diagonals[1:]:
        R, spare = matmul(R, R, out=spare), R
        R.reshape(-1)[:: n + 1] = diagonal
    if w is None:
        return R.copy()
    for _ in range(1 << r):
        w = R @ w
    return w


def solve_lower(m: MatryoshkanMatrix, rhs) -> np.ndarray:
    """Solve M x = rhs by forward substitution.

    Raises:
        InvalidInput: rhs holds entries that are not numbers.
        InvalidDimension: rhs is not a vector of the matrix's order.
        SingularMatrix: a diagonal entry is zero.
    """
    b = _shaped("rhs", rhs, 1, _typed("m", m, MatryoshkanMatrix).order)
    L = m.dense()
    x = np.empty(m.order)
    for i, (b_i, d_i) in enumerate(zip(b.tolist(), m.diagonal().tolist())):
        if d_i == 0.0:
            raise SingularMatrix(i + 1)
        x[i] = (b_i - float(np.dot(L[i, :i], x[:i]))) / d_i
    return x


def _trailing_rows(L: np.ndarray, den: np.ndarray, diag) -> np.ndarray:
    """X with diagonal ``diag`` and, left of it, row i = (L[i, :i] @ X[:i, :i])
    / den[i, :i]: one product of width i, so X nests bit for bit.  A wider
    product changes the bits: BLAS rounding depends on the column count."""
    n = L.shape[0]
    X = np.zeros((n, n))
    X[np.diag_indices(n)] = diag
    for i in range(1, n):
        X[i, :i] = (L[i, :i] @ X[:i, :i]) / den[i, :i]
    return X


def _product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y for lower-triangular X and Y, row i as X[i] times the leading
    (i+1)-block of Y."""
    Z = np.zeros_like(X)
    for i in range(X.shape[0]):
        Z[i, : i + 1] = X[i, : i + 1] @ Y[: i + 1, : i + 1]
    return Z


def _overflow(what: str, order: int | None = None) -> Overflow:
    """The one Overflow wording, naming the first order where one can be."""
    at = "" if order is None else f" of order {order}"
    return Overflow(f"{what}{at} leaves the double range")


def _overflow_order(values: np.ndarray) -> int | None:
    """The first order that is not a finite double (entry k of a vector, row k
    of a matrix), or None; an empty vector has none."""
    finite = np.isfinite(values)
    finite = finite.all(axis=1) if finite.ndim == 2 else finite
    return None if finite.all() else int(np.argmin(finite)) + 1


def _in_range(what: str, values: np.ndarray) -> np.ndarray:
    """The values, or Overflow naming the first order that overflows."""
    k = _overflow_order(values)
    if k is not None:
        raise _overflow(what, k)
    return values


def _checked(what: str, compute) -> MatryoshkanMatrix:
    """The lower-triangular ``compute()``, evaluated without numpy warnings,
    and in range; row i depends on the leading (i+1)-block alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        return MatryoshkanMatrix._own(_in_range(what, compute()))


# -- operations -----------------------------------------------------------


def extend(
    base: MatryoshkanMatrix | None,
    row,
    diag: float,
) -> MatryoshkanMatrix:
    """Append one row to a nested matrix, growing its order by one.

    With ``base=None`` and an empty row this is the order-1 base case.
    """
    n = 0 if base is None else _typed("base", base, MatryoshkanMatrix).order
    r, d = _shaped("row", row, 1, n, nan=False), _shaped("diag", diag, 0, nan=False)
    X = np.zeros((n + 1, n + 1))
    if base is not None:
        X[:n, :n] = base.dense()
    X[n, :n] = r
    X[n, n] = d
    return MatryoshkanMatrix._own(X)


def add(x: MatryoshkanMatrix, y: MatryoshkanMatrix) -> MatryoshkanMatrix:
    """Entrywise sum; 0.0 + 0.0 keeps the upper triangle exact zeros."""
    _same_order("y", _typed("y", y, MatryoshkanMatrix).order, _typed("x", x, MatryoshkanMatrix).order)
    return _checked("matrix sum", lambda: x.dense() + y.dense())


def multiply(x: MatryoshkanMatrix, y: MatryoshkanMatrix) -> MatryoshkanMatrix:
    """Triangular matrix product, row by row from the leading blocks.

    Row i is x_i times the leading (i+1)-block of y, with shapes that depend
    on i alone, so the product nests bit for bit; one dense BLAS product of
    the whole matrices does not, because its blocking depends on the order.
    """
    _same_order("y", _typed("y", y, MatryoshkanMatrix).order, _typed("x", x, MatryoshkanMatrix).order)
    return _checked("matrix product", lambda: _product(x.dense(), y.dense()))


def inverse(m: MatryoshkanMatrix) -> MatryoshkanMatrix:
    """Inverse built row by row from the leading-block inverse.

    The trailing row of the order-k inverse is m_k W_{k-1} / (-d_k) with
    W_{k-1} the inverse already assembled, and 1/d_k on the diagonal.  No
    dense general-purpose inversion is involved.
    """
    d = _typed("m", m, MatryoshkanMatrix).diagonal()
    zero = np.flatnonzero(d == 0.0)
    if zero.size:
        raise SingularMatrix(int(zero[0]) + 1)
    den = np.broadcast_to(-d[:, None], (m.order, m.order))
    return _checked("matrix inverse", lambda: _trailing_rows(m.dense(), den, 1.0 / d))


def power(m: MatryoshkanMatrix, k: int) -> MatryoshkanMatrix:
    """Integer power M^k by binary powering over the row-wise product.

    Every product is row-nested, so the power is too; repeated diagonals
    need no special care.

    Raises:
        InvalidDimension: k is negative.
    """
    _typed("m", m, MatryoshkanMatrix)
    k = _integer("k", k, 0, error=InvalidDimension)
    if k == 0:
        return MatryoshkanMatrix.from_diagonal(np.ones(m.order))

    def powering() -> np.ndarray:
        result, base, e = None, m.dense(), k
        while True:
            if e & 1:
                result = base if result is None else _product(result, base)
            e >>= 1
            if not e:
                return result
            base = _product(base, base)

    return _checked("matrix power", powering)


def exp_scaled(m: MatryoshkanMatrix, t: float) -> MatryoshkanMatrix:
    """Matrix exponential e^{M t}, one row per leading block.

    Row i is row i of the Taylor exponential (``_taylor_exp``) of the leading
    (i+1)-block of M t, so it depends on that block alone and the result
    nests bit for bit; the diagonal is the exact (e^{d_1 t}, ..., e^{d_n t}).
    Repeated diagonals need no special care.  Row i costs one
    (i+1)-order exponential, O(n^4 / 4) in all, and no linear solve.

    Raises:
        InvalidInput: t is not finite.
    """
    L = _typed("m", m, MatryoshkanMatrix).dense()
    t = _real("t", t)

    def rows() -> np.ndarray:
        E = np.zeros_like(L)
        for i in range(m.order):
            E[i, : i + 1] = _taylor_exp(L[: i + 1, : i + 1] * t)[i]
        return E

    return _checked("matrix exponential", rows)


def eigendecompose(m: MatryoshkanMatrix) -> EigenPair:
    """Eigenvectors by the trailing-row recursion; eigenvalues are the diagonal.

    Balancing row n of M U = U D gives m_n U_{n-1} = u_n (D_{n-1} - d_n I)
    for the trailing row u_n, so u_n = m_n U_{n-1} (D_{n-1} - d_n I)^{-1}
    with a 1 on the diagonal; the shifted diagonal inverts entrywise.
    Requires a distinct spectrum, since a repeated diagonal can be defective.
    """
    pairs = _typed("m", m, MatryoshkanMatrix).coincident_pairs()
    if pairs:
        raise DegenerateSpectrum(pairs)
    d = m.diagonal()
    U = _checked("eigenvector matrix", lambda: _trailing_rows(m.dense(), d - d[:, None], 1.0))
    return EigenPair(U=U, D=d.copy())
