"""Typed failures and warnings shared across the library."""

from __future__ import annotations

__all__ = [
    "DegenerateSpectrum", "EstimatePrecisionWarning", "InsufficientMoments", "InvalidDimension",
    "InvalidInput", "MatryoshkanError", "MomentSequenceWarning", "NonStationary", "Overflow",
    "SingularMatrix", "UnsupportedGamma",
]


class MatryoshkanError(Exception):
    """Base class for all library-specific failures."""


class InvalidInput(MatryoshkanError, ValueError):
    """A parameter value is outside the supported domain."""


class InvalidDimension(InvalidInput):
    """An order, a shape, a leading block or an exponent breaks its rule."""


class SingularMatrix(MatryoshkanError):
    """A diagonal entry is exactly zero, so a triangular solve cannot proceed.

    ``index`` is the 1-based position of the offending diagonal entry.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"zero diagonal entry at position {index}")


class DegenerateSpectrum(MatryoshkanError):
    """Two diagonal entries coincide, so the eigendecomposition fails.

    ``pairs`` lists the offending (i, j) 1-based diagonal positions.
    """

    def __init__(self, pairs):
        self.pairs = tuple(tuple(p) for p in pairs)
        shown = ", ".join(f"({i},{j})" for i, j in self.pairs[:4])
        super().__init__(f"coincident diagonal entries at positions {shown}")


class Overflow(MatryoshkanError):
    """A computed value left the double-precision range."""


class NonStationary(MatryoshkanError):
    """A steady state was requested for a system with a nonnegative diagonal."""


class UnsupportedGamma(InvalidInput):
    """The diffusion exponent is outside the range handled in closed form."""


class InsufficientMoments(InvalidInput):
    """A jump-size moment of the requested order is not available."""


class MomentSequenceWarning(UserWarning):
    """An explicit moment sequence fails a validity check for nonnegative variables."""


class EstimatePrecisionWarning(UserWarning):
    """A Monte Carlo estimate has a relative standard error above 20%."""
