"""Jacobi matrices and tridiagonal spectral data.

The spectral data of J_n carries the Golub-Welsch payload: its eigenvalues
are the zeros of p_n, and the squared components of the unit eigenvectors
encode the Christoffel numbers (row 0) and, more generally, the products
lambda_{j,n} * p_i(x_{j,n})^2 (row i).  Only the signed eigenvectors are
stored, one m x m array per decomposition; the squares are derived from
them on access, and single-matrix formulas use only the squares, so no
eigenvector sign convention leaks into them.

The role of the data decides the solver; no option selects one.  LAPACK
``dstev`` (implicit QR) serves every single eigenvector component that is
read: J_n through ``scheme_spectral``, the one cache, which holds the last
J_n read.  The private ``_block_decompose`` (LAPACK ``dstevd``, divide and
conquer) serves the deletion blocks, whose eigenvectors enter only through
inner products with normwise error and whose zeros verify reads.  Both
solve slices of the table ``coefficients`` checked, which ``jacobi_matrix``
hands out read-only, uncopied, in a ``JacobiMatrix`` (not re-exported).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dstev, dstevd

from .recurrence import RecurrenceScheme

__all__ = [
    "SpectralData",
    "ConvergenceError",
    "jacobi_matrix",
    "scheme_spectral",
]


class ConvergenceError(RuntimeError):
    """The tridiagonal eigensolver failed; treat as a defect, not a fallback."""


def frozen(out: np.ndarray) -> np.ndarray:
    """Clear the write flag of an array the caller just made, without a copy."""
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class JacobiMatrix:
    """Symmetric tridiagonal matrix: diagonal b_0..b_{n-1}, off-diagonal a_1..a_{n-1}.

    ``jacobi_matrix`` builds it on the read-only table ``coefficients`` checked.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def order(self) -> int:
        return self.diag.size

    def dense(self) -> np.ndarray:
        """Dense symmetric copy."""
        n = self.order
        out = np.zeros((n, n))
        np.fill_diagonal(out, self.diag)
        idx = np.arange(n - 1)
        out[idx, idx + 1] = self.offdiag
        out[idx + 1, idx] = self.offdiag
        return out


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Strictly ascending eigenvalues plus unit-eigenvector components.

    ``components[:, j]`` is the unit eigenvector for ``eigenvalues[j]`` (its
    overall sign carries no meaning).  For the Jacobi matrix of a
    probability-measure scheme, the squares of row 0 are the Christoffel
    numbers (``christoffel``, derived on access, not stored) and those of
    row i are lambda_{j,n} * p_i(x_{j,n})^2.  The signed components exist so
    that inner products between eigenbases of related matrices can be
    formed; every single-matrix formula uses only the squares.
    """

    eigenvalues: np.ndarray
    components: np.ndarray

    @property
    def order(self) -> int:
        return self.eigenvalues.size

    @property
    def christoffel(self) -> np.ndarray:
        """Gaussian quadrature weights at the zeros (first-component squares)."""
        return frozen(self.components[0] ** 2)


def jacobi_matrix(scheme: RecurrenceScheme, n: int) -> JacobiMatrix:
    """Truncated Jacobi matrix J_n of the scheme (needs depth >= n - 1), not copied."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    offdiag, diag = scheme.coefficients(n - 1)
    return JacobiMatrix(frozen(diag), frozen(offdiag))


def refuse_beyond_memory(needed: int, subject: str, purpose: str) -> None:
    """Raise ValueError when ``needed`` bytes exceed the host's physical memory."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > physical:
        raise ValueError(
            f"{subject} needs {needed / 1e9:.1f} GB for {purpose}, "
            f"more than the {physical / 1e9:.1f} GB of physical memory"
        )


def _decompose(diag, offdiag, solver):
    """Spectral data of the Jacobi matrix (diag, offdiag), of order >= 1, by ``solver``.

    The part both routines share: the order-1 answer, ``info`` as
    ConvergenceError, the strict-increase check of the ascending spectrum
    both routines return, and read-only arrays, none a view of the caller's
    table.  The caller has refused an order too large for memory.
    """
    if diag.size == 1:  # the f2py wrappers refuse an empty off-diagonal
        eigvals, vecs, info = diag.copy(), np.ones((1, 1)), 0
    else:
        eigvals, vecs, info = solver(diag, offdiag)
    if info:  # an f2py wrapper's __name__ reads "function dstev"
        name = solver.__name__.rpartition(" ")[2]
        raise ConvergenceError(f"tridiagonal eigensolver failed: {name} info = {info}")
    # compared, not subtracted: a gap wider than float64 is still an increase
    increasing = eigvals[1:] > eigvals[:-1]
    if not increasing.all():
        j = int(np.argmin(increasing))  # the first pair that is not
        raise ConvergenceError(
            f"eigenvalues {j + 1} and {j + 2} are not strictly increasing"
        )
    # vecs is LAPACK's fresh array in Fortran layout; it is kept as is,
    # since the bits of the overlap products depend on that layout.
    return SpectralData(frozen(eigvals), frozen(vecs))


@lru_cache(maxsize=1)
def scheme_spectral(scheme: RecurrenceScheme, n: int) -> SpectralData:
    """Cached spectral data of J_n, the order-n Jacobi matrix of the scheme.

    The package's one cache holds the last (scheme, n) read, 8 n^2 + 8 n
    bytes: every certificate of order n (A, B and C at each k), its Gauss
    rule and its Christoffel numbers read the same J_n, the only reuse any
    sweep makes; verify reads it only through the certificates.  Safe to
    share: schemes are immutable and the returned arrays are read-only.  An
    order whose 8 n^2 bytes of eigenvectors exceed physical memory is
    refused with ValueError before J_n's table is built.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    refuse_beyond_memory(8 * n**2, f"order {n}", "its eigenvectors")
    offdiag, diag = scheme.coefficients(n - 1)
    # dstev keeps, unlike MRRR, the relative accuracy of exponentially small components
    return _decompose(diag, offdiag, dstev)


def _block_decompose(diag, offdiag) -> SpectralData:
    """Eigenbasis of the Jacobi matrix (diag, offdiag) as a deletion block, uncached.

    Calls LAPACK's divide-and-conquer routine ``dstevd`` (Gu & Eisenstat,
    SIAM J. Matrix Anal. Appl. 16, 1995), several times faster than
    ``dstev`` with vectors at large orders.  Its eigenvectors are accurate
    in norm, not componentwise: exponentially small components lose their
    relative accuracy, so it serves only data whose error is normwise, the
    eigenvalues and the inner products of whole eigenvectors that make up
    the certificate entries.  Below order 26 ``dstevd`` hands the problem
    to the same QR code as ``dstev``, with the same bits.  No size refusal
    is made here: a block is a slice of a table whose order
    ``_certificate_table`` (32 n^2 bytes) or ``verify_scheme`` (32 n^3 / 3
    bytes) has already held to physical memory.  Failures raise
    ConvergenceError as in ``scheme_spectral``.
    """
    return _decompose(diag, offdiag, dstevd)
