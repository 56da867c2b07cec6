"""Jacobi matrices and tridiagonal spectral data.

The spectral data of J_n carries the Golub-Welsch payload: its eigenvalues
are the zeros of p_n, and the squared components of the unit eigenvectors
encode the Christoffel numbers (row 0) and, more generally, the products
lambda_{j,n} * p_i(x_{j,n})^2 (row i).  Only the signed eigenvectors are
stored, one m x m array per decomposition; the squares are derived from
them on access, and single-matrix formulas use only the squares, so no
eigenvector sign convention leaks into them.

Two caches hold decompositions, and the role of the data decides which one
serves it; no option selects a solver.  ``scheme_spectral`` (LAPACK
``dstev``, implicit QR) serves everything whose single eigenvector
components are read: J_n of a certificate, associated spectra, Gauss rules
and the interlacing checks.  ``block_spectral`` (LAPACK ``dstevd``, divide
and conquer) serves the deletion blocks of the certificates, whose
eigenvectors enter only through inner products with normwise error.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dstev, dstevd

from .recurrence import RecurrenceScheme

__all__ = [
    "JacobiMatrix",
    "SpectralData",
    "ConvergenceError",
    "jacobi_matrix",
    "eigen_decompose",
    "scheme_spectral",
    "block_spectral",
]


class ConvergenceError(RuntimeError):
    """The tridiagonal eigensolver failed; treat as a defect, not a fallback."""


def readonly(values) -> np.ndarray:
    """Copy into a float array with the write flag cleared."""
    return frozen(np.array(values, dtype=float))


def frozen(out: np.ndarray) -> np.ndarray:
    """Clear the write flag of an array the caller just made, without a copy."""
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class JacobiMatrix:
    """Symmetric tridiagonal matrix: diagonal b_0..b_{n-1}, off-diagonal a_1..a_{n-1}.

    Order 0 (empty) is allowed; decomposition requires order >= 1.  Every
    entry must be finite.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = readonly(self.diag)
        offdiag = readonly(self.offdiag)
        expected = max(diag.size - 1, 0)
        if offdiag.size != expected:
            raise ValueError(
                f"offdiag must have length {expected} for order {diag.size}, "
                f"got {offdiag.size}"
            )
        for name, values in (("diag", diag), ("offdiag", offdiag)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} entries must be finite")
        if offdiag.size and not np.all(offdiag > 0.0):
            raise ValueError("off-diagonal entries must be strictly positive")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)

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

    @property
    def diameter(self) -> float:
        """Spread x_max - x_min of the spectrum."""
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


def jacobi_matrix(scheme: RecurrenceScheme, n: int) -> JacobiMatrix:
    """Truncated Jacobi matrix J_n of the scheme (needs depth >= n - 1)."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    offdiag, diag = scheme.coefficients(n - 1)
    return JacobiMatrix(diag, offdiag)


def refuse_beyond_memory(needed: int, subject: str, purpose: str) -> None:
    """Raise ValueError when ``needed`` bytes exceed the host's physical memory."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > physical:
        raise ValueError(
            f"{subject} needs {needed / 1e9:.1f} GB for {purpose}, "
            f"more than the {physical / 1e9:.1f} GB of physical memory"
        )


def eigen_decompose(J: JacobiMatrix) -> SpectralData:
    """Full spectral decomposition of a Jacobi matrix, accurate componentwise.

    Calls LAPACK's implicit-shift QL/QR routine ``dstev`` with full
    eigenvector accumulation: unlike the faster MRRR routine it preserves
    the relative accuracy of exponentially small eigenvector components, on
    which the Christoffel numbers at extreme nodes of unbounded-support
    measures depend.  Order 1 needs no solve.

    LAPACK returns the eigenvalues in ascending order.  Positive
    off-diagonals guarantee simple eigenvalues, so a nonincreasing pair in
    the computed spectrum is reported as a ConvergenceError rather than
    silently accepted, as is a solver failure.
    An order whose 8 m^2 bytes of eigenvectors exceed physical memory is
    refused with ValueError before the solver allocates anything.
    """
    return _decompose(J, dstev, "dstev", 8, "its eigenvectors")


def _decompose(J: JacobiMatrix, solver, name: str, bytes_per_sq: int, purpose: str):
    """Spectral data of J from one LAPACK tridiagonal routine ``solver``.

    The part both routines share: refusal of an order whose ``bytes_per_sq``
    m^2 bytes exceed physical memory, the order-1 answer, ``info`` as
    ConvergenceError, the strict-increase check of the ascending spectrum
    both routines return, and read-only arrays.
    """
    if J.order < 1:
        raise ValueError("cannot decompose an empty Jacobi matrix")
    refuse_beyond_memory(bytes_per_sq * J.order**2, f"order {J.order}", purpose)
    if J.order == 1:  # the f2py wrappers refuse an empty off-diagonal
        eigvals, vecs, info = J.diag, np.ones((1, 1)), 0
    else:
        eigvals, vecs, info = solver(J.diag, J.offdiag)
    if info:
        raise ConvergenceError(f"tridiagonal eigensolver failed: {name} info = {info}")
    gaps = np.diff(eigvals)
    if gaps.size and not np.all(gaps > 0.0):
        j = int(np.argmin(gaps))
        raise ConvergenceError(
            f"eigenvalues {j + 1} and {j + 2} are not strictly increasing"
        )
    # vecs is LAPACK's fresh array in Fortran layout; it is kept as is,
    # since the bits of the overlap products depend on that layout.
    return SpectralData(readonly(eigvals), frozen(vecs))


@lru_cache(maxsize=None)
def scheme_spectral(scheme: RecurrenceScheme, n: int) -> SpectralData:
    """Cached ``eigen_decompose(jacobi_matrix(scheme, n))``: data read by component.

    The cache of every decomposition whose single eigenvector components
    are read (Christoffel numbers, the last row of a certificate):
    associated spectra are cached here too, under their shifted scheme.
    Safe to share: schemes are immutable and the returned arrays are
    read-only.
    """
    return eigen_decompose(jacobi_matrix(scheme, n))


@lru_cache(maxsize=None)
def block_spectral(scheme: RecurrenceScheme, m: int) -> SpectralData:
    """Cached eigenbasis of ``jacobi_matrix(scheme, m)`` as a deletion block.

    Calls LAPACK's divide-and-conquer routine ``dstevd`` (Gu & Eisenstat,
    SIAM J. Matrix Anal. Appl. 16, 1995), several times faster than
    ``dstev`` with vectors at large orders.  Its eigenvectors are accurate
    in norm, not componentwise: exponentially small components lose their
    relative accuracy, so this cache serves only data whose error is
    normwise, the eigenvalues and the inner products of whole eigenvectors
    that make up the certificate entries.  Below order 26 ``dstevd``
    hands the problem to the same QR code as ``dstev``, with the same bits.
    An order whose 16 m^2 bytes of eigenvectors and workspace exceed
    physical memory is refused with ValueError before the solver runs;
    failures raise ConvergenceError as in ``eigen_decompose``.
    """
    return _decompose(
        jacobi_matrix(scheme, m), dstevd, "dstevd", 16, "its eigenvectors and workspace"
    )
