"""Jacobi matrices and tridiagonal spectral data.

The spectral data of J_n carries the Golub-Welsch payload: its eigenvalues
are the zeros of p_n, and the squared components of the unit eigenvectors
encode the Christoffel numbers (row 0) and, more generally, the products
lambda_{j,n} * p_i(x_{j,n})^2 (row i).  Only the signed eigenvectors are
stored, one m x m array per decomposition; the squares are derived from
them on access, and single-matrix formulas use only the squares, so no
eigenvector sign convention leaks into them.

The role of the data decides the solver; no option selects one.  Every
single eigenvector component that is read comes from J_n through
``scheme_spectral``, the one cache, which holds the last J_n read.  Below
order ``_DSTEVD_FROM`` it is solved by LAPACK ``dstev`` (implicit QR),
which keeps the relative accuracy of exponentially small components; from
that order on by ``dstevd`` (divide and conquer, several times faster),
whose tiny components are then restored to relative accuracy by the
three-term recurrence run from each end toward the eigenvector's largest
entry (``_refine``).  The private ``_block_decompose`` (``dstevd`` alone)
serves the deletion blocks, whose eigenvectors enter only through inner
products with normwise error and whose zeros verify reads.  All of them
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

# J_n's route: dstev below this order, dstevd plus ``_refine`` from it on, the
# order where the two cost the same (hermite, laguerre and legendre, one BLAS
# thread).  It stays above 60, so that verify to order 60 keeps dstev's bits.
_DSTEVD_FROM = 112
# a recurrence value past 2**512 is rescaled with its column by 2**-512, exactly
_HUGE, _SHRINK = 2.0**512, 2.0**-512


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


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Strictly ascending eigenvalues plus unit-eigenvector components.

    ``components[:, j]`` is the unit eigenvector for ``eigenvalues[j]`` (its
    overall sign carries no meaning).  For the Jacobi matrix of a
    probability-measure scheme, the squares of row 0 are the Christoffel
    numbers (``christoffel``, derived on access, not stored) and those of
    row i are lambda_{j,n} * p_i(x_{j,n})^2.  The signed components exist so
    that inner products between eigenbases of related matrices can be
    formed; every single-matrix formula uses only the squares.  The
    components are one array in Fortran layout, as LAPACK returns them.
    From ``scheme_spectral`` each component keeps its relative accuracy,
    exponentially small ones included (from order ``_DSTEVD_FROM`` on
    through ``_refine``); from ``_block_decompose`` only its absolute one.
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


def _decompose(diag, offdiag, solver, refine: bool = False):
    """Spectral data of the Jacobi matrix (diag, offdiag), of order >= 1, by ``solver``,
    its eigenvectors refined in place by ``_refine`` if ``refine``.

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
    if refine:
        _refine(diag, offdiag, eigvals, vecs)
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
    share: schemes are immutable and the returned arrays are read-only.

    Every component is read one at a time, so each keeps its relative
    accuracy, exponentially small ones included.  Below order
    ``_DSTEVD_FROM`` ``dstev`` (implicit QR) solves J_n; unlike MRRR or
    divide and conquer it keeps them.  From that order on ``dstevd``
    (divide and conquer) solves it in a fraction of the time, and
    ``_refine`` restores the tiny components it loses.  An order whose
    working set exceeds physical memory is refused with ValueError before
    J_n's table is built: the 8 n^2 bytes of eigenvectors, and from
    ``_DSTEVD_FROM`` on 8 n^2 more beside them, ``dstevd``'s workspace and
    then ``_refine``'s one n x n array.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    refine = n >= _DSTEVD_FROM
    refuse_beyond_memory(8 * n**2, f"order {n}", "its eigenvectors")
    if refine:
        refuse_beyond_memory(16 * n**2, f"order {n}", "its eigenvectors and dstevd's workspace")
    offdiag, diag = scheme.coefficients(n - 1)
    return _decompose(diag, offdiag, dstevd if refine else dstev, refine)


def _refine(diag, offdiag, eigvals, vecs) -> None:
    """Give the tiny components of ``dstevd``'s eigenvectors ``vecs`` their relative
    accuracy, in place, from the three-term recurrence at the eigenvalues.

    Divide and conquer is accurate in norm (Gu & Eisenstat, SIAM J. Matrix
    Anal. Appl. 16, 1995), not componentwise.  The recurrence is stable from
    each end of an eigenvector toward its largest entry (the two-sided view
    of Parlett & Dhillon, Linear Algebra Appl. 267, 1997), so with anchor
    c_j = argmax_i |v_ij| each column is recomputed in O(n): rows i <= c_j
    as v_{c_j j} p_i(x_j) / p_{c_j}(x_j) from the forward recurrence
    (p_0 = 1), rows i > c_j as v_{c_j j} w_i / w_{c_j} from the backward one
    (w_{n-1} = 1, w_n = 0).  A recomputed entry replaces ``dstevd``'s only
    where the two agree within 4 eps, so no entry moves by more than that
    and the eigenvectors stay as orthonormal as ``dstevd`` made them.  Where
    the recurrence is unreliable (a near-degenerate pair of a custom scheme,
    a column whose values break down to inf or NaN) the two disagree and
    ``dstevd``'s value stays.
    """
    n, cols = eigvals.size, np.arange(eigvals.size)
    anchor = np.abs(vecs).argmax(axis=0)
    lead = vecs[anchor, cols]
    # one n x n array: rows <= anchor from the forward pass, rows past it added
    # by the backward one (the backward recurrence of J_n is the forward one of
    # J_n reversed), then scaled to the anchor and compared 64 rows at a time
    rows = np.zeros((n, n))
    # a column that breaks down is left to the agreement test, not warned
    with np.errstate(all="ignore"):
        top = _recurrence_rows(diag, offdiag, eigvals, anchor, rows)[0]
        bottom = _recurrence_rows(diag[::-1], offdiag[::-1], eigvals, n - 1 - anchor, rows[::-1])[0]
        rows[anchor, cols] = top  # the backward pass added its own anchor value
        fwd_scale, bwd_scale = lead / top, lead / bottom
        for r in range(0, n, 64):
            new, old = rows[r : r + 64], vecs[r : r + 64]
            new *= np.where(np.arange(r, r + len(new))[:, None] > anchor, bwd_scale, fwd_scale)
            np.copyto(old, new, where=np.abs(new - old) <= 4.0 * np.finfo(float).eps)


def _recurrence_rows(diag, offdiag, x, ends, out) -> tuple:
    """Add p_0..p_{n-1} of the Jacobi matrix (diag, offdiag), n = diag.size, at the points
    x to the rows of the n x x.size ``out``, column j up to row ends[j] and nothing past
    it; return the values at row ends[j] and each column's count of rescales.

    A column that passes 2**512 is multiplied by 2**-512, its stored rows with it, so
    only a single step past float64 overflows: each column is one scale, its ratios kept
    (exactly, unless below the normal range), and one never rescaled has the bits of the
    plain recurrence.  Columns are measured only once a bound carried row by row passes
    2**512."""
    n, size = diag.size, x.size
    a, b = [0.0, *offdiag.tolist()], diag.tolist()  # a[r] = a_r, with a_0 = 0
    lo, hi = float(x.min()), float(x.max())
    by_end = np.argsort(ends, kind="stable")
    starts = np.searchsorted(ends[by_end], np.arange(n + 1)).tolist()
    at_end, tmp, shifts = np.empty(size), np.empty(size), np.zeros(size, dtype=int)
    prev, cur, nxt = np.zeros(size), np.ones(size), np.empty(size)
    bound, bound_prev = 1.0, 0.0  # of max |cur| and max |prev|
    for r in range(n):
        if r:
            np.subtract(x, b[r - 1], out=nxt)
            nxt *= cur
            nxt -= np.multiply(prev, a[r - 1], out=tmp)
            nxt /= a[r]
            spread = max(hi - b[r - 1], b[r - 1] - lo)
            bound, bound_prev = (spread * bound + a[r - 1] * bound_prev) / a[r], bound
            if not bound < _HUGE:
                bound = float(np.abs(nxt, out=tmp).max())
                if bound > _HUGE:
                    big = np.flatnonzero(tmp > _HUGE)
                    nxt[big] *= _SHRINK
                    cur[big] *= _SHRINK
                    out[:r, big] *= _SHRINK
                    shifts[big] += 1
                    bound = float(np.abs(nxt).max())
                bound_prev = float(np.abs(cur).max())
            prev, cur, nxt = cur, nxt, prev
        out[r] += cur
        done = by_end[starts[r] : starts[r + 1]]
        if done.size:  # these columns end here: zeros carry them on
            at_end[done] = cur[done]
            cur[done] = prev[done] = 0.0
    return at_end, shifts


def _block_decompose(diag, offdiag) -> SpectralData:
    """Eigenbasis of the Jacobi matrix (diag, offdiag) as a deletion block, uncached.

    Calls LAPACK's divide-and-conquer routine ``dstevd`` (Gu & Eisenstat,
    SIAM J. Matrix Anal. Appl. 16, 1995), several times faster than
    ``dstev`` with vectors at large orders.  Its eigenvectors are accurate
    in norm, not componentwise: exponentially small components lose their
    relative accuracy, so alone it serves only data whose error is
    normwise, the eigenvalues and the inner products of whole eigenvectors
    that make up the certificate entries (``scheme_spectral`` adds
    ``_refine`` where it reads components of J_n from ``dstevd``).  Below
    order 26 ``dstevd`` hands the problem to the same QR code as ``dstev``,
    with the same bits.  No size refusal is made here: a block is a slice
    of a table whose order ``_certificate_table`` (32 n^2 bytes) or
    ``verify_scheme`` (32 n^3 / 3 bytes) has already held to physical
    memory.  Failures raise ConvergenceError as in ``scheme_spectral``.
    """
    return _decompose(diag, offdiag, dstevd)
