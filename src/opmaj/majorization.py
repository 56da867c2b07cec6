"""Doubly stochastic matrices linking zeros of orthogonal polynomials.

One construction, ``matrix_C``, deletes row/column k (1 <= k <= n) of the
order-n Jacobi matrix.  Its target is the zeros of p_{k-1}, then the zeros
of the order-k associated polynomial of degree n-k, then b_{k-1}.  The
other two theorems are its end cases, relabelled:

* theorem "A" is C(k=n): zeros of p_{n-1} followed by b_{n-1}.
* theorem "B" is C(k=1): zeros of the first associated polynomial of
  degree n-1 followed by b_0.

In every case target = entries @ source with source the ascending zeros of
p_n and entries doubly stochastic, so the target is majorized by the source
and sums of convex functions can only decrease from source to target.

Each of the first n-1 rows is computed as squared inner products between
an eigenvector of a deleted-matrix block and an eigenvector of the full
Jacobi matrix restricted to the surviving coordinates; the last row is the
squared k-th eigenvector component row.  Row sums, column sums, and the
linear relation are then exact up to the orthonormality of the computed
eigenbases (~n * eps), with no error amplification from clustered zeros.
Since an inner product of whole eigenvectors carries only normwise error,
the blocks come from the divide-and-conquer cache ``block_spectral``; the
last row reads single components of the J_n eigenvectors, which therefore
come from the componentwise-accurate ``scheme_spectral``.
This is the same matrix as the paper's closed formula

    a_k^2 u_i W_j / (z_i - x_{j,n})^2        (u_i, W_j as in ``matrix_C``)

wherever that formula is defined: multiplying the full-matrix eigenvector
equation by a block eigenvector turns the inner product into exactly that
quotient when z_i != x_{j,n}.  When a block zero collides with a zero of
p_n (possible for 2 <= k <= n-1, e.g. 0 is a zero of every odd-degree
polynomial of a symmetric measure) the quotient degenerates to 0/0, while
the inner product stays well defined and keeps the matrix doubly
stochastic; entries may then be exactly zero rather than strictly positive.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .recurrence import RecurrenceScheme, shifted
from .spectra import block_spectral, frozen, refuse_beyond_memory, scheme_spectral

__all__ = [
    "StochasticMatrixResult",
    "MajorizationCertificate",
    "ConvexReport",
    "CONVEX_FUNCTIONS",
    "matrix_A",
    "matrix_B",
    "matrix_C",
    "check_majorization",
    "convex_report",
    "trace_identities",
]

CONVEX_FUNCTIONS = {
    "square": np.square,
    "abs": np.abs,
    "exp": np.exp,
}


@dataclass(frozen=True, eq=False)
class StochasticMatrixResult:
    """A constructed stochastic matrix with its zero vectors and residuals.

    ``target`` is assembled in ascending-zero block order with the
    recurrence coefficient term last; ``relation_err`` is the max absolute
    residual of target - entries @ source.
    """

    theorem: str
    n: int
    k: int
    entries: np.ndarray
    source: np.ndarray
    target: np.ndarray
    row_sum_err: float
    col_sum_err: float
    relation_err: float


@dataclass(frozen=True, eq=False)
class MajorizationCertificate:
    """Partial-sum evidence that x is majorized by y (descending sorts)."""

    partial_margins: np.ndarray
    total_residual: float
    holds: bool

    @property
    def min_margin(self) -> float:
        return float(self.partial_margins.min()) if self.partial_margins.size else 0.0


@dataclass(frozen=True)
class ConvexReport:
    """Sums of a convex function over target (lhs) and source (rhs)."""

    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def _result(theorem, n, k, entries, source, target) -> StochasticMatrixResult:
    """Residuals of a certificate ``matrix_C`` just built, its arrays frozen in place.

    ``entries`` and ``target`` are fresh arrays and ``source`` is the cached
    read-only zeros of p_n, so nothing is copied.
    """
    target = np.asarray(target, dtype=float)
    row_err = float(np.max(np.abs(entries.sum(axis=1) - 1.0)))
    col_err = float(np.max(np.abs(entries.sum(axis=0) - 1.0)))
    rel_err = float(np.max(np.abs(target - entries @ source)))
    return StochasticMatrixResult(
        theorem=theorem,
        n=n,
        k=k,
        entries=frozen(entries),
        source=source,
        target=frozen(target),
        row_sum_err=row_err,
        col_sum_err=col_err,
        relation_err=rel_err,
    )


def matrix_A(scheme: RecurrenceScheme, n: int) -> StochasticMatrixResult:
    """Stochastic matrix mapping the zeros of p_n onto (zeros of p_{n-1}, b_{n-1}).

    Deleting the last row/column is theorem C at k = n: this is
    ``matrix_C(scheme, n, n)`` relabelled ``theorem="A"``.
    """
    return replace(matrix_C(scheme, n, n), theorem="A")


def matrix_B(scheme: RecurrenceScheme, n: int) -> StochasticMatrixResult:
    """Stochastic matrix mapping the zeros of p_n onto (associated zeros, b_0).

    Deleting the first row/column is theorem C at k = 1: this is
    ``matrix_C(scheme, n, 1)`` relabelled ``theorem="B"``.
    """
    return replace(matrix_C(scheme, n, 1), theorem="B")


def matrix_C(scheme: RecurrenceScheme, n: int, k: int) -> StochasticMatrixResult:
    """Stochastic matrix for deleting row/column k of the order-n Jacobi matrix.

    The deleted matrix splits into at most two decoupled blocks: J_{k-1}
    (rows 1..k-1 of J_n) and the order-k associated block (rows k+1..n).
    The target stacks their zeros z, i.e. the zeros of p_{k-1} and of the
    order-k associated polynomial of degree n-k, then b_{k-1}.  Row n is the
    squared row k of the J_n eigenvectors, W_j = lambda_{j,n} p_{k-1}^2(x_{j,n}).

    Rows 1..n-1 are squared overlaps between each block's eigenvectors and
    the matching component slice of the J_n eigenvectors: entry (i, j) is
    the quotient a_k^2 u_i W_j / (z_i - x_{j,n})^2, where u_i is
    lambda_{i,k-1} p_k^2(z_i) on the leading block and the associated
    Christoffel number lambda^(k)_{i,n-k} on the trailing one.

    Both blocks, J_{k-1} and the order n-k block of ``shifted(scheme, k)``,
    are read from ``block_spectral`` (divide and conquer): their eigenvectors
    enter only through inner products, so an entry's absolute error stays of
    order n eps, while the relative error of exponentially small entries is
    not resolved.  J_n comes from ``scheme_spectral`` (QR): its row k is the
    last row, which keeps the relative accuracy of tiny Christoffel numbers.

    An order whose 32 n^2 bytes of working arrays exceed physical memory is
    refused with ValueError before any eigensolve.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    # four n x n arrays live at once: the J_n eigenvectors, the block
    # eigenvectors, their overlap product and the entries
    refuse_beyond_memory(32 * n**2, f"the order {n} certificate", "its four n x n arrays")
    sd_n = scheme_spectral(scheme, n)
    x = sd_n.eigenvalues
    if n == 1:
        return _result("C", 1, 1, np.ones((1, 1)), x, [scheme.b(0)])
    # (block eigenbasis, the rows of J_n it spans)
    blocks = []
    if k >= 2:
        blocks.append((block_spectral(scheme, k - 1), slice(0, k - 1)))
    if k <= n - 1:
        blocks.append((block_spectral(shifted(scheme, k), n - k), slice(k, n)))
    z = np.concatenate([sd.eigenvalues for sd, _ in blocks])
    overlaps = [(sd.components.T @ sd_n.components[rows]) ** 2 for sd, rows in blocks]
    entries = np.concatenate([*overlaps, sd_n.components[k - 1 : k] ** 2])
    return _result("C", n, k, entries, x, np.append(z, scheme.b(k - 1)))


def check_majorization(x, y, tol: float = 1e-10) -> MajorizationCertificate:
    """Certificate that x is majorized by y.

    Holds iff every descending partial sum of y dominates that of x within
    tol and the totals agree within tol.
    """
    x = np.sort(np.asarray(x, dtype=float))[::-1]
    y = np.sort(np.asarray(y, dtype=float))[::-1]
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    margins = np.cumsum(y)[:-1] - np.cumsum(x)[:-1]
    residual = float(abs(x.sum() - y.sum()))
    holds = bool(np.all(margins >= -tol)) and residual <= tol
    return MajorizationCertificate(frozen(margins), residual, holds)


def convex_report(result: StochasticMatrixResult, f: str = "square") -> ConvexReport:
    """Compare sums of a convex function over target and source zeros.

    The stochastic relation makes each target point a convex combination of
    the source zeros, so the margin rhs - lhs is nonnegative up to rounding
    for any convex f.  A sum that float64 cannot hold (exp past zeros of
    about 709.78) raises ValueError instead of making the margin NaN.
    """
    try:
        fn = CONVEX_FUNCTIONS[f]
    except KeyError:
        raise ValueError(
            f"f must be one of {tuple(CONVEX_FUNCTIONS)}, got {f!r}"
        ) from None
    with np.errstate(over="ignore"):  # reported below, not warned
        lhs = float(fn(result.target).sum())
        rhs = float(fn(result.source).sum())
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        largest = float(np.abs(result.source).max())
        raise ValueError(
            f"the convex-{f} margin is not finite in float64: {f} overflows "
            f"over zeros up to |x| = {largest!r}"
        )
    return ConvexReport(lhs, rhs)


def trace_identities(scheme: RecurrenceScheme, n: int) -> list[float]:
    """Absolute residuals |sum(target) - sum(source zeros)| of C(1), ..., C(n).

    Entry k-1 belongs to C(k), so B is the first and A the last.  Every one
    vanishes exactly: each target completes a partial trace of J_n with the
    complementary recurrence coefficient.  The block zeros are read from
    ``block_spectral``, the cache ``matrix_C`` builds its targets from, and
    the zeros of p_n from ``scheme_spectral``.  An order n < 1 raises
    ValueError.
    """
    x_sum = float(scheme_spectral(scheme, n).eigenvalues.sum())
    diag = scheme.coefficients(n - 1)[1].tolist()

    def residual(j: int) -> float:
        total = diag[j - 1]
        if j >= 2:
            total += float(block_spectral(scheme, j - 1).eigenvalues.sum())
        if j <= n - 1:
            total += float(block_spectral(shifted(scheme, j), n - j).eigenvalues.sum())
        return abs(total - x_sum)

    return [residual(j) for j in range(1, n + 1)]
