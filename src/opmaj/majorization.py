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
the blocks are divide-and-conquer decompositions (``spectra._block_decompose``);
the last row reads single components of the J_n eigenvectors, which therefore
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

import math
from dataclasses import dataclass, replace

import numpy as np

from .recurrence import RecurrenceScheme
from .spectra import _block_decompose, frozen, refuse_beyond_memory, scheme_spectral

__all__ = ["StochasticMatrixResult", "CONVEX_FUNCTIONS", "matrix_A", "matrix_B", "matrix_C"]

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
    residual of target - entries @ source, ``trace_err`` |sum(target) - sum(source)|.
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
    trace_err: float

    @property
    def underflowed(self) -> np.ndarray:
        """(row, column) pairs of the entries below the smallest normal double."""
        return np.argwhere(self.entries < np.finfo(float).tiny)


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

    Both blocks are sliced from J_n's one coefficient table and solved,
    uncached, by divide and conquer: an entry's absolute error stays of
    order n eps, while the relative error of exponentially small entries is
    not resolved.  J_n comes from ``scheme_spectral``, so an all-k sweep
    holds J_n alone.

    An order whose 32 n^2 bytes of working arrays exceed physical memory is
    refused with ValueError before any eigensolve, as is an order whose
    zeros could sum past float64: n (max |b_i| + 2 max a_i), a bound on the
    sum of n zeros of magnitude at most the Gershgorin radius, is not finite.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    table = _certificate_table(scheme, n)  # its refusals precede every solve, J_n's included
    entries, target, source, errs = _matrix_C(table, scheme_spectral(scheme, n), [k], {})
    return StochasticMatrixResult("C", n, k, entries[0], source, target[0], *(e[0] for e in errs))


def _certificate_table(scheme: RecurrenceScheme, n: int):
    """J_n's table (offdiag, diag), after ``matrix_C``'s two refusals at order n."""
    # the J_n eigenvectors, the block eigenvectors and the entries live at once;
    # the block solve's workspace is freed before the entries are made
    refuse_beyond_memory(32 * n**2, f"the order {n} certificate", "its n x n working arrays")
    offdiag, diag = scheme.coefficients(n - 1)
    radius = float(np.abs(diag).max()) + 2.0 * float(offdiag.max(initial=0.0))
    if not math.isfinite(n * radius):  # Python floats: an overflow is inf, not a warning
        raise ValueError(
            f"the order {n} certificate sums zeros past float64: "
            f"n (max |b_i| + 2 max a_i) = {n * radius!r}"
        )
    return offdiag, diag


def _matrix_C(table, sd_n, ks, leads: dict):
    """The certificates C(k), k in ``ks``, of a valid order n, built and measured as one stack.

    Returns the frozen entries (len(ks), n, n) and target (len(ks), n) stacks,
    the source zeros, and the row-sum, column-sum, relation and trace errors
    of ``StochasticMatrixResult`` as four lists of floats, with no result
    object per certificate.  The caller hands in J_n's ``scheme_spectral`` data ``sd_n``;
    both blocks of each C(k) are sliced from ``table``, the (offdiag, diag) of J_n or higher.
    J_{k-1} is read from or added to ``leads``, a dict from m to (J_m as a
    deletion block, the sum of its zeros) whose lifetime the caller sets, so
    each block's zeros are summed once, where it is solved.  The slices go to
    the solver as they are: ``coefficients`` checked the table as it built it.
    """
    offdiag, diag = table
    source, trace = sd_n.eigenvalues, []
    n, total = source.size, float(source.sum())
    for i, k in enumerate(ks):
        # (block eigenbasis, the rows of J_n it spans, its rows of the entries); none at order 1
        blocks, lead_sum, assoc_sum = [], 0.0, 0.0
        if k >= 2:
            if k - 1 not in leads:
                lead = _block_decompose(diag[: k - 1], offdiag[: k - 2])
                leads[k - 1] = lead, float(lead.eigenvalues.sum())
            lead, lead_sum = leads[k - 1]
            blocks.append((lead, slice(0, k - 1), slice(0, k - 1)))
        if k <= n - 1:
            assoc = _block_decompose(diag[k:n], offdiag[k : n - 1])
            assoc_sum = float(assoc.eigenvalues.sum())
            blocks.append((assoc, slice(k, n), slice(k - 1, n - 1)))
        if i == 0:  # made once the first block solve's workspace is freed
            entries, target = np.empty((len(ks), n, n)), np.empty((len(ks), n))
        for sd, rows, out in blocks:
            target[i, out] = sd.eigenvalues
            np.matmul(sd.components.T, sd_n.components[rows], out=entries[i, out])
        target[i, n - 1] = diag[k - 1]
        entries[i, n - 1] = sd_n.components[k - 1]
        # b_{k-1} plus the zeros of each block, in this order, make the trace of J_n
        trace.append(abs(float(diag[k - 1]) + lead_sum + assoc_sum - total))
    np.square(entries, out=entries)
    errs = [
        np.abs(entries.sum(axis=2) - 1.0).max(axis=1).tolist(),
        np.abs(entries.sum(axis=1) - 1.0).max(axis=1).tolist(),
        np.abs(target - np.matmul(entries, source)).max(axis=1).tolist(),
        trace,
    ]
    return frozen(entries), frozen(target), source, errs


def _majorization(xs, y, tol: float):
    """Whether each row of the stack ``xs`` is majorized by y: every descending partial
    sum of y dominates the row's within tol, and the totals agree within tol.
    Returns the partial-sum margins (rows, n - 1), total residuals and verdicts."""
    xs = np.sort(xs, axis=1)[:, ::-1]
    y = np.sort(y)[::-1]
    margins = np.cumsum(y)[:-1] - np.cumsum(xs, axis=1)[:, :-1]
    residual = np.abs(xs.sum(axis=1) - y.sum())
    holds = (margins >= -tol).all(axis=1) & (residual <= tol)
    return margins, residual, holds


def _convex_sums(targets, source, f: str):
    """Sums of the convex function ``CONVEX_FUNCTIONS[f]`` over each row of the stack
    ``targets`` (lhs) and over ``source`` (rhs).

    The stochastic relation makes each target point a convex combination of
    the source zeros, so each margin rhs - lhs is nonnegative up to rounding.
    A sum that float64 cannot hold (exp past zeros of about 709.78) raises
    ValueError instead of making the margin NaN.
    """
    with np.errstate(over="ignore"):  # reported below, not warned
        lhs = CONVEX_FUNCTIONS[f](targets).sum(axis=1)
        rhs = CONVEX_FUNCTIONS[f](source).sum()
    if not (np.isfinite(lhs).all() and np.isfinite(rhs)):
        largest = float(np.abs(source).max())
        raise ValueError(
            f"the convex-{f} margin is not finite in float64: {f} overflows "
            f"over zeros up to |x| = {largest!r}"
        )
    return lhs, rhs
