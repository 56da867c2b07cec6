"""Independent oracles used only by the tests.

Everything here deliberately avoids the package's evaluation and matrix
construction code paths: polynomial values come from a local recurrence
loop, Christoffel numbers from local reciprocal sums, stochastic-matrix
entries from row-normalized quotients, measure moments from closed forms or
high-precision quadrature of the classical weight functions.  The
reference helpers at the end (row/column deletion of a Jacobi matrix, the
squared eigenvector components, a recomputing doubly-stochastic check) are
plain restatements of definitions that only the tests read.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from opmaj import JacobiMatrix, StochasticMatrixResult, associated_spectral, scheme_spectral


def poly_values(scheme, n, x):
    """p_0(x)..p_n(x) by a recurrence loop local to the tests."""
    vals = [1.0]
    p_prev, p = 0.0, 1.0
    for m in range(n):
        a_m = scheme.a(m) if m >= 1 else 0.0
        p_next = ((x - scheme.b(m)) * p - a_m * p_prev) / scheme.a(m + 1)
        vals.append(p_next)
        p_prev, p = p, p_next
    return np.array(vals)


def christoffel_by_sum(scheme, n, nodes):
    """Reciprocal sums of squared polynomial values at given nodes."""
    return np.array(
        [1.0 / float(np.dot(v, v)) for v in (poly_values(scheme, n - 1, x) for x in nodes)]
    )


def min_target_gap(scheme, n, k) -> float:
    """Smallest |target zero - source zero| over the deleted-matrix blocks,
    relative to the spectral diameter.  Near-zero values mark configurations
    where quotient-form entries are ill-conditioned (or undefined)."""
    x = scheme_spectral(scheme, n).eigenvalues
    diam = max(float(x[-1] - x[0]), 1.0)
    gap = np.inf
    if k >= 2:
        t = scheme_spectral(scheme, k - 1).eigenvalues
        gap = min(gap, float(np.abs(t[:, None] - x[None, :]).min()))
    if k <= n - 1:
        y = associated_spectral(scheme, k, n - k).eigenvalues
        gap = min(gap, float(np.abs(y[:, None] - x[None, :]).min()))
    return gap / diam


def quotient_form_C(scheme, n, k):
    """Row-normalized quotient oracle for the deletion matrix.

    Row i < n at target point z_i: entries proportional to
    lambda_{j,n} p_{k-1}^2(x_{j,n}) / (z_i - x_{j,n})^2, normalized to unit
    row sum; row n holds lambda_{j,n} p_{k-1}^2(x_{j,n}) directly.  Uses
    only zero locations plus local polynomial evaluation.
    """
    x = scheme_spectral(scheme, n).eigenvalues
    lam = christoffel_by_sum(scheme, n, x)
    w = lam * np.array([poly_values(scheme, k - 1, xj)[k - 1] for xj in x]) ** 2
    targets = []
    if k >= 2:
        targets.extend(scheme_spectral(scheme, k - 1).eigenvalues)
    if k <= n - 1:
        targets.extend(associated_spectral(scheme, k, n - k).eigenvalues)
    entries = np.empty((n, n))
    for i, z in enumerate(targets):
        row = w / (z - x) ** 2
        entries[i] = row / row.sum()
    entries[n - 1] = w
    return entries


def chebyshev_u_zeros(n):
    """Ascending zeros of the degree-n second-kind Chebyshev polynomial."""
    j = np.arange(1, n + 1)
    return -np.cos(j * np.pi / (n + 1.0))


def chebyshev_u_weights(n):
    """Christoffel numbers at those zeros for the normalized semicircle weight."""
    j = np.arange(1, n + 1)
    return 2.0 * np.sin(j * np.pi / (n + 1.0)) ** 2 / (n + 1.0)


def closed_form_moment(family: str, m: int) -> float:
    """Monomial moments of the probability-normalized classical measures."""
    if family == "legendre":
        return 0.0 if m % 2 else 1.0 / (m + 1.0)
    if family == "chebyshev-u":
        if m % 2:
            return 0.0
        j = m // 2
        return math.comb(2 * j, j) / ((j + 1.0) * 4.0**j)
    if family == "chebyshev-t":
        if m % 2:
            return 0.0
        j = m // 2
        return math.comb(2 * j, j) / 4.0**j
    if family == "hermite":
        if m % 2:
            return 0.0
        j = m // 2
        return math.prod(range(1, m, 2)) / 2.0**j
    if family == "laguerre":
        return float(math.factorial(m))
    raise ValueError(family)


def mp_weight(family: str, params):
    """Probability-normalized weight function and integration domain."""
    if family == "chebyshev-u":
        return (lambda x: 2 / mp.pi * mp.sqrt(1 - x * x)), [-1, 1]
    if family == "chebyshev-t":
        return (lambda x: 1 / (mp.pi * mp.sqrt(1 - x * x))), [-1, 1]
    if family == "legendre":
        return (lambda x: mp.mpf(1) / 2), [-1, 1]
    if family == "jacobi":
        a, b = (mp.mpf(p) for p in params)
        z = mp.power(2, a + b + 1) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(a + b + 2)
        return (lambda x: (1 - x) ** a * (1 + x) ** b / z), [-1, 1]
    if family == "laguerre":
        a = mp.mpf(params[0])
        z = mp.gamma(a + 1)
        return (lambda x: x**a * mp.exp(-x) / z), [0, mp.inf]
    if family == "hermite":
        return (lambda x: mp.exp(-x * x) / mp.sqrt(mp.pi)), [-mp.inf, mp.inf]
    raise ValueError(family)


@functools.lru_cache(maxsize=None)
def _mp_node_values(scheme, family: str, params):
    """(at, domain): ``at(x)`` is (p_0(x)..p_D(x), w(x)) with D the scheme's
    depth, evaluated once per quadrature node in mpmath arithmetic from one
    ``coefficients`` table and then shared by every integral and degree."""
    w, dom = mp_weight(family, params)
    offdiag, diag = scheme.coefficients(scheme.max_index)
    a = [mp.mpf(0)] + [mp.mpf(v) for v in offdiag.tolist()]  # a[m] = a_m, a_0 = 0
    b = [mp.mpf(v) for v in diag.tolist()]
    memo: dict = {}

    def at(x):
        got = memo.get(x)
        if got is None:
            vals = [mp.mpf(1)]
            p_prev, p = mp.mpf(0), mp.mpf(1)
            for m in range(len(offdiag)):
                p_next = ((x - b[m]) * p - a[m] * p_prev) / a[m + 1]
                vals.append(p_next)
                p_prev, p = p, p_next
            got = memo[x] = (vals, w(x))
        return got

    return at, dom


def mp_coefficient_integrals(scheme, family: str, params, n: int):
    """High-precision quadrature of the defining coefficient integrals.

    Returns (int x p_n p_{n-1} w dx, int x p_n^2 w dx, int p_n^2 w dx),
    which an exactly orthonormal scheme reproduces as (a_n, b_n, 1).
    Polynomial and weight values are memoized per node, since the three
    integrals, and the calls for every n, share one quadrature rule.
    """
    at, dom = _mp_node_values(scheme, family, tuple(params))
    with mp.workdps(25):
        a_int = mp.quad(lambda x: x * at(x)[0][n] * at(x)[0][n - 1] * at(x)[1], dom)
        b_int = mp.quad(lambda x: x * at(x)[0][n] ** 2 * at(x)[1], dom)
        norm = mp.quad(lambda x: at(x)[0][n] ** 2 * at(x)[1], dom)
    return float(a_int), float(b_int), float(norm)


def delete_row_col(J: JacobiMatrix, k: int) -> tuple[JacobiMatrix, JacobiMatrix]:
    """Split J after deleting its k-th row and column (1-based).

    Deletion decouples the matrix into two diagonal blocks: the leading
    (k-1) x (k-1) Jacobi matrix and the trailing (n-k) x (n-k) block whose
    coefficients are the original ones shifted past index k.  Either block
    may be empty (k = 1 or k = n).
    """
    n = J.order
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    top = JacobiMatrix(J.diag[: k - 1], J.offdiag[: max(k - 2, 0)])
    bottom = JacobiMatrix(J.diag[k:], J.offdiag[k:])
    return top, bottom


def comp_sq(sd) -> np.ndarray:
    """Squared eigenvector components: row i, column j is lambda_j p_i(x_j)^2."""
    return sd.components**2


@dataclass(frozen=True)
class StochasticCheck:
    ok: bool
    max_row_err: float
    max_col_err: float
    min_entry: float


def check_doubly_stochastic(matrix, tol: float) -> StochasticCheck:
    """True iff all entries >= -tol and every row/column sum is within tol of 1.

    Accepts a StochasticMatrixResult or any square array-like; sums are
    recomputed here rather than trusted from the result.
    """
    if tol < 0.0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    if isinstance(matrix, StochasticMatrixResult):
        m = matrix.entries
    else:
        m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    row_err = float(np.max(np.abs(m.sum(axis=1) - 1.0)))
    col_err = float(np.max(np.abs(m.sum(axis=0) - 1.0)))
    min_entry = float(m.min())
    ok = min_entry >= -tol and row_err <= tol and col_err <= tol
    return StochasticCheck(ok, row_err, col_err, min_entry)
