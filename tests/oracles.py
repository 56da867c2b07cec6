"""Independent oracles used only by the tests.

Everything here deliberately avoids the package's evaluation and matrix
construction code paths: polynomial values come from a local recurrence
loop, Christoffel numbers from local reciprocal sums, stochastic-matrix
entries from row-normalized quotients, measure moments from closed forms or
high-precision quadrature of the classical weight functions.  The
schemes of the ``coeffs`` golden digest are read from its script, and
verify's seeded spot points are drawn again by its rule.  The
reference helpers at the end (row/column deletion of a Jacobi matrix, its
dense copy, the squared eigenvector components, a recomputing doubly-stochastic check, the
library's deletion-block solve applied to a whole Jacobi matrix, and the
certificate entries and trace residuals restated from the block
decompositions) are plain restatements of definitions that only the tests
read.
"""
from __future__ import annotations

import functools
import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import mpmath as mp
import numpy as np

from opmaj import (
    DEFAULT_SEED,
    StochasticMatrixResult,
    from_sequences,
    jacobi_matrix,
    scheme_spectral,
)
from opmaj.spectra import JacobiMatrix, _block_decompose


def poly_values(scheme, n, x):
    """p_0(x)..p_n(x) by a recurrence loop local to the tests."""
    a, b = scheme.coefficients(n)
    a = [0.0, *a.tolist()]  # a[m] = a_m, with a_0 = 0 for p_{-1} = 0
    b = b.tolist()
    vals = [1.0]
    p_prev, p = 0.0, 1.0
    for m in range(n):
        p_next = ((x - b[m]) * p - a[m] * p_prev) / a[m + 1]
        vals.append(p_next)
        p_prev, p = p, p_next
    return np.array(vals)


def christoffel_by_sum(scheme, n, nodes):
    """Reciprocal sums of squared polynomial values at given nodes."""
    return np.array(
        [1.0 / float(np.dot(v, v)) for v in (poly_values(scheme, n - 1, x) for x in nodes)]
    )


def associated_scheme(scheme, k, m):
    """Scheme of the order-k associated polynomials, of depth m: the tail from
    index k of the scheme's table to index k + m, with the table's bits."""
    offdiag, diag = scheme.coefficients(k + m)
    return from_sequences(offdiag[k:], diag[k:])


def associated_spectral(scheme, k, m):
    """Spectral data of the order-k associated scheme's order-m Jacobi matrix (the
    zeros of the associated polynomial), read from the library's cache."""
    return scheme_spectral(associated_scheme(scheme, k, m - 1), m)


def spot_points(scheme, n, seed=DEFAULT_SEED):
    """The 20 points verify's identity checks draw with ``seed`` inside the spectral
    interval [x_1, x_n] of p_n's zeros, by the same rule."""
    x = scheme_spectral(scheme, n).eigenvalues
    return x[0] + (x[-1] - x[0]) * np.random.default_rng(seed).random(20)


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


def mp_component_squares(scheme, n, zeros, rows, dps=50) -> list:
    """lambda_j p_r(x_j)^2, the squared row-r components of J_n's unit eigenvectors,
    for r in ``rows``, at the zero x_j of p_n nearest each float of ``zeros``: one list
    of mpf values per zero, in O(n) per zero.  Each zero is refined by Newton's method
    in ``dps``-digit mpmath on J_n's stored table (a_n p_n needs no a_n), and the
    products come from the mpmath recurrence, lambda_j = 1 / sum_{i<n} p_i(x_j)^2."""
    offdiag, diag = scheme.coefficients(n - 1)
    a = [mp.mpf(0)] + [mp.mpf(v) for v in offdiag.tolist()]  # a[m] = a_m, a_0 = 0
    b = [mp.mpf(v) for v in diag.tolist()]
    out = []
    with mp.workdps(dps):
        for x0 in zeros:
            x = mp.mpf(float(x0))
            for _ in range(100):
                # a_n p_n and its derivative at x, by the recurrence and its derivative
                p_prev, p_cur, d_prev, d_cur = mp.mpf(0), mp.mpf(1), mp.mpf(0), mp.mpf(0)
                for m in range(n):
                    top = (x - b[m]) * p_cur - a[m] * p_prev
                    d_top = (x - b[m]) * d_cur + p_cur - a[m] * d_prev
                    if m < n - 1:
                        p_prev, p_cur = p_cur, top / a[m + 1]
                        d_prev, d_cur = d_cur, d_top / a[m + 1]
                step = top / d_top
                x -= step
                if abs(step) <= abs(x) * mp.mpf(10) ** (5 - dps):
                    break
            values = [mp.mpf(1)]
            p_prev, p_cur = mp.mpf(0), mp.mpf(1)
            for m in range(n - 1):
                p_prev, p_cur = p_cur, ((x - b[m]) * p_cur - a[m] * p_prev) / a[m + 1]
                values.append(p_cur)
            weight = 1 / mp.fsum(v * v for v in values)
            out.append([weight * values[r] ** 2 for r in rows])
    return out


@functools.lru_cache(maxsize=None)
def golden_coeff_schemes() -> list:
    """(family, params) of every scheme the ``coeffs`` golden digest pins, read from
    ``scripts/golden_outputs.py``, so that the tests hold the same list."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "golden_outputs.py"
    spec = importlib.util.spec_from_file_location("golden_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COEFF_SCHEMES


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


def dense(J: JacobiMatrix) -> np.ndarray:
    """Dense symmetric copy."""
    n = J.order
    out = np.zeros((n, n))
    np.fill_diagonal(out, J.diag)
    idx = np.arange(n - 1)
    out[idx, idx + 1] = J.offdiag
    out[idx + 1, idx] = J.offdiag
    return out


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


def block_decompose(J: JacobiMatrix):
    """The library's deletion-block solve (``dstevd``) of a whole Jacobi matrix."""
    return _block_decompose(J.diag, J.offdiag)


def _deletion_blocks(scheme, n, k):
    """(block eigenbasis, the rows of J_n it spans) of C(k), leading block first."""
    blocks = []
    if k >= 2:
        blocks.append((block_decompose(jacobi_matrix(scheme, k - 1)), slice(0, k - 1)))
    if k <= n - 1:
        assoc = block_decompose(jacobi_matrix(associated_scheme(scheme, k, n - k - 1), n - k))
        blocks.append((assoc, slice(k, n)))
    return blocks


def overlap_entries(scheme, n, k) -> np.ndarray:
    """Entries of C(k): each block's squared overlaps with the matching rows
    of the J_n eigenvectors, stacked, then the squared row k of those."""
    sd_n = scheme_spectral(scheme, n)
    if n == 1:
        return np.ones((1, 1))
    blocks = _deletion_blocks(scheme, n, k)
    overlaps = [(sd.components.T @ sd_n.components[rows]) ** 2 for sd, rows in blocks]
    return np.concatenate([*overlaps, sd_n.components[k - 1 : k] ** 2])


def trace_residual(scheme, n, k) -> float:
    """|b_{k-1} + (block eigenvalue sums) - sum of the zeros of p_n| for C(k)."""
    total = float(scheme.coefficients(n - 1)[1][k - 1])
    for sd, _ in _deletion_blocks(scheme, n, k):
        total += float(sd.eigenvalues.sum())
    return abs(total - float(scheme_spectral(scheme, n).eigenvalues.sum()))
