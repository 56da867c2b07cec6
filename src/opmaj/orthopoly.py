"""Orthonormal polynomial evaluation, Christoffel numbers, Gaussian quadrature.

Polynomial values use the plain forward recurrence with no rescaling.
Inside the spectral interval the values needed here (at or near zeros) stay
bounded, but far outside it or at large degree the recurrence can overflow;
that is detected and reported so callers switch to the eigenvectors,
which encode the same products lambda * p^2 without evaluating polynomials.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .recurrence import RecurrenceScheme
from .spectra import frozen, scheme_spectral

__all__ = [
    "PolynomialValueSet", "QuadratureRule", "PolynomialOverflowError", "eval_all",
    "christoffel_numbers_formula", "gauss_rule", "gauss_quadrature", "jacobi_power_moment",
    "spectral_spot_points", "DEFAULT_SEED",
]

DEFAULT_SEED = 12345


class PolynomialOverflowError(ArithmeticError):
    """Forward recurrence left the representable range; use the spectral data."""


@dataclass(frozen=True, eq=False)
class PolynomialValueSet:
    """Values p_0(x)..p_n(x), optionally with derivatives p_0'(x)..p_n'(x)."""

    values: np.ndarray
    derivative_values: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gaussian rule: ascending nodes with positive weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def underflowed(self) -> np.ndarray:
        """Indices of the weights that underflowed to 0.0 or to a subnormal."""
        return np.flatnonzero(self.weights < np.finfo(float).tiny)


def eval_all(
    scheme: RecurrenceScheme, n: int, x, derivatives: bool = False
) -> PolynomialValueSet:
    """Evaluate p_0..p_n at x by the forward recurrence (needs depth >= n).

    Derivatives come from the differentiated recurrence
    p_{m+1}' = ((x - b_m) p_m' + p_m - a_m p_{m-1}') / a_{m+1}, which is
    exact and costs the same as the value pass.  An array of P points gives
    (P, n + 1) arrays, point-major, row i bit-equal to the call at point i.
    The first point that is not finite raises ValueError before the recurrence
    runs; an overflow raises PolynomialOverflowError, with no numpy warning, at
    the first point that overflows, naming its first non-finite degree.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    points = np.asarray(x, dtype=float)
    if not np.isfinite(points).all():
        raise ValueError(f"x must be finite, got {points[~np.isfinite(points)][0]}")
    arrays = _values(scheme.coefficients(n), n, points.ravel(), derivatives)
    return PolynomialValueSet(*(frozen(v[0] if points.ndim == 0 else v) for v in arrays))


def _values(table, n: int, points: np.ndarray, derivatives: bool = False) -> list:
    """``_forward``'s arrays, or ``eval_all``'s overflow error at the first point that overflows."""
    arrays = _forward(table, n, points, derivatives)
    bad = ~np.isfinite(arrays).all(axis=0)
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        degree, x = int(np.argmax(bad[i])), float(points[i])
        raise PolynomialOverflowError(f"recurrence overflowed at degree {degree} (x = {x})")
    return arrays


def _forward(table, n: int, points: np.ndarray, derivatives: bool) -> list:
    """Point-major values p_0..p_n (and derivatives) at the finite 1-D ``points``,
    unchecked, from ``table``, an (offdiag, diag) to a_n and b_{n-1} or further:
    a slice of it from index k on gives the order-k associated polynomials."""
    offdiag, diag = table
    a = [0.0, *offdiag.tolist()]  # a[m] = a_m, with a_0 = 0
    b = diag.tolist()
    # degree-major while the recurrence runs, from p_{-1} = 0 and p_0 = 1
    p = np.zeros((n + 2, points.size))
    p[1] = 1.0
    d = np.zeros_like(p) if derivatives else None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked by the callers
        for m in range(n):
            x_b = points - b[m]
            p[m + 2] = (x_b * p[m + 1] - a[m] * p[m]) / a[m + 1]
            if d is not None:
                d[m + 2] = (x_b * d[m + 1] + p[m + 1] - a[m] * d[m]) / a[m + 1]
    return [np.ascontiguousarray(v[1:].T) for v in (p, d) if v is not None]


def christoffel_numbers_formula(scheme: RecurrenceScheme, n: int) -> np.ndarray:
    """Christoffel numbers at the zeros of p_n by the reciprocal-sum formula.

    lambda_{k,n} = 1 / sum_{j<n} p_j(x_{k,n})^2, one recurrence pass over
    all zeros.  Agrees with the squared first eigenvector components of J_n;
    an overflow of the recurrence raises PolynomialOverflowError, as does an
    overflow of the sum of squares of finite values, in which case the
    spectral data (``scheme_spectral(scheme, n).christoffel``) is the
    supported path.  The error is the first one met zero by zero, ascending.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    nodes = scheme_spectral(scheme, n).eigenvalues
    table = scheme.coefficients(n - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        norm_sq = np.array([np.dot(row, row) for row in _forward(table, n - 1, nodes, False)[0]])
    for x, norm in zip(nodes, norm_sq):
        if not np.isfinite(norm):
            _values(table, n - 1, np.array([x]))  # raises if the values themselves overflowed
            raise PolynomialOverflowError(f"sum of squared values overflowed (x = {x})")
    return 1.0 / norm_sq


def gauss_rule(scheme: RecurrenceScheme, n: int) -> QuadratureRule:
    """Order-n Gaussian rule: zeros of p_n with Christoffel weights."""
    sd = scheme_spectral(scheme, n)
    return QuadratureRule(sd.eigenvalues, sd.christoffel)


def gauss_quadrature(rule: QuadratureRule, f: Callable[[float], float]) -> float:
    """Quadrature sum of f; exact for polynomials of degree <= 2n - 1 at n nodes.

    A sum that float64 cannot hold (f overflows, by OverflowError or to a
    non-finite value, at some node) raises ValueError, with no numpy warning.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
            fx = np.array([f(float(x)) for x in rule.nodes], dtype=float)
            value = float(np.dot(rule.weights, fx))
    except OverflowError:
        value = np.inf
    if not np.isfinite(value):
        raise ValueError(
            "the quadrature sum is not finite in float64: the integrand overflows "
            f"over nodes up to |x| = {float(np.abs(rule.nodes).max())!r}"
        )
    return value


def jacobi_power_moment(scheme: RecurrenceScheme, m: int) -> float:
    """m-th moment of the measure from the truncated-operator identity.

    m_k equals the top-left entry of J_K^k whenever K > k/2 (a length-k walk
    from the corner cannot feel the truncation).  This path never touches
    an eigen-decomposition, so it is independent of the quadrature path.
    A moment that float64 cannot hold raises ValueError, with no numpy warning.
    """
    if m < 0:
        raise ValueError(f"moment degree must be nonnegative, got {m}")
    return _moments(scheme.coefficients(m // 2), m + 1)[m]


def _moments(table, count: int) -> list[float]:
    """Moments 0..count-1, v[0] after each step of one walk of e_1 on J_K, K = (count + 1) // 2,
    sliced from the (offdiag, diag) ``table``: the walk of m steps cannot feel rows past m // 2,
    so each has the bits of its own degree's walk.  The first not finite raises ValueError."""
    K = (count + 1) // 2
    a, b = table[0][: K - 1], table[1][:K]
    v, out = np.eye(1, K)[0], [1.0]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        for m in range(1, count):
            v, w = b * v, v  # (b_i v_i + a_{i+1} v_{i+1}) + a_i v_{i-1}
            v[:-1] += a * w[1:]
            v[1:] += a * w[:-1]
            if not np.isfinite(v[0]):
                raise ValueError(f"the moment of degree {m} is not finite in float64: "
                                 f"J_{m // 2 + 1}^{m} overflows")
            out.append(float(v[0]))
    return out


def spectral_spot_points(scheme: RecurrenceScheme, n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Deterministic sample of 20 points inside the spectral interval of J_n."""
    sd = scheme_spectral(scheme, n)
    rng = np.random.default_rng(seed)
    lo, hi = sd.eigenvalues[0], sd.eigenvalues[-1]
    return lo + (hi - lo) * rng.random(20)
