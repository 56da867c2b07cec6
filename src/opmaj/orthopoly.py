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

from .recurrence import RecurrenceScheme, shifted
from .spectra import SpectralData, jacobi_matrix, readonly, scheme_spectral

__all__ = [
    "PolynomialValueSet",
    "QuadratureRule",
    "PolynomialOverflowError",
    "eval_all",
    "christoffel_numbers_formula",
    "gauss_rule",
    "gauss_quadrature",
    "associated_spectral",
    "jacobi_power_moment",
    "spectral_spot_points",
    "DEFAULT_SEED",
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
    scheme: RecurrenceScheme, n: int, x: float, derivatives: bool = False
) -> PolynomialValueSet:
    """Evaluate p_0..p_n at x by the forward recurrence (needs depth >= n).

    Derivatives come from the differentiated recurrence
    p_{m+1}' = ((x - b_m) p_m' + p_m - a_m p_{m-1}') / a_{m+1}, which is
    exact and costs the same as the value pass.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    offdiag, diag = scheme.coefficients(n)
    a = [0.0, *offdiag.tolist()]  # a[m] = a_m, with a_0 = 0
    b = diag.tolist()
    x = float(x)
    vals = np.empty(n + 1)
    vals[0] = 1.0
    ders = np.empty(n + 1) if derivatives else None
    if ders is not None:
        ders[0] = 0.0
    p_prev, p = 0.0, 1.0
    d_prev, d = 0.0, 0.0
    for m in range(n):
        a_next, b_m, a_m = a[m + 1], b[m], a[m]
        p_next = ((x - b_m) * p - a_m * p_prev) / a_next
        vals[m + 1] = p_next
        if ders is not None:
            d_next = ((x - b_m) * d + p - a_m * d_prev) / a_next
            ders[m + 1] = d_next
            d_prev, d = d, d_next
        p_prev, p = p, p_next
    bad = ~np.isfinite(vals)
    if ders is not None:
        bad |= ~np.isfinite(ders)
    if bad.any():
        degree = int(np.argmax(bad))
        raise PolynomialOverflowError(
            f"recurrence overflowed at degree {degree} (x = {x})"
        )
    return PolynomialValueSet(readonly(vals), readonly(ders) if ders is not None else None)


def christoffel_numbers_formula(scheme: RecurrenceScheme, n: int) -> np.ndarray:
    """Christoffel numbers at the zeros of p_n by the reciprocal-sum formula.

    lambda_{k,n} = 1 / sum_{j<n} p_j(x_{k,n})^2.  Agrees with the squared
    first eigenvector components of J_n; an overflow of the recurrence
    raises PolynomialOverflowError, as does an overflow of the sum of squares
    of finite values, in which case the spectral data
    (``scheme_spectral(scheme, n).christoffel``) is the supported path.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    nodes = scheme_spectral(scheme, n).eigenvalues
    out = np.empty(n)
    for k, x in enumerate(nodes):
        vals = eval_all(scheme, n - 1, x).values
        with np.errstate(over="ignore"):  # reported below, not warned
            norm_sq = float(np.dot(vals, vals))
        if not np.isfinite(norm_sq):
            raise PolynomialOverflowError(f"sum of squared values overflowed (x = {x})")
        out[k] = 1.0 / norm_sq
    return out


def gauss_rule(scheme: RecurrenceScheme, n: int) -> QuadratureRule:
    """Order-n Gaussian rule: zeros of p_n with Christoffel weights."""
    sd = scheme_spectral(scheme, n)
    return QuadratureRule(sd.eigenvalues, sd.christoffel)


def gauss_quadrature(rule: QuadratureRule, f: Callable[[float], float]) -> float:
    """Quadrature sum of f; exact for polynomials of degree <= 2n - 1 at n nodes."""
    fx = np.array([f(float(x)) for x in rule.nodes], dtype=float)
    return float(np.dot(rule.weights, fx))


def associated_spectral(scheme: RecurrenceScheme, k: int, m: int) -> SpectralData:
    """Spectral data of the k-shifted scheme's order-m Jacobi matrix.

    Eigenvalues are the zeros of the degree-m associated polynomial of
    order k; the squared first eigenvector row (``christoffel``, derived on
    access, not stored) holds the Christoffel numbers of the shifted
    (associated) measure.  This is ``scheme_spectral(shifted(scheme,
    k), m)``, cached there; k = 0 is the plain decomposition.
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    return scheme_spectral(shifted(scheme, k), m)


def jacobi_power_moment(scheme: RecurrenceScheme, m: int) -> float:
    """m-th moment of the measure from the truncated-operator identity.

    m_k equals the top-left entry of J_K^k whenever K > k/2 (a length-k walk
    from the corner cannot feel the truncation).  This path never touches
    an eigen-decomposition, so it is independent of the quadrature path.
    """
    if m < 0:
        raise ValueError(f"moment degree must be nonnegative, got {m}")
    if m == 0:
        return 1.0
    K = m // 2 + 1
    J = jacobi_matrix(scheme, K).dense()
    v = np.zeros(K)
    v[0] = 1.0
    for _ in range(m):
        v = J @ v
    return float(v[0])


def spectral_spot_points(
    scheme: RecurrenceScheme, n: int, count: int = 20, seed: int = DEFAULT_SEED
) -> np.ndarray:
    """Deterministic sample of points inside the spectral interval of J_n."""
    sd = scheme_spectral(scheme, n)
    rng = np.random.default_rng(seed)
    lo, hi = sd.eigenvalues[0], sd.eigenvalues[-1]
    return lo + (hi - lo) * rng.random(count)
