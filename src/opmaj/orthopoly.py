"""Orthonormal polynomial evaluation, Christoffel numbers, Gaussian quadrature.

The Christoffel numbers come from the recurrence that ``spectra._refine`` runs,
scaled by exact powers of two.  The checked, unscaled values with derivatives
(``_values``) serve verify's identity rows, to degree 16; where they overflow,
which extreme custom tables make them do, the first point is reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .recurrence import RecurrenceScheme
from .spectra import _recurrence_rows, scheme_spectral

__all__ = [
    "QuadratureRule", "PolynomialOverflowError", "christoffel_numbers_formula",
    "gauss_rule", "gauss_quadrature",
]


class PolynomialOverflowError(ArithmeticError):
    """A recurrence pass left float64: an unscaled one, or a scaled one in a single step."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gaussian rule: ascending nodes with positive weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def underflowed(self) -> np.ndarray:
        """Indices of the weights that underflowed to 0.0 or to a subnormal."""
        return np.flatnonzero(self.weights < np.finfo(float).tiny)


def _values(table, n: int, points: np.ndarray, derivatives: bool = False) -> list:
    """Point-major (P, n + 1) values p_0..p_n (and derivatives) at the P finite ``points``,
    unscaled, from ``table``, an (offdiag, diag) to a_n and b_{n-1} or further: a slice of
    it from index k on gives the order-k associated polynomials.  The derivatives come
    from the differentiated recurrence p_{m+1}' = ((x - b_m) p_m' + p_m - a_m p_{m-1}') /
    a_{m+1}; row i has the bits of the pass at point i alone.  The first point that
    overflows raises PolynomialOverflowError, unwarned, naming its first non-finite degree."""
    offdiag, diag = table
    a = [0.0, *offdiag.tolist()]  # a[m] = a_m, with a_0 = 0
    b = diag.tolist()
    # degree-major while the recurrence runs, from p_{-1} = 0 and p_0 = 1
    p = np.zeros((n + 2, points.size))
    p[1] = 1.0
    d = np.zeros_like(p) if derivatives else None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        for m in range(n):
            x_b = points - b[m]
            p[m + 2] = (x_b * p[m + 1] - a[m] * p[m]) / a[m + 1]
            if d is not None:
                d[m + 2] = (x_b * d[m + 1] + p[m + 1] - a[m] * d[m]) / a[m + 1]
    arrays = [np.ascontiguousarray(v[1:].T) for v in (p, d) if v is not None]
    bad = ~np.isfinite(arrays).all(axis=0)
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        degree, x = int(np.argmax(bad[i])), float(points[i])
        raise PolynomialOverflowError(f"recurrence overflowed at degree {degree} (x = {x})")
    return arrays


def christoffel_numbers_formula(scheme: RecurrenceScheme, n: int) -> np.ndarray:
    """Christoffel numbers at the zeros of p_n by the reciprocal-sum formula.

    lambda_{k,n} = 1 / sum_{j<n} p_j(x_{k,n})^2, one scaled recurrence pass over all zeros
    (``_christoffel``), at every order ``scheme_spectral`` serves; a weight below the
    double range comes back as 0.0 or a subnormal.  A pass that breaks down to NaN raises
    PolynomialOverflowError for its first zero.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    nodes = scheme_spectral(scheme, n).eigenvalues
    return _christoffel(scheme.coefficients(n - 1), n - 1, nodes)[0]


def _christoffel(table, m: int, nodes: np.ndarray) -> tuple:
    """(lambda, p, inv) at the ascending ``nodes``: lambda = 1 / sum_{j<=m} p_j^2, and p_0..p_m
    (point-major) and inv = 1 / sum p_j^2 at the scale 2**(-512 s) of one ``_recurrence_rows``
    pass over ``table`` (to a_m, b_{m-1} or further) after s rescales of a node, one more
    where its sum leaves float64: lambda = inv * 2**(-1024 s), exactly."""
    values, ends = np.zeros((nodes.size, m + 1)), np.full(nodes.size, m)
    with np.errstate(all="ignore"):  # a pass that breaks down is reported below, not warned
        _, shifts = _recurrence_rows(table[1][: m + 1], table[0][:m], nodes, ends, values.T)
        norm_sq = np.array([np.dot(row, row) for row in values])
        over = np.flatnonzero(norm_sq == np.inf)
        values[over] *= 2.0**-512
        shifts[over] += 1
        norm_sq[over] = [np.dot(row, row) for row in values[over]]
    for x, norm, row in zip(nodes.tolist(), norm_sq, values):
        if np.isnan(norm):  # named as _values names it
            raise PolynomialOverflowError(
                f"recurrence overflowed at degree {int(np.argmin(np.isfinite(row)))} (x = {x})")
    inv = 1.0 / norm_sq
    return np.ldexp(inv, -1024 * shifts), values, inv


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
