import warnings

import numpy as np
import pytest

from opmaj import (
    DepthError,
    PolynomialOverflowError,
    associated_spectral,
    christoffel_numbers_formula,
    classical_scheme,
    eval_all,
    from_sequences,
    gauss_quadrature,
    gauss_rule,
    jacobi_power_moment,
    scheme_spectral,
    shifted,
    spectral_spot_points,
)

from oracles import closed_form_moment

FAMILIES = [
    ("chebyshev-u", {}),
    ("chebyshev-t", {}),
    ("legendre", {}),
    ("jacobi", {"alpha": 2.0, "beta": 0.5}),
    ("laguerre", {"alpha": 0.0}),
    ("hermite", {}),
]
BOUNDED = ("chebyshev-u", "chebyshev-t", "legendre", "jacobi")


def test_eval_chebyshev_closed_form():
    # orthonormal p_n for the semicircle weight are the U_n themselves
    s = classical_scheme("chebyshev-u", 5)
    vs = eval_all(s, 3, 0.5)
    assert vs.values[3] == pytest.approx(-1.0, abs=1e-15)  # 8x^3 - 4x at 1/2
    assert vs.values[0] == 1.0
    ds = eval_all(s, 3, 0.0, derivatives=True)
    assert ds.derivative_values[3] == pytest.approx(-4.0, abs=1e-15)  # 24x^2 - 4 at 0
    assert ds.derivative_values[0] == 0.0
    assert ds.derivative_values[1] == pytest.approx(1.0 / s.a(1))


def test_eval_normalization_any_scheme():
    s = from_sequences((2.0, 0.3), (1.0, -1.0, 4.0))
    assert eval_all(s, 0, 123.4).values[0] == 1.0


def test_eval_depth_error():
    with pytest.raises(DepthError):
        eval_all(classical_scheme("legendre", 4), 5, 0.0)


def test_eval_overflow_reported():
    # tiny off-diagonals amplify each recurrence step by 1e4
    s = from_sequences((1e-4,) * 100, (0.0,) * 101)
    with pytest.raises(PolynomialOverflowError):
        eval_all(s, 100, 1.0)


def test_christoffel_formula_overflow_reported():
    # at this order the reciprocal of the smallest weight exceeds the double
    # range, so the squared-value sums cannot be formed on the formula route
    s = classical_scheme("laguerre", 400, alpha=0.0)
    with pytest.raises(PolynomialOverflowError):
        christoffel_numbers_formula(s, 400)


def test_christoffel_formula_sum_overflow_reported():
    # every value p_j(x) is finite at this order, but the sum of their
    # squares at the largest node is not: no zero weight may come back
    # and no RuntimeWarning may precede the error
    s = classical_scheme("laguerre", 190, alpha=0.0)
    with warnings.catch_warnings(), pytest.raises(PolynomialOverflowError):
        warnings.simplefilter("error")
        christoffel_numbers_formula(s, 190)


def test_christoffel_formula_examples():
    s = classical_scheme("chebyshev-u", 5)
    assert christoffel_numbers_formula(s, 3) == pytest.approx([0.25, 0.5, 0.25], abs=1e-14)
    assert christoffel_numbers_formula(s, 1) == pytest.approx([1.0])
    lg = classical_scheme("legendre", 5)
    assert christoffel_numbers_formula(lg, 2) == pytest.approx([0.5, 0.5], abs=1e-14)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_christoffel_route_agreement(family, params):
    s = classical_scheme(family, 20, **params)
    for n in range(1, 21):
        lam_formula = christoffel_numbers_formula(s, n)
        lam_spectral = scheme_spectral(s, n).christoffel
        assert lam_formula == pytest.approx(lam_spectral, rel=1e-8)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_christoffel_derivative_product(family, params):
    # lambda_{k,n} * a_n * p_n'(x_k) * p_{n-1}(x_k) = 1
    s = classical_scheme(family, 20, **params)
    for n in range(1, 21):
        nodes = scheme_spectral(s, n).eigenvalues
        lam = christoffel_numbers_formula(s, n)
        for j, x in enumerate(nodes):
            vs = eval_all(s, n, x, derivatives=True)
            prod = lam[j] * s.a(n) * vs.derivative_values[n] * vs.values[n - 1]
            assert prod == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_christoffel_integral_form(family, params):
    """lambda_j equals the integral of the squared j-th Lagrange basis
    polynomial at the zeros, evaluated with a quadrature rule of order n+2
    (the integrand has degree 2n-2, so the rule is exact)."""
    s = classical_scheme(family, 20, **params)
    for n in range(1, 16):
        sd = scheme_spectral(s, n)
        nodes, lam = sd.eigenvalues, sd.christoffel
        rule = gauss_rule(s, n + 2)
        for j in range(n):
            others = np.delete(nodes, j)
            denom = np.prod(nodes[j] - others)
            vals = np.array([np.prod(x - others) / denom for x in rule.nodes])
            est = float(np.dot(rule.weights, vals**2))
            assert est == pytest.approx(lam[j], rel=1e-8)


def test_quadrature_examples():
    u2 = gauss_rule(classical_scheme("chebyshev-u", 3), 2)
    assert u2.nodes == pytest.approx([-0.5, 0.5], abs=1e-15)
    assert gauss_quadrature(u2, lambda x: x * x) == pytest.approx(0.25, abs=1e-15)
    assert gauss_quadrature(u2, lambda x: 1.0) == pytest.approx(1.0, abs=1e-15)
    lg2 = gauss_rule(classical_scheme("legendre", 3), 2)
    assert gauss_quadrature(lg2, lambda x: x**3) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_rule_weights_sum_to_one(family, params):
    s = classical_scheme(family, 30, **params)
    for n in (1, 3, 10, 30):
        rule = gauss_rule(s, n)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.all(np.diff(rule.nodes) > 0)


def test_moment_oracle_against_closed_forms():
    for family, params in FAMILIES:
        if family == "jacobi":
            continue
        s = classical_scheme(family, 32, **params)
        for m in range(0, 25):
            exact = closed_form_moment(family, m)
            got = jacobi_power_moment(s, m)
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_quadrature_exactness_against_moment_oracle(family, params):
    tol = 1e-10 if family in BOUNDED else 1e-8
    s = classical_scheme(family, 32, **params)
    moments = [jacobi_power_moment(s, m) for m in range(60)]
    for n in range(1, 31):
        rule = gauss_rule(s, n)
        for m in range(1, 2 * n):
            quad = float(np.dot(rule.weights, rule.nodes**m))
            scale = float(np.dot(rule.weights, np.abs(rule.nodes) ** m))
            assert abs(quad - moments[m]) <= tol * max(scale, 1e-300)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_christoffel_darboux_confluent(family, params):
    s = classical_scheme(family, 20, **params)
    for n in range(1, 16):
        for x in spectral_spot_points(s, max(n, 2), count=20):
            vs = eval_all(s, n + 1, x, derivatives=True)
            p, dp = vs.values, vs.derivative_values
            lhs = float(np.dot(p[: n + 1], p[: n + 1]))
            rhs = s.a(n + 1) * (dp[n + 1] * p[n] - p[n + 1] * dp[n])
            assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_wronskian_of_neighbor_and_associated(family, params):
    """a_{n+1} (p_n q_n - p_{n+1} q_{n-1}) = a_1 with q the once-shifted
    polynomials, checked against the scale of the two products."""
    s = classical_scheme(family, 20, **params)
    sh = shifted(s, 1)
    for n in range(1, 16):
        for x in spectral_spot_points(s, max(n, 2), count=20):
            p = eval_all(s, n + 1, x).values
            q = eval_all(sh, n, x).values
            t1 = s.a(n + 1) * p[n] * q[n]
            t2 = s.a(n + 1) * p[n + 1] * q[n - 1]
            scale = abs(t1) + abs(t2) + s.a(1)
            assert abs(t1 - t2 - s.a(1)) <= 1e-9 * scale


@pytest.mark.parametrize("family,params", FAMILIES)
def test_associated_factorization(family, params):
    """a_1 p^(k)_{n-k} = a_k (p_{k-1} q_{n-1} - p_n q_{k-2}) for
    2 <= k <= n-1, checked against the scale of the products."""
    s = classical_scheme(family, 20, **params)
    sh = shifted(s, 1)
    for n in range(3, 16):
        for x in spectral_spot_points(s, n, count=20):
            p = eval_all(s, n, x).values
            q = eval_all(sh, n - 1, x).values
            for k in range(2, n):
                r = eval_all(shifted(s, k), n - k, x).values
                lhs = s.a(1) * r[n - k]
                u1 = s.a(k) * p[k - 1] * q[n - 1]
                u2 = s.a(k) * p[n] * q[k - 2]
                assert abs(u1 - u2 - lhs) <= 1e-9 * (abs(u1) + abs(u2) + abs(lhs))


def test_associated_spectral_examples():
    s = classical_scheme("chebyshev-u", 5)
    sd = associated_spectral(s, 1, 2)
    assert sd.eigenvalues == pytest.approx([-0.5, 0.5], abs=1e-15)
    assert sd.christoffel == pytest.approx([0.5, 0.5], abs=1e-15)
    lg = classical_scheme("laguerre", 3, alpha=0.0)
    assert associated_spectral(lg, 1, 1).eigenvalues == pytest.approx([3.0])


def test_associated_spectral_zero_shift_identity():
    s = classical_scheme("legendre", 8)
    assert associated_spectral(s, 0, 5) is scheme_spectral(s, 5)
    assert associated_spectral(s, 3, 4) is scheme_spectral(shifted(s, 3), 4)


def test_associated_spectral_depth():
    s = classical_scheme("legendre", 5)
    associated_spectral(s, 2, 4)
    with pytest.raises(DepthError):
        associated_spectral(s, 2, 5)


def test_spot_points_deterministic_and_inside():
    s = classical_scheme("legendre", 10)
    pts = spectral_spot_points(s, 8, count=20, seed=7)
    again = spectral_spot_points(s, 8, count=20, seed=7)
    assert np.array_equal(pts, again)
    x = scheme_spectral(s, 8).eigenvalues
    assert np.all(pts >= x[0]) and np.all(pts <= x[-1])
    assert not np.array_equal(pts, spectral_spot_points(s, 8, count=20, seed=8))
