import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmaj import (
    DepthError,
    PolynomialOverflowError,
    christoffel_numbers_formula,
    classical_scheme,
    eval_all,
    from_sequences,
    gauss_quadrature,
    gauss_rule,
    jacobi_matrix,
    jacobi_power_moment,
    scheme_spectral,
    shifted,
    spectral_spot_points,
    verify_scheme,
)

from opmaj.orthopoly import _moments, _values
from opmaj.verification import IDENTITY_N_CAP

from oracles import closed_form_moment, dense, golden_coeff_schemes

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
    assert ds.derivative_values[1] == pytest.approx(1.0 / s.coefficients(1)[0][0])


def test_eval_normalization_any_scheme():
    s = from_sequences((2.0, 0.3), (1.0, -1.0, 4.0))
    assert eval_all(s, 0, 123.4).values[0] == 1.0


def test_eval_depth_error():
    with pytest.raises(DepthError):
        eval_all(classical_scheme("legendre", 4), 5, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_eval_all_refuses_a_non_finite_point_by_name(bad):
    # bad input, not an overflow: refused before the recurrence runs
    s = classical_scheme("legendre", 5)
    for x in (bad, [0.5, bad, 0.25, bad], [[0.0], [bad]]):
        with pytest.raises(ValueError, match=f"^x must be finite, got {bad}$"):
            eval_all(s, 3, x)


def test_eval_overflow_reported():
    # tiny off-diagonals amplify each recurrence step by 1e4
    s = from_sequences((1e-4,) * 100, (0.0,) * 101)
    with pytest.raises(PolynomialOverflowError):
        eval_all(s, 100, 1.0)


def _pointwise(scheme, n, x):
    """The forward recurrence at one point in Python floats: the reference bits."""
    offdiag, diag = scheme.coefficients(n)
    a, b = [0.0, *offdiag.tolist()], diag.tolist()
    vals, ders = [0.0, 1.0], [0.0, 0.0]  # from p_{-1} = 0 and p_0 = 1
    for m in range(n):
        p, p_prev, d, d_prev = vals[-1], vals[-2], ders[-1], ders[-2]
        vals.append(((x - b[m]) * p - a[m] * p_prev) / a[m + 1])
        ders.append(((x - b[m]) * d + p - a[m] * d_prev) / a[m + 1])
    return np.array(vals[1:]), np.array(ders[1:])


BIT_PIN_SCHEMES = [
    classical_scheme("legendre", 40),
    classical_scheme("laguerre", 40, alpha=0.0),
    classical_scheme("hermite", 40),
    classical_scheme("chebyshev-t", 40),
    classical_scheme("jacobi", 40, alpha=0.5, beta=-0.5),
    from_sequences([0.3 + 0.1 * (i % 7) for i in range(40)],
                   [0.2 * (i % 5) - 0.4 for i in range(41)]),
]


@pytest.mark.parametrize("scheme", BIT_PIN_SCHEMES, ids=lambda s: s.kind.value)
@pytest.mark.parametrize("shift", [0, 1, 5])
def test_eval_all_over_an_array_is_bit_equal_to_pointwise_calls(scheme, shift):
    s = shifted(scheme, shift)
    for n in (1, 12, 30):
        zeros = scheme_spectral(s, n).eigenvalues
        for points in (spectral_spot_points(s, n), zeros):
            many = eval_all(s, n, points, derivatives=True)
            assert many.values.shape == many.derivative_values.shape == (points.size, n + 1)
            assert many.values.flags.c_contiguous and not many.values.flags.writeable
            for i, x in enumerate(points):
                one = eval_all(s, n, x, derivatives=True)
                assert one.values.shape == one.derivative_values.shape == (n + 1,)
                vals, ders = _pointwise(s, n, float(x))
                for got in (many.values[i], one.values):
                    assert got.tobytes() == vals.tobytes()
                for got in (many.derivative_values[i], one.derivative_values):
                    assert got.tobytes() == ders.tobytes()
            assert eval_all(s, n, points).derivative_values is None


def tops(table, n, points):
    """p^(k)_{n-k}, 2 <= k <= n - 1, as the identity checks read them: each from one
    pass over the slice of ``table`` from index k on, shift by shift."""
    offdiag, diag = table
    return [_values((offdiag[k:], diag[k:]), n - k, points)[0][:, n - k] for k in range(2, n)]


@pytest.mark.parametrize("family,params", FAMILIES)
def test_associated_tops_are_bit_equal_to_each_shifts_eval_all(family, params):
    # the identity checks evaluate shift k on the slice of one table from index
    # k on: every degree of every shift is eval_all's for its own scheme
    s = classical_scheme(family, IDENTITY_N_CAP + 1, **params)
    offdiag, diag = table = s.coefficients(IDENTITY_N_CAP + 1)
    for n in range(2, IDENTITY_N_CAP + 1):
        points = spectral_spot_points(s, n)
        for k in range(n):
            values = eval_all(shifted(s, k), n - k, points).values
            tail = _values((offdiag[k:], diag[k:]), n - k, points)
            assert len(tail) == 1 and tail[0].tobytes() == values.tobytes(), (n, k)
        assert [top.tobytes() for top in tops(table, n, points)] == [
            eval_all(shifted(s, k), n - k, points).values[:, n - k].tobytes()
            for k in range(2, n)
        ]


def test_associated_tops_raise_the_first_shifts_overflow():
    # growth about 1e4 per step at x = 1 and 2, slower for later shifts, none
    # at x = 0: at order 99 shifts 2..13 overflow, not all at the same degree;
    # each tail pass raises what eval_all raises for its shift, so the shifts
    # in turn raise shift 2's, with no numpy warning
    s = from_sequences([1e-4 * 1.03**i for i in range(100)], (0.0,) * 101)
    n, points = 99, np.array([0.0, 1.0, 2.0])
    offdiag, diag = table = s.coefficients(n)
    overflows = []
    for k in range(2, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                expected = eval_all(shifted(s, k), n - k, points).values
            except PolynomialOverflowError as exc:
                overflows.append((k, str(exc)))
                with pytest.raises(PolynomialOverflowError) as err:
                    _values((offdiag[k:], diag[k:]), n - k, points)
                assert str(err.value) == str(exc), k
            else:
                tail = _values((offdiag[k:], diag[k:]), n - k, points)[0]
                assert tail.tobytes() == expected.tobytes(), k
    assert [k for k, _ in overflows] == list(range(2, 14))
    assert overflows[0][1] != overflows[1][1]
    with warnings.catch_warnings(), pytest.raises(PolynomialOverflowError) as err:
        warnings.simplefilter("error")
        tops(table, n, points)
    assert str(err.value) == overflows[0][1]


def test_eval_all_over_an_array_raises_the_first_pointwise_overflow():
    # growth 1e4 per step at x = 1 and faster at x = 2; x = 0 stays bounded
    s = from_sequences((1e-4,) * 100, (0.0,) * 101)
    eval_all(s, 100, 0.0, derivatives=True)
    for derivatives in (False, True):
        messages = []
        for x in (1.0, 2.0):
            with pytest.raises(PolynomialOverflowError) as pointwise:
                eval_all(s, 100, x, derivatives=derivatives)
            messages.append(str(pointwise.value))
        assert messages[0] != messages[1]  # x = 2 overflows at a lower degree
        assert messages[0].endswith(" (x = 1.0)")
        with warnings.catch_warnings(), pytest.raises(PolynomialOverflowError) as err:
            warnings.simplefilter("error")
            eval_all(s, 100, np.array([0.0, 1.0, 2.0]), derivatives=derivatives)
        assert str(err.value) == messages[0]


@pytest.mark.parametrize("n", [190, 400])
def test_christoffel_formula_raises_the_first_nodewise_error(n):
    # laguerre p_399 overflows by recurrence at its 7 largest zeros, and the
    # sum of squares overflows first, at smaller zeros: node-by-node
    # evaluation in ascending order meets the sum's error first
    s = classical_scheme("laguerre", n, alpha=0.0)
    expected = None
    for x in scheme_spectral(s, n).eigenvalues:
        try:
            vals = eval_all(s, n - 1, x).values
        except PolynomialOverflowError as exc:
            expected = exc
            break
        with np.errstate(over="ignore"):
            if not np.isfinite(np.dot(vals, vals)):
                expected = PolynomialOverflowError(f"sum of squared values overflowed (x = {x})")
                break
    assert expected is not None
    with warnings.catch_warnings(), pytest.raises(PolynomialOverflowError) as err:
        warnings.simplefilter("error")
        christoffel_numbers_formula(s, n)
    assert str(err.value) == str(expected)


def test_christoffel_formula_raises_a_values_overflow_by_degree():
    # a_2 = 1e-320 sends p_2 past float64 at the middle zero 0 and nowhere
    # else: there the values overflow, not only their sum, and the error
    # names the degree, as eval_all's at that zero does
    s = from_sequences([1.0, 1e-320], [0.0, 0.0, 0.0])
    assert scheme_spectral(s, 3).eigenvalues.tolist() == [-1.0, 0.0, 1.0]
    with pytest.raises(PolynomialOverflowError) as pointwise:
        eval_all(s, 2, 0.0)
    with warnings.catch_warnings(), pytest.raises(PolynomialOverflowError) as err:
        warnings.simplefilter("error")
        christoffel_numbers_formula(s, 3)
    assert str(err.value) == str(pointwise.value) == "recurrence overflowed at degree 2 (x = 0.0)"


def test_moment_overflow_refused_by_name():
    # J_2^2 e_0 = (1e400, 0): the walk leaves float64 at its second step
    s = from_sequences((1e200, 1.0), (0.0, 0.0, 0.0))
    assert jacobi_power_moment(s, 1) == 0.0
    with warnings.catch_warnings(), pytest.raises(ValueError, match="^the moment of degree 2 is"):
        warnings.simplefilter("error")
        jacobi_power_moment(s, 2)


def test_moment_overflow_refused_at_the_first_degree_that_overflows():
    # J_3 e_0 walks to (1, 0, 1e160) in two steps, to (0, inf, 0) in three, and
    # its corner is first not finite at degree 4, by either route
    s = from_sequences((1.0, 1e160, 1.0), (0.0,) * 4)
    message = "^the moment of degree 4 is not finite in float64: J_3\\^4 overflows$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [jacobi_power_moment(s, m) for m in range(4)] == [1.0, 0.0, 1.0, 0.0]
        with pytest.raises(ValueError, match=message):
            jacobi_power_moment(s, 4)
        with pytest.raises(ValueError, match=message):
            verify_scheme(s, 3)


def _hex(moments) -> list[str]:
    return [float(v).hex() for v in moments]


def test_one_walk_equals_the_walk_of_each_degree():
    # a walk of m steps from the corner never reaches past row m // 2 on its
    # way back, so the depth of the table cannot move the bits of a moment
    for family, params in golden_coeff_schemes():
        s = classical_scheme(family, 61, **params)
        expected = _hex(jacobi_power_moment(s, m) for m in range(60))
        assert _hex(_moments(s.coefficients(61), 60)) == expected, (family, params)


magnitudes = st.floats(min_value=1e-3, max_value=1e3)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_one_walk_equals_the_walk_of_each_degree_random_schemes(data):
    depth = data.draw(st.integers(61, 70))
    a = data.draw(st.lists(magnitudes, min_size=depth, max_size=depth))
    b = data.draw(st.lists(st.tuples(magnitudes, st.sampled_from((-1.0, 1.0))),
                           min_size=depth + 1, max_size=depth + 1))
    s = from_sequences(a, [v * sign for v, sign in b])
    expected = _hex(jacobi_power_moment(s, m) for m in range(60))
    assert _hex(_moments(s.coefficients(61), 60)) == expected


@pytest.mark.parametrize("family,params", FAMILIES)
def test_moments_agree_with_a_dense_walk(family, params):
    # the walk on the table against J_K^m e_0 by dense products, K = m // 2 + 1
    s = classical_scheme(family, 32, **params)
    for m in range(60):
        J = dense(jacobi_matrix(s, m // 2 + 1))
        v = np.eye(J.shape[0])[0]
        for _ in range(m):
            v = J @ v
        assert jacobi_power_moment(s, m) == pytest.approx(v[0], rel=1e-12), m


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
    a = [0.0, *s.coefficients(20)[0].tolist()]  # a[i] = a_i
    for n in range(1, 21):
        nodes = scheme_spectral(s, n).eigenvalues
        lam = christoffel_numbers_formula(s, n)
        for j, x in enumerate(nodes):
            vs = eval_all(s, n, x, derivatives=True)
            prod = lam[j] * a[n] * vs.derivative_values[n] * vs.values[n - 1]
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


def test_quadrature_overflow_raises_value_error():
    rule = gauss_rule(classical_scheme("laguerre", 10, alpha=0.0), 10)
    for f in (lambda x: x**400, lambda x: np.float64(x) * 1e308):  # OverflowError, inf
        with pytest.raises(ValueError, match="quadrature sum is not finite"):
            gauss_quadrature(rule, f)


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
    a = [0.0, *s.coefficients(20)[0].tolist()]  # a[i] = a_i
    for n in range(1, 16):
        for x in spectral_spot_points(s, max(n, 2)):
            vs = eval_all(s, n + 1, x, derivatives=True)
            p, dp = vs.values, vs.derivative_values
            lhs = float(np.dot(p[: n + 1], p[: n + 1]))
            rhs = a[n + 1] * (dp[n + 1] * p[n] - p[n + 1] * dp[n])
            assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_wronskian_of_neighbor_and_associated(family, params):
    """a_{n+1} (p_n q_n - p_{n+1} q_{n-1}) = a_1 with q the once-shifted
    polynomials, checked against the scale of the two products."""
    s = classical_scheme(family, 20, **params)
    sh = shifted(s, 1)
    a = [0.0, *s.coefficients(20)[0].tolist()]  # a[i] = a_i
    for n in range(1, 16):
        for x in spectral_spot_points(s, max(n, 2)):
            p = eval_all(s, n + 1, x).values
            q = eval_all(sh, n, x).values
            t1 = a[n + 1] * p[n] * q[n]
            t2 = a[n + 1] * p[n + 1] * q[n - 1]
            scale = abs(t1) + abs(t2) + a[1]
            assert abs(t1 - t2 - a[1]) <= 1e-9 * scale


@pytest.mark.parametrize("family,params", FAMILIES)
def test_associated_factorization(family, params):
    """a_1 p^(k)_{n-k} = a_k (p_{k-1} q_{n-1} - p_n q_{k-2}) for
    2 <= k <= n-1, checked against the scale of the products."""
    s = classical_scheme(family, 20, **params)
    sh = shifted(s, 1)
    a = [0.0, *s.coefficients(20)[0].tolist()]  # a[i] = a_i
    for n in range(3, 16):
        for x in spectral_spot_points(s, n):
            p = eval_all(s, n, x).values
            q = eval_all(sh, n - 1, x).values
            for k in range(2, n):
                r = eval_all(shifted(s, k), n - k, x).values
                lhs = a[1] * r[n - k]
                u1 = a[k] * p[k - 1] * q[n - 1]
                u2 = a[k] * p[n] * q[k - 2]
                assert abs(u1 - u2 - lhs) <= 1e-9 * (abs(u1) + abs(u2) + abs(lhs))


def test_associated_spectral_examples():
    s = classical_scheme("chebyshev-u", 5)
    sd = scheme_spectral(shifted(s, 1), 2)
    assert sd.eigenvalues == pytest.approx([-0.5, 0.5], abs=1e-15)
    assert sd.christoffel == pytest.approx([0.5, 0.5], abs=1e-15)
    lg = classical_scheme("laguerre", 3, alpha=0.0)
    assert scheme_spectral(shifted(lg, 1), 1).eigenvalues == pytest.approx([3.0])


def test_associated_spectral_depth():
    s = classical_scheme("legendre", 5)
    scheme_spectral(shifted(s, 2), 4)
    with pytest.raises(DepthError):
        scheme_spectral(shifted(s, 2), 5)


def test_spot_points_deterministic_and_inside():
    s = classical_scheme("legendre", 10)
    pts = spectral_spot_points(s, 8, seed=7)
    again = spectral_spot_points(s, 8, seed=7)
    assert np.array_equal(pts, again)
    x = scheme_spectral(s, 8).eigenvalues
    assert np.all(pts >= x[0]) and np.all(pts <= x[-1])
    assert not np.array_equal(pts, spectral_spot_points(s, 8, seed=8))
