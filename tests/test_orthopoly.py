import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmaj import (
    ConvergenceError,
    DepthError,
    PolynomialOverflowError,
    christoffel_numbers_formula,
    classical_scheme,
    from_sequences,
    gauss_quadrature,
    gauss_rule,
    jacobi_matrix,
    scheme_spectral,
    verify_scheme,
)

from opmaj.orthopoly import _christoffel, _moments, _values
from opmaj.verification import IDENTITY_N_CAP

from oracles import (
    associated_scheme,
    associated_spectral,
    closed_form_moment,
    dense,
    golden_coeff_schemes,
    mp_component_squares,
    spot_points,
)
from test_cli import MIXED

FAMILIES = [
    ("chebyshev-u", {}),
    ("chebyshev-t", {}),
    ("legendre", {}),
    ("jacobi", {"alpha": 2.0, "beta": 0.5}),
    ("laguerre", {"alpha": 0.0}),
    ("hermite", {}),
]
BOUNDED = ("chebyshev-u", "chebyshev-t", "legendre", "jacobi")


def associated_values(scheme, k, m, points, derivatives=False):
    """``_values`` of the order-k associated polynomials to degree m, on their own
    table of depth m."""
    return _values(associated_scheme(scheme, k, m).coefficients(m), m, points, derivatives)


def moment(scheme, m):
    """The moment of degree m from its own walk, on the table to index m // 2."""
    return _moments(scheme.coefficients(m // 2), m + 1)[m]


def test_eval_chebyshev_closed_form():
    # orthonormal p_n for the semicircle weight are the U_n themselves
    s = classical_scheme("chebyshev-u", 5)
    (values,) = _values(s.coefficients(3), 3, np.array([0.5]))
    assert values[0, 3] == pytest.approx(-1.0, abs=1e-15)  # 8x^3 - 4x at 1/2
    assert values[0, 0] == 1.0
    _, ders = _values(s.coefficients(3), 3, np.array([0.0]), derivatives=True)
    assert ders[0, 3] == pytest.approx(-4.0, abs=1e-15)  # 24x^2 - 4 at 0
    assert ders[0, 0] == 0.0
    assert ders[0, 1] == pytest.approx(1.0 / s.coefficients(1)[0][0])


def test_eval_normalization_any_scheme():
    s = from_sequences((2.0, 0.3), (1.0, -1.0, 4.0))
    assert _values(s.coefficients(0), 0, np.array([123.4]))[0][0, 0] == 1.0


def test_eval_depth_error():
    with pytest.raises(DepthError):
        _values(classical_scheme("legendre", 4).coefficients(5), 5, np.array([0.0]))


def test_eval_overflow_reported():
    # tiny off-diagonals amplify each recurrence step by 1e4
    s = from_sequences((1e-4,) * 100, (0.0,) * 101)
    with pytest.raises(PolynomialOverflowError):
        _values(s.coefficients(100), 100, np.array([1.0]))


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
    # the order-``shift`` associated polynomials: row i of a pass over many
    # points has the bits of the pass at point i alone
    s = associated_scheme(scheme, shift, scheme.max_index - shift)
    for n in (1, 12, 30):
        table = s.coefficients(n)
        zeros = scheme_spectral(s, n).eigenvalues
        for points in (spot_points(s, n), zeros):
            values, ders = _values(table, n, points, derivatives=True)
            assert values.shape == ders.shape == (points.size, n + 1)
            assert values.flags.c_contiguous and ders.flags.c_contiguous
            for i, x in enumerate(points):
                one_values, one_ders = _values(table, n, np.array([x]), derivatives=True)
                vals, ders_x = _pointwise(s, n, float(x))
                for got in (values[i], one_values[0]):
                    assert got.tobytes() == vals.tobytes()
                for got in (ders[i], one_ders[0]):
                    assert got.tobytes() == ders_x.tobytes()
            assert len(_values(table, n, points)) == 1


def tops(table, n, points):
    """p^(k)_{n-k}, 2 <= k <= n - 1, as the identity checks read them: each from one
    pass over the slice of ``table`` from index k on, shift by shift."""
    offdiag, diag = table
    return [_values((offdiag[k:], diag[k:]), n - k, points)[0][:, n - k] for k in range(2, n)]


@pytest.mark.parametrize("family,params", FAMILIES)
def test_associated_tops_are_bit_equal_to_each_shifts_eval_all(family, params):
    # the identity checks evaluate shift k on the slice of one table from index
    # k on: every degree of every shift is that of the pass on its own table
    s = classical_scheme(family, IDENTITY_N_CAP + 1, **params)
    offdiag, diag = table = s.coefficients(IDENTITY_N_CAP + 1)
    for n in range(2, IDENTITY_N_CAP + 1):
        points = spot_points(s, n)
        for k in range(n):
            values = associated_values(s, k, n - k, points)[0]
            tail = _values((offdiag[k:], diag[k:]), n - k, points)
            assert len(tail) == 1 and tail[0].tobytes() == values.tobytes(), (n, k)
        assert [top.tobytes() for top in tops(table, n, points)] == [
            associated_values(s, k, n - k, points)[0][:, n - k].tobytes()
            for k in range(2, n)
        ]


def test_associated_tops_raise_the_first_shifts_overflow():
    # growth about 1e4 per step at x = 1 and 2, slower for later shifts, none
    # at x = 0: at order 99 shifts 2..13 overflow, not all at the same degree;
    # each tail pass raises what the pass on the shift's own table raises, so the shifts
    # in turn raise shift 2's, with no numpy warning
    s = from_sequences([1e-4 * 1.03**i for i in range(100)], (0.0,) * 101)
    n, points = 99, np.array([0.0, 1.0, 2.0])
    offdiag, diag = table = s.coefficients(n)
    overflows = []
    for k in range(2, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                expected = associated_values(s, k, n - k, points)[0]
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
    table = s.coefficients(100)
    _values(table, 100, np.array([0.0]), derivatives=True)
    for derivatives in (False, True):
        messages = []
        for x in (1.0, 2.0):
            with pytest.raises(PolynomialOverflowError) as pointwise:
                _values(table, 100, np.array([x]), derivatives)
            messages.append(str(pointwise.value))
        assert messages[0] != messages[1]  # x = 2 overflows at a lower degree
        assert messages[0].endswith(" (x = 1.0)")
        with warnings.catch_warnings(), pytest.raises(PolynomialOverflowError) as err:
            warnings.simplefilter("error")
            _values(table, 100, np.array([0.0, 1.0, 2.0]), derivatives)
        assert str(err.value) == messages[0]


@pytest.mark.parametrize("family,n", [("hermite", 400), ("laguerre", 200)])
def test_christoffel_formula_accurate_where_the_recurrence_leaves_the_double_range(family, n):
    # p_j passes 2**512 at the extreme zeros of these orders, and the pass folds
    # its rescales back into lambda: against the 50-digit reference, lambda is
    # within 1e-11 relative where the reference is a normal double, and within
    # 2**-1022 of J_n's where it is not.  lambda p_{n-1}^2, read as inv times the
    # scaled p_{n-1}^2 at the pass's one scale, is J_n's last row (within 1e-8:
    # the slope of p_{n-1} at a zero carries the zero's own error into it)
    s = classical_scheme(family, n)
    sd = scheme_spectral(s, n)
    lam = christoffel_numbers_formula(s, n)
    _, values, inv = _christoffel(s.coefficients(n - 1), n - 1, sd.eigenvalues)
    cols = [0, 1, 2, 3, n // 4, n // 2, 3 * n // 4, n - 4, n - 3, n - 2, n - 1]
    ref = mp_component_squares(s, n, sd.eigenvalues[cols], [0, n - 1])
    tiny = mp.mpf(float(np.finfo(float).tiny))
    with mp.workdps(50):
        for j, (first, last) in zip(cols, ref):
            if first >= tiny:
                assert abs(mp.mpf(float(lam[j])) / first - 1) <= 1e-11, j
            else:
                assert abs(lam[j] - sd.christoffel[j]) <= 2.0**-1022, j
            if last >= tiny:
                assert abs(mp.mpf(float(inv[j] * values[j, n - 1] ** 2)) / last - 1) <= 1e-8, j


def test_christoffel_formula_takes_a_weight_below_the_double_range_to_zero():
    # a_2 = 1e-320 sends p_2 past float64 at the middle zero 0 in one step, the
    # last one: the sum there is infinite and its weight, about 1e-640, is 0.0
    s = from_sequences([1.0, 1e-320], [0.0, 0.0, 0.0])
    assert scheme_spectral(s, 3).eigenvalues.tolist() == [-1.0, 0.0, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert christoffel_numbers_formula(s, 3).tolist() == [0.5, 0.0, 0.5]


def test_column_sum_identity_reads_a_sum_past_the_double_range_at_one_scale():
    # at the zeros +-1 of p_3, p_1 and p_2 are 1e154 each: every value is finite
    # and below 2**512, but their squares sum past float64, so the pass takes
    # those zeros one rescale further; lambda is then about 5e-309, and verify's
    # column-sum rows read lambda p_2^2 = 1/2 from the one rescaled pass
    s = from_sequences([1e-154, 1.0, 1.0, 1.0], [0.0] * 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = christoffel_numbers_formula(s, 3)
        rows = [r for r in verify_scheme(s, 3) if "column-sum-identity" in r.case]
    assert lam[0] == lam[2] == pytest.approx(5e-309, rel=1e-12)
    assert len(rows) == 4 and all(r.passed for r in rows), rows


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_christoffel_formula_weights_of_any_custom_scheme(data):
    # a_i and |b_i| drawn as the CLI's contract test draws them: every weight is
    # finite and in [0, 1], or the call raises a named error, unwarned
    depth = data.draw(st.integers(0, 12))
    a = data.draw(st.lists(MIXED.filter(lambda v: v > 0.0), min_size=depth, max_size=depth))
    b = [data.draw(st.sampled_from([1.0, -1.0])) * data.draw(MIXED) for _ in range(depth + 1)]
    n = data.draw(st.integers(1, depth + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            lam = christoffel_numbers_formula(from_sequences(a, b), n)
        except (PolynomialOverflowError, ConvergenceError):
            return
    assert np.isfinite(lam).all() and (lam >= 0.0).all() and (lam <= 1.0).all(), lam


def test_moment_overflow_refused_by_name():
    # J_2^2 e_0 = (1e400, 0): the walk leaves float64 at its second step
    s = from_sequences((1e200, 1.0), (0.0, 0.0, 0.0))
    assert moment(s, 1) == 0.0
    with warnings.catch_warnings(), pytest.raises(ValueError, match="^the moment of degree 2 is"):
        warnings.simplefilter("error")
        moment(s, 2)


def test_moment_overflow_refused_at_the_first_degree_that_overflows():
    # J_3 e_0 walks to (1, 0, 1e160) in two steps, to (0, inf, 0) in three, and
    # its corner is first not finite at degree 4, by either route
    s = from_sequences((1.0, 1e160, 1.0), (0.0,) * 4)
    message = "^the moment of degree 4 is not finite in float64: J_3\\^4 overflows$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [moment(s, m) for m in range(4)] == [1.0, 0.0, 1.0, 0.0]
        with pytest.raises(ValueError, match=message):
            moment(s, 4)
        with pytest.raises(ValueError, match=message):
            verify_scheme(s, 3)


def _hex(moments) -> list[str]:
    return [float(v).hex() for v in moments]


def test_one_walk_equals_the_walk_of_each_degree():
    # a walk of m steps from the corner never reaches past row m // 2 on its
    # way back, so the depth of the table cannot move the bits of a moment
    for family, params in golden_coeff_schemes():
        s = classical_scheme(family, 61, **params)
        expected = _hex(moment(s, m) for m in range(60))
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
    expected = _hex(moment(s, m) for m in range(60))
    assert _hex(_moments(s.coefficients(61), 60)) == expected


def test_christoffel_pass_on_a_deep_table_equals_the_formula_and_the_values():
    # verify's column-sum rows run this pass on its own table, to index
    # n_max + 1: the recurrence to degree n - 1 reads nothing past a_{n-1} and
    # b_{n-2}, so the deeper table keeps the formula's bits; to order 60 no
    # column is rescaled, so the scaled pass has the bits of the unscaled _values
    for family, params in golden_coeff_schemes():
        s = classical_scheme(family, 61, **params)
        table = s.coefficients(61)
        for n in range(1, 61):
            zeros = scheme_spectral(s, n).eigenvalues
            lam, values, inv = _christoffel(table, n - 1, zeros)
            assert lam.tobytes() == christoffel_numbers_formula(s, n).tobytes(), (family, n)
            assert inv.tobytes() == lam.tobytes(), (family, n)
            assert values.tobytes() == _values(table, n - 1, zeros)[0].tobytes(), (family, n)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_moments_agree_with_a_dense_walk(family, params):
    # the walk on the table against J_K^m e_0 by dense products, K = m // 2 + 1
    s = classical_scheme(family, 32, **params)
    for m in range(60):
        J = dense(jacobi_matrix(s, m // 2 + 1))
        v = np.eye(J.shape[0])[0]
        for _ in range(m):
            v = J @ v
        assert moment(s, m) == pytest.approx(v[0], rel=1e-12), m


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
        values, ders = _values(s.coefficients(n), n, nodes, derivatives=True)
        for j in range(n):
            prod = lam[j] * a[n] * ders[j, n] * values[j, n - 1]
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
            got = moment(s, m)
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_quadrature_exactness_against_moment_oracle(family, params):
    tol = 1e-10 if family in BOUNDED else 1e-8
    s = classical_scheme(family, 32, **params)
    moments = [moment(s, m) for m in range(60)]
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
        spots = spot_points(s, max(n, 2))
        for p, dp in zip(*_values(s.coefficients(n + 1), n + 1, spots, derivatives=True)):
            lhs = float(np.dot(p[: n + 1], p[: n + 1]))
            rhs = a[n + 1] * (dp[n + 1] * p[n] - p[n + 1] * dp[n])
            assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_wronskian_of_neighbor_and_associated(family, params):
    """a_{n+1} (p_n q_n - p_{n+1} q_{n-1}) = a_1 with q the order-1 associated
    polynomials, checked against the scale of the two products."""
    s = classical_scheme(family, 20, **params)
    a = [0.0, *s.coefficients(20)[0].tolist()]  # a[i] = a_i
    for n in range(1, 16):
        spots = spot_points(s, max(n, 2))
        p_all = _values(s.coefficients(n + 1), n + 1, spots)[0]
        for p, q in zip(p_all, associated_values(s, 1, n, spots)[0]):
            t1 = a[n + 1] * p[n] * q[n]
            t2 = a[n + 1] * p[n + 1] * q[n - 1]
            scale = abs(t1) + abs(t2) + a[1]
            assert abs(t1 - t2 - a[1]) <= 1e-9 * scale


@pytest.mark.parametrize("family,params", FAMILIES)
def test_associated_factorization(family, params):
    """a_1 p^(k)_{n-k} = a_k (p_{k-1} q_{n-1} - p_n q_{k-2}) for
    2 <= k <= n-1, checked against the scale of the products."""
    s = classical_scheme(family, 20, **params)
    a = [0.0, *s.coefficients(20)[0].tolist()]  # a[i] = a_i
    for n in range(3, 16):
        spots = spot_points(s, n)
        p_all = _values(s.coefficients(n), n, spots)[0]
        q_all = associated_values(s, 1, n - 1, spots)[0]
        r_all = {k: associated_values(s, k, n - k, spots)[0] for k in range(2, n)}
        for i, (p, q) in enumerate(zip(p_all, q_all)):
            for k in range(2, n):
                r = r_all[k][i]
                lhs = a[1] * r[n - k]
                u1 = a[k] * p[k - 1] * q[n - 1]
                u2 = a[k] * p[n] * q[k - 2]
                assert abs(u1 - u2 - lhs) <= 1e-9 * (abs(u1) + abs(u2) + abs(lhs))


def test_associated_spectral_examples():
    s = classical_scheme("chebyshev-u", 5)
    sd = associated_spectral(s, 1, 2)
    assert sd.eigenvalues == pytest.approx([-0.5, 0.5], abs=1e-15)
    assert sd.christoffel == pytest.approx([0.5, 0.5], abs=1e-15)
    lg = classical_scheme("laguerre", 3, alpha=0.0)
    assert associated_spectral(lg, 1, 1).eigenvalues == pytest.approx([3.0])


def test_associated_spectral_depth():
    s = classical_scheme("legendre", 5)
    associated_spectral(s, 2, 4)
    with pytest.raises(DepthError):
        associated_spectral(s, 2, 5)


def test_spot_points_deterministic_and_inside():
    s = classical_scheme("legendre", 10)
    pts = spot_points(s, 8, seed=7)
    again = spot_points(s, 8, seed=7)
    assert np.array_equal(pts, again)
    x = scheme_spectral(s, 8).eigenvalues
    assert np.all(pts >= x[0]) and np.all(pts <= x[-1])
    assert not np.array_equal(pts, spot_points(s, 8, seed=8))
