import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmaj import (
    DepthError, Family, RecurrenceScheme, christoffel_numbers_formula, classical_scheme, eval_all,
    from_sequences, jacobi_matrix, matrix_C, scheme_spectral, shifted, verify_scheme,
)

from oracles import golden_coeff_schemes, mp_coefficient_integrals

FAMILIES = [
    ("chebyshev-u", {}),
    ("chebyshev-t", {}),
    ("legendre", {}),
    ("jacobi", {"alpha": 2.0, "beta": 0.5}),
    ("laguerre", {"alpha": 0.0}),
    ("hermite", {}),
]


def test_chebyshev_u_coefficients():
    a, b = classical_scheme("chebyshev-u", 5).coefficients(5)
    assert a.tolist() == [0.5] * 5
    assert b.tolist() == [0.0] * 6


def test_legendre_coefficients():
    a, b = classical_scheme("legendre", 2).coefficients(2)
    assert a[0] == pytest.approx(0.5773502691896258, rel=1e-14)
    assert a[1] == pytest.approx(2.0 / math.sqrt(15.0), rel=1e-14)
    assert b[0] == 0.0 and b[1] == 0.0


def test_hermite_first_coefficient():
    # second moment of the normalized Gaussian weight is 1/2
    a, b = classical_scheme("hermite", 1).coefficients(1)
    assert a[0] == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert b[0] == 0.0


def test_laguerre_coefficients():
    a, b = classical_scheme("laguerre", 4, alpha=0.0).coefficients(3)
    assert b.tolist() == [1.0, 3.0, 5.0, 7.0]
    assert a.tolist() == pytest.approx([1.0, 2.0, 3.0])


def test_chebyshev_t_first_coefficient_differs():
    a, _ = classical_scheme("chebyshev-t", 3).coefficients(3)
    assert a[0] == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert a[1] == 0.5 and a[2] == 0.5


def test_jacobi_specializations_match_named_families():
    legendre_a, _ = classical_scheme("legendre", 10).coefficients(10)
    a, b = classical_scheme("jacobi", 10, alpha=0.0, beta=0.0).coefficients(10)
    assert a.tolist() == pytest.approx(legendre_a.tolist(), rel=1e-14)
    assert b[1:].tolist() == pytest.approx([0.0] * 10, abs=1e-16)


def test_parameter_validation():
    with pytest.raises(ValueError):
        classical_scheme("jacobi", 5, alpha=-1.0, beta=0.0)
    with pytest.raises(ValueError):
        classical_scheme("laguerre", 5, alpha=-1.5)
    with pytest.raises(ValueError):
        classical_scheme("jacobi", 5)
    with pytest.raises(ValueError):
        classical_scheme("legendre", 0)
    with pytest.raises(ValueError):
        classical_scheme("hermite", 5, alpha=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            classical_scheme("laguerre", 5, alpha=bad)
        with pytest.raises(ValueError, match="finite"):
            classical_scheme("jacobi", 5, alpha=0.0, beta=bad)


@pytest.mark.parametrize(
    "family,params",
    FAMILIES
    + [
        ("jacobi", {"alpha": 0.5, "beta": -0.5}),  # b_0 is 0/0 in the general form
        ("jacobi", {"alpha": -0.5, "beta": -0.5}),  # a_1 is 0/0 in the general form
    ],
)
def test_single_coefficients_bit_equal_to_table(family, params):
    # one coefficient read alone, as the shortest table of a shifted scheme,
    # has the bits of the table's entry
    base = classical_scheme(family, 305, **params)
    for k in (0, 1, 5):
        s = shifted(base, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = s.coefficients(300)
            single_a = [shifted(s, i - 1).coefficients(1)[0][0] for i in range(1, 301)]
            single_b = [shifted(s, i).coefficients(0)[1][0] for i in range(301)]
        assert np.array(single_a).tobytes() == a.tobytes(), k
        assert np.array(single_b).tobytes() == b.tobytes(), k


def test_overflow_refused_by_the_table_that_reaches_it():
    # laguerre a_i = sqrt(i (i + alpha)) overflows from i near 70,000 on at
    # this alpha: the scheme is made, a table short of that index is served,
    # and one past it is refused, naming the scheme's depth
    alpha = 2.6e303
    s = classical_scheme("laguerre", 100_000, alpha=alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert s.coefficients(60_000)[0].size == 60_000
        with pytest.raises(ValueError, match="index 100000 overflow float64"):
            s.coefficients(100_000)


def test_depth_errors():
    s = classical_scheme("legendre", 3)
    with pytest.raises(DepthError):
        s.coefficients(4)
    with pytest.raises(DepthError):
        s.coefficients(-1)
    with pytest.raises(DepthError):
        shifted(s, 1).coefficients(3)
    assert s.coefficients(0)[1].tolist() == [0.0]


def test_from_sequences_chebyshev_equivalent():
    s = from_sequences((0.5, 0.5), (0.0, 0.0, 0.0))
    assert s.kind is Family.CUSTOM
    assert s.max_index == 2
    u = classical_scheme("chebyshev-u", 2)
    assert s.coefficients(2)[0].tobytes() == u.coefficients(2)[0].tobytes()


def test_from_sequences_rejects_nonpositive():
    with pytest.raises(ValueError, match=r"a\[1\] must be positive"):
        from_sequences((0.0, 1.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"a\[2\] must be positive"):
        from_sequences((1.0, -1.0), (0.0, 0.0, 0.0))


def test_from_sequences_rejects_integers_beyond_float_range():
    huge = 10**400  # as json.load reads a 401-digit integer
    with pytest.raises(ValueError, match=r"a\[2\] must be finite"):
        from_sequences((1, huge), (0, 0, 0))
    with pytest.raises(ValueError, match=r"a\[1\] must be positive"):
        from_sequences((-huge,), (0, 0))
    with pytest.raises(ValueError, match=r"b\[0\] must be finite"):
        from_sequences((1,), (-huge, 0))


def test_from_sequences_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        from_sequences((1.0,), (0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "a_seq,b_seq,message",
    [
        ((1.0, 0.0, 1.0, 1.0), (0.0,) * 5, "a[2] must be positive, got 0.0"),
        ((1.0,) * 4, (0.0, math.nan, 0.0, 0.0, 0.0), "b[1] must be finite, got nan"),
        ((1.0, 1.0), (0.0,) * 5, "a[3] is missing"),
        ((1.0,) * 4, (0.0,) * 3, "b[3] is missing"),
    ],
    ids=["zero-a", "nan-b", "short-a", "short-b"],
)
def test_a_directly_built_custom_table_is_refused_where_it_is_built(a_seq, b_seq, message):
    # a scheme made without from_sequences is checked by coefficients, so every
    # path that reads its table refuses the same entry by name, with no warning
    s = RecurrenceScheme(kind=Family.CUSTOM, max_index=4, a_seq=a_seq, b_seq=b_seq)
    paths = {
        "coefficients": lambda: s.coefficients(4),
        "eval_all": lambda: eval_all(s, 4, 0.3),
        "scheme_spectral": lambda: scheme_spectral(s, 4),
        "matrix_C": lambda: matrix_C(s, 4, 2),
        "verify_scheme": lambda: verify_scheme(s, 4),
        "christoffel_numbers_formula": lambda: christoffel_numbers_formula(s, 4),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, path in paths.items():
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                path()


def test_from_sequences_trace():
    s = from_sequences((2.0, 1.0), (1.0, -1.0, 3.0))
    J = jacobi_matrix(s, 3)
    assert J.diag.sum() == 3.0


def test_shifted_constant_sequences_invariant():
    s = classical_scheme("chebyshev-u", 10)
    t = shifted(s, 1)
    assert t.max_index == 9
    a, b = t.coefficients(9)
    assert a.tolist() == [0.5] * 9 and b.tolist() == [0.0] * 10


def test_shifted_zero_is_identity():
    s = classical_scheme("legendre", 5)
    assert shifted(s, 0) is s


def test_shifted_laguerre():
    a, b = shifted(classical_scheme("laguerre", 5, alpha=0.0), 1).coefficients(1)
    assert b[0] == 3.0
    assert a[0] == pytest.approx(2.0)


def test_shifted_beyond_depth():
    s = classical_scheme("legendre", 3)
    with pytest.raises(DepthError):
        shifted(s, 4)


coeff_lists = st.lists(
    st.floats(min_value=0.05, max_value=10.0, allow_nan=False), min_size=3, max_size=9
)


@given(coeff_lists, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
@settings(max_examples=50, deadline=None)
def test_shifted_composes(a, j, k):
    b = [0.0] * (len(a) + 1)
    s = from_sequences(a, b)
    if j + k > s.max_index:
        return
    lhs = shifted(shifted(s, j), k)
    rhs = shifted(s, j + k)
    assert lhs.max_index == rhs.max_index
    table_a, table_b = lhs.coefficients(lhs.max_index)
    other_a, other_b = rhs.coefficients(rhs.max_index)
    assert table_a.tobytes() == other_a.tobytes() and table_b.tobytes() == other_b.tobytes()
    assert table_a.tolist() == a[j + k :]
    assert table_b.tolist() == b[j + k :]


@pytest.mark.parametrize(
    "family,params",
    FAMILIES + [("jacobi", {"alpha": 0.5, "beta": -0.5}), ("jacobi", {"alpha": -0.5, "beta": -0.5})],
)
def test_coefficients_table_shifts_and_depth(family, params):
    # alpha + beta = 0 or -1 makes the general Jacobi form 0/0 at b_0 or a_1.
    # The table of shifted(s, k) is the slice [k:] of any longer table of s,
    # bit for bit: matrix_C slices the associated block out of J_n's table.
    s = classical_scheme(family, 305, **params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        longest_a, longest_b = s.coefficients(s.max_index)
        for k in (0, 1, 5):
            t = shifted(s, k)
            for m in (0, 1, 7, 30, 300, t.max_index):
                a, b = t.coefficients(m)
                assert a.shape == (m,) and b.shape == (m + 1,)
                full_a, full_b = s.coefficients(k + m)
                assert a.tobytes() == full_a[k:].tobytes(), (k, m)
                assert b.tobytes() == full_b[k:].tobytes(), (k, m)
                assert a.tobytes() == longest_a[k : k + m].tobytes(), (k, m)
                assert b.tobytes() == longest_b[k : k + m + 1].tobytes(), (k, m)
            with pytest.raises(DepthError):
                t.coefficients(t.max_index + 1)


def test_shifted_table_evaluates_its_own_indices_only():
    # a classical table is evaluated at indices shift..shift + m alone, so that
    # its cost does not grow with the shift (the base table up to index
    # 10^6 + 3 would take 16 MB), and it is the tail of the base table, bit for bit
    s = shifted(classical_scheme("legendre", 10**6 + 10), 10**6)
    s.coefficients(3)  # one-time costs out of the count
    tracemalloc.start()
    try:
        a, b = s.coefficients(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (a.size, b.size) == (3, 4) and peak < 64 * 1024, peak
    for family, params in golden_coeff_schemes():
        base = classical_scheme(family, 1100, **params)
        full_a, full_b = base.coefficients(1100)
        for k in (1, 5, 1000):
            t = shifted(base, k)
            for m in (0, 1, 7, t.max_index):
                a, b = t.coefficients(m)
                assert a.tobytes() == full_a[k : k + m].tobytes(), (family, params, k, m)
                assert b.tobytes() == full_b[k : k + m + 1].tobytes(), (family, params, k, m)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_offdiagonals_positive(family, params):
    a, _ = classical_scheme(family, 20, **params).coefficients(20)
    assert (a > 0.0).all()


@pytest.mark.parametrize("family,params", FAMILIES)
def test_coefficients_reproduce_defining_integrals(family, params):
    """The scheme's (a_n, b_n) must agree with high-precision quadrature of
    x p_n p_{n-1} and x p_n^2 against the classical weight, and the
    polynomials must come out unit-normalized, for 1 <= n <= 20."""
    s = classical_scheme(family, 22, **params)
    a, b = s.coefficients(20)
    for n in range(1, 21):
        a_int, b_int, norm = mp_coefficient_integrals(s, family, tuple(params.values()), n)
        assert a_int == pytest.approx(a[n - 1], rel=1e-10)
        assert b_int == pytest.approx(b[n], rel=1e-10, abs=1e-10)
        assert norm == pytest.approx(1.0, rel=1e-10)
