import math
import re
import warnings

import numpy as np
import pytest

from opmaj import (
    DepthError, Family, RecurrenceScheme, christoffel_numbers_formula, classical_scheme,
    from_sequences, jacobi_matrix, matrix_C, scheme_spectral, verify_scheme,
)

from oracles import associated_scheme, mp_coefficient_integrals

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
    # the newest coefficients of a table of each depth, down to a_1 and b_0
    # alone, have the bits of the longest table's entries: every slice that
    # verify and matrix_C take of a deeper table reads them
    base = classical_scheme(family, 305, **params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = base.coefficients(300)
        tables = [base.coefficients(m) for m in range(301)]
    single_a = [offdiag[-1] for offdiag, _ in tables[1:]]
    single_b = [diag[-1] for _, diag in tables]
    assert np.array(single_a).tobytes() == a.tobytes()
    assert np.array(single_b).tobytes() == b.tobytes()


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
    # the order-1 associated polynomials of chebyshev-u are its own polynomials
    t = associated_scheme(classical_scheme("chebyshev-u", 10), 1, 9)
    assert t.max_index == 9
    a, b = t.coefficients(9)
    assert a.tolist() == [0.5] * 9 and b.tolist() == [0.0] * 10


def test_shifted_laguerre():
    a, b = associated_scheme(classical_scheme("laguerre", 5, alpha=0.0), 1, 1).coefficients(1)
    assert b[0] == 3.0
    assert a[0] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "family,params",
    FAMILIES + [("jacobi", {"alpha": 0.5, "beta": -0.5}), ("jacobi", {"alpha": -0.5, "beta": -0.5})],
)
def test_coefficients_table_shifts_and_depth(family, params):
    # alpha + beta = 0 or -1 makes the general Jacobi form 0/0 at b_0 or a_1.
    # The tail from index k of a table is the slice [k:] of any longer table,
    # bit for bit: matrix_C slices the associated block out of J_n's table.
    s = classical_scheme(family, 1100, **params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        longest_a, longest_b = s.coefficients(s.max_index)
        for k in (0, 1, 5, 1000):
            for m in (0, 1, 7, 30, 300, s.max_index - k):
                if k + m > s.max_index:
                    continue
                a, b = s.coefficients(k + m)
                assert a.shape == (k + m,) and b.shape == (k + m + 1,)
                assert a[k:].tobytes() == longest_a[k : k + m].tobytes(), (k, m)
                assert b[k:].tobytes() == longest_b[k : k + m + 1].tobytes(), (k, m)
        with pytest.raises(DepthError):
            s.coefficients(s.max_index + 1)


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
