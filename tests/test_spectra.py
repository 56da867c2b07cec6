import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, lapack

from opmaj import (
    ConvergenceError,
    DepthError,
    RecurrenceScheme,
    certificate_checks,
    classical_scheme,
    from_sequences,
    gauss_rule,
    jacobi_matrix,
    matrix_C,
    scheme_spectral,
    spectra,
    verify_scheme,
)

from opmaj.orthopoly import _values

from oracles import (
    associated_spectral, block_decompose, chebyshev_u_weights, chebyshev_u_zeros, comp_sq,
    delete_row_col, dense, mp_component_squares,
)


def stev(J):
    """Spectral data of a hand-built Jacobi matrix by the library's dstev route."""
    return scheme_spectral(from_sequences(J.offdiag, J.diag), J.order)


FAMILIES = [
    ("chebyshev-u", {}),
    ("chebyshev-t", {}),
    ("legendre", {}),
    ("jacobi", {"alpha": 2.0, "beta": 0.5}),
    ("laguerre", {"alpha": 0.0}),
    ("hermite", {}),
]


def test_jacobi_matrix_chebyshev():
    s = classical_scheme("chebyshev-u", 5)
    J = jacobi_matrix(s, 2)
    assert list(J.diag) == [0.0, 0.0]
    assert list(J.offdiag) == [0.5]
    J1 = jacobi_matrix(s, 1)
    assert list(J1.diag) == [0.0] and J1.offdiag.size == 0


def test_jacobi_matrix_laguerre():
    J = jacobi_matrix(classical_scheme("laguerre", 5, alpha=0.0), 3)
    assert list(J.diag) == [1.0, 3.0, 5.0]
    assert list(J.offdiag) == pytest.approx([1.0, 2.0])


def test_jacobi_matrix_depth_error():
    s = classical_scheme("legendre", 3)
    jacobi_matrix(s, 4)
    with pytest.raises(DepthError):
        jacobi_matrix(s, 5)


def test_jacobi_matrix_freezes_the_table_coefficients_built(monkeypatch):
    # J_n holds the arrays coefficients returned, read-only, not a copy
    tables, coefficients = [], RecurrenceScheme.coefficients

    def recording_coefficients(self, m):
        tables.append(coefficients(self, m))
        return tables[-1]

    monkeypatch.setattr(RecurrenceScheme, "coefficients", recording_coefficients)
    for s in (classical_scheme("laguerre", 9, alpha=0.5), from_sequences((1.0, 2.0), (0.5, -1.0))):
        for n in (1, 2, s.max_index + 1):
            tables.clear()
            J = jacobi_matrix(s, n)
            assert len(tables) == 1
            (offdiag, diag), (offdiag_now, diag_now) = tables[0], coefficients(s, n - 1)
            assert J.diag is diag and J.offdiag is offdiag
            assert not (J.diag.flags.writeable or J.offdiag.flags.writeable)
            assert diag.tobytes() == diag_now.tobytes()
            assert offdiag.tobytes() == offdiag_now.tobytes()


def test_eigenvalues_never_point_into_the_solved_table():
    # LAPACK returns fresh arrays; order 1, solved without it, copies b_0
    offdiag, diag = classical_scheme("laguerre", 9).coefficients(4)
    for m in (1, 2, 5):
        for solver in (spectra.dstev, spectra.dstevd):
            sd = spectra._decompose(diag[:m], offdiag[: m - 1], solver)
            assert not np.shares_memory(sd.eigenvalues, diag)
            assert not sd.eigenvalues.flags.writeable and diag.flags.writeable


def test_delete_row_col_middle():
    J = jacobi_matrix(classical_scheme("chebyshev-u", 5), 3)
    top, bottom = delete_row_col(J, 2)
    assert list(top.diag) == [0.0] and top.offdiag.size == 0
    assert list(bottom.diag) == [0.0] and bottom.offdiag.size == 0


def test_delete_row_col_ends():
    s = classical_scheme("laguerre", 6, alpha=0.0)
    J = jacobi_matrix(s, 5)
    top, bottom = delete_row_col(J, 5)
    assert top.order == 4 and bottom.order == 0
    assert np.array_equal(top.diag, J.diag[:4])
    top, bottom = delete_row_col(J, 1)
    assert top.order == 0 and bottom.order == 4
    assert np.array_equal(bottom.diag, J.diag[1:])
    assert np.array_equal(bottom.offdiag, J.offdiag[1:])
    with pytest.raises(ValueError):
        delete_row_col(J, 0)
    with pytest.raises(ValueError):
        delete_row_col(J, 6)


@pytest.mark.parametrize("family,params", FAMILIES)
@pytest.mark.parametrize("k", [1, 2, 4, 7])
def test_delete_row_col_spectrum_matches_dense_deletion(family, params, k):
    """Union of the block spectra equals the spectrum of the dense matrix
    with row/column k removed."""
    s = classical_scheme(family, 8, **params)
    J = jacobi_matrix(s, 7)
    top, bottom = delete_row_col(J, k)
    ours = np.sort(
        np.concatenate(
            [
                stev(top).eigenvalues if top.order else np.empty(0),
                stev(bottom).eigenvalues if bottom.order else np.empty(0),
            ]
        )
    )
    deleted = np.delete(np.delete(dense(J), k - 1, axis=0), k - 1, axis=1)
    ref = np.linalg.eigvalsh(deleted)
    assert ours.size == 6
    assert ours == pytest.approx(ref, abs=1e-12 * max(1.0, np.abs(ref).max()))


def test_delete_row_col_blocks_match_scheme_views():
    # the trailing block is the Jacobi matrix of the order-k associated scheme
    s = classical_scheme("jacobi", 9, alpha=2.0, beta=0.5)
    J = jacobi_matrix(s, 8)
    for k in (2, 3, 7):
        top, bottom = delete_row_col(J, k)
        assert stev(top).eigenvalues == pytest.approx(
            scheme_spectral(s, k - 1).eigenvalues, abs=1e-13
        )
        assert stev(bottom).eigenvalues == pytest.approx(
            associated_spectral(s, k, 8 - k).eigenvalues, abs=1e-13
        )


def test_eigen_chebyshev_2x2():
    sd = scheme_spectral(classical_scheme("chebyshev-u", 3), 2)
    assert sd.eigenvalues == pytest.approx([-0.5, 0.5], abs=1e-15)
    assert comp_sq(sd)[0] == pytest.approx([0.5, 0.5], abs=1e-15)


def test_eigen_trivial_1x1():
    sd = scheme_spectral(from_sequences((), (7.0,)), 1)
    assert sd.eigenvalues == pytest.approx([7.0])
    assert comp_sq(sd) == pytest.approx(np.array([[1.0]]))


def test_eigen_chebyshev_3x3_closed_form():
    sd = scheme_spectral(classical_scheme("chebyshev-u", 3), 3)
    assert sd.eigenvalues == pytest.approx([-math.sqrt(0.5), 0.0, math.sqrt(0.5)], abs=1e-15)
    assert comp_sq(sd)[0] == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)
    assert sd.eigenvalues == pytest.approx(chebyshev_u_zeros(3), abs=1e-15)
    assert comp_sq(sd)[0] == pytest.approx(chebyshev_u_weights(3), abs=1e-15)


def test_order_below_one_refused():
    # before the 8 n^2 memory refusal, which a large negative n would fail
    s = classical_scheme("legendre", 3)
    for n in (0, -1, -10**8):
        for build in (scheme_spectral, gauss_rule, jacobi_matrix):
            with pytest.raises(ValueError, match=f"^order must be >= 1, got {n}$"):
                build(s, n)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_interlacing_consecutive(family, params):
    s = classical_scheme(family, 60, **params)
    for n in range(2, 61):
        x = scheme_spectral(s, n).eigenvalues
        t = scheme_spectral(s, n - 1).eigenvalues
        assert np.all(t > x[:-1]) and np.all(t < x[1:])


@pytest.mark.parametrize("family,params", FAMILIES)
def test_trace_identity(family, params):
    s = classical_scheme(family, 60, **params)
    for n in range(1, 61):
        J = jacobi_matrix(s, n)
        sd = scheme_spectral(s, n)
        scale = 1.0 + np.abs(J.diag).sum()
        assert abs(sd.eigenvalues.sum() - J.diag.sum()) <= 1e-10 * scale


@pytest.mark.parametrize("family,params", FAMILIES)
def test_eigenvector_columns_unit_and_weights_positive(family, params):
    s = classical_scheme(family, 40, **params)
    for n in (1, 5, 20, 40):
        sd = scheme_spectral(s, n)
        assert comp_sq(sd).sum(axis=0) == pytest.approx(np.ones(n), abs=1e-13)
        assert np.all(sd.christoffel > 0.0)
        assert sd.christoffel.sum() == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_comp_sq_equals_weight_times_squared_polynomials(family, params):
    # comp_sq[i, j] = lambda_j * p_i(x_j)^2, with both factors from the
    # polynomial route
    s = classical_scheme(family, 15, **params)
    for n in (2, 6, 12):
        sd = scheme_spectral(s, n)
        for j, vals in enumerate(_values(s.coefficients(n - 1), n - 1, sd.eigenvalues)[0]):
            lam = 1.0 / float(np.dot(vals, vals))
            assert comp_sq(sd)[:, j] == pytest.approx(lam * vals**2, rel=1e-8, abs=1e-13)
            assert sd.christoffel[j] == pytest.approx(lam, rel=1e-8)


def test_spectral_data_is_immutable():
    sd = scheme_spectral(classical_scheme("legendre", 6), 5)
    for arr in (sd.eigenvalues, sd.christoffel, sd.components):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_spectral_data_holds_one_eigenvector_array():
    # the squares are derived on access, so a decomposition holds 8m^2 + 8m bytes
    for m in (1, 2, 7, 40):
        sd = scheme_spectral(classical_scheme("laguerre", m), m)
        assert sum(v.nbytes for v in vars(sd).values()) == 8 * m * m + 8 * m


@pytest.mark.parametrize("family,params", FAMILIES)
def test_derived_squares_are_read_only_and_exact(family, params):
    sd = scheme_spectral(classical_scheme(family, 12, **params), 12)
    assert np.array_equal(sd.christoffel, sd.components[0] ** 2)
    assert not sd.christoffel.flags.writeable
    with pytest.raises(ValueError):
        sd.christoffel[0] = 0.0


def _no_eigensolve(*args, **kwargs):
    pytest.fail("the eigensolver was called")


def test_oversized_order_refused_before_solving(monkeypatch):
    # against a pretend physical memory of 32 bytes: 8 m^2 bytes of
    # eigenvectors for dstev, so order 2 is served as J_n; the dstevd blocks
    # are slices of a certificate's table, whose 32 n^2 bytes refuse order 2
    # before any block is solved
    memory = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": 4}
    monkeypatch.setattr(spectra.os, "sysconf", memory.__getitem__)
    s = classical_scheme("legendre", 3)
    assert _fresh_spectral(s, 2).order == 2
    monkeypatch.setattr(spectra, "dstev", _no_eigensolve)
    monkeypatch.setattr(spectra, "dstevd", _no_eigensolve)
    with pytest.raises(ValueError, match="order 3 needs"):
        _fresh_spectral(s, 3)
    for build in (lambda: matrix_C(s, 2, 1), lambda: verify_scheme(s, 2)):
        with pytest.raises(ValueError, match="the order 2 certificate needs"):
            build()
    # from _DSTEVD_FROM on, dstevd's workspace and then _refine's n x n array sit
    # beside the eigenvectors: 16 m^2 bytes, so against 12 m^2 bytes such an
    # order is refused although its 8 m^2 bytes of eigenvectors would fit
    m = spectra._DSTEVD_FROM
    memory["SC_PHYS_PAGES"] = 12 * m * m // 8
    big = classical_scheme("legendre", m)
    with pytest.raises(ValueError, match=f"^order {m} needs {16 * m * m / 1e9:.1f} GB for its "
                       "eigenvectors and dstevd's workspace, more than"):
        _fresh_spectral(big, m)
    # while dstev, which holds no n x n array beside its eigenvectors, solves the
    # order just below it
    monkeypatch.setattr(spectra, "dstev", lapack.dstev)
    assert _fresh_spectral(big, m - 1).order == m - 1


@pytest.mark.parametrize("family", ["hermite", "laguerre", "legendre"])
def test_refined_components_as_accurate_as_dstev(family):
    # from _DSTEVD_FROM on, J_n comes from dstevd, whose exponentially small
    # components have no relative accuracy, and _refine restores them: against a
    # 50-digit reference, over the extreme zeros (where the tiny components are)
    # and three interior ones, the worst relative error of the squared
    # components on rows 0, n // 3 and n - 1 is no larger than dstev's there
    n = spectra._DSTEVD_FROM
    s = classical_scheme(family, n)
    offdiag, diag = s.coefficients(n - 1)
    sd = _fresh_spectral(s, n)
    stev = spectra.dstev(diag, offdiag)[1]
    rows = [0, n // 3, n - 1]
    cols = [0, 1, 2, 3, n // 4, n // 2, 3 * n // 4, n - 4, n - 3, n - 2, n - 1]
    ref = mp_component_squares(s, n, sd.eigenvalues[cols], rows)
    with mp.workdps(50):
        for i, r in enumerate(rows):
            worst = [
                max(float(abs(mp.mpf(float(v[r, j])) ** 2 / ref[t][i] - 1)) for t, j in enumerate(cols))
                for v in (sd.components, stev)
            ]
            assert worst[0] <= worst[1], (r, worst)


def test_refined_eigenvectors_of_custom_schemes_stay_orthonormal():
    # random custom schemes above _DSTEVD_FROM, whose eigenvectors may sit in
    # several humps where the recurrence is not stable from either end: the
    # refinement moves no component by more than 4 eps, so the components stay
    # orthonormal and the certificates pass at the default tolerances
    n = 150
    assert n >= spectra._DSTEVD_FROM
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        s = from_sequences(rng.uniform(0.1, 10.0, n - 1), rng.uniform(-10.0, 10.0, n))
        C = scheme_spectral(s, n).components
        assert np.abs(C.T @ C - np.eye(n)).max() <= 1e-13, seed
        for k in (1, math.ceil(n / 2), n):
            failed = [row for row in certificate_checks(matrix_C(s, n, k)) if not row.passed]
            assert not failed, (seed, k, failed)


def _fresh_spectral(s, m):
    scheme_spectral.cache_clear()  # a cached decomposition would hide the solve
    return scheme_spectral(s, m)


def _solvers(s):
    """Each LAPACK entry point with a fresh solve that goes through it."""
    return {
        "dstev": lambda m: _fresh_spectral(s, m),
        "dstevd": lambda m: block_decompose(jacobi_matrix(s, m)),
    }


def test_patched_lapack_entry_point_intercepts_every_solve(monkeypatch):
    # the refusal tests patch spectra.dstev and spectra.dstevd: each patch
    # must stop an ordinary solve of its solver
    for entry_point, solve in _solvers(classical_scheme("legendre", 3)).items():
        with monkeypatch.context() as patch:
            patch.setattr(spectra, entry_point, _no_eigensolve)
            with pytest.raises(pytest.fail.Exception, match="the eigensolver was called"):
                solve(2)


def test_nonzero_lapack_info_raises_convergence_error(monkeypatch):
    def unconverged(d, e):
        return np.array(d), np.eye(d.size), 1

    for entry_point, solve in _solvers(classical_scheme("legendre", 3)).items():
        # the message names the solver from its __name__: the fake takes the
        # f2py wrapper's, and the whole message is pinned
        unconverged.__name__ = getattr(spectra, entry_point).__name__
        with monkeypatch.context() as patch:
            patch.setattr(spectra, entry_point, unconverged)
            with pytest.raises(ConvergenceError, match=f"^tridiagonal eigensolver failed: "
                               f"{entry_point} info = 1$"):
                solve(3)


def test_descending_lapack_spectrum_raises_convergence_error(monkeypatch):
    # both routines return ascending eigenvalues by contract; a spectrum that
    # breaks it is refused, not re-sorted
    def descending(d, e):
        return np.array([3.0, 2.0, 1.0]), np.eye(3), 0

    for entry_point, solve in _solvers(classical_scheme("legendre", 3)).items():
        with monkeypatch.context() as patch:
            patch.setattr(spectra, entry_point, descending)
            with pytest.raises(ConvergenceError, match="eigenvalues 1 and 2 are not strictly"):
                solve(3)


def test_spectrum_wider_than_float64_is_served():
    # the two outer zeros lie more than the largest double apart; the
    # strict-increase check compares them instead of subtracting, so the
    # spectrum is served with no overflow warning
    s = from_sequences([1e307, 1e307], [1.7e308, -1.7e308, 1.7e308])
    for sd in (scheme_spectral(s, 3), block_decompose(jacobi_matrix(s, 3))):
        x = sd.eigenvalues
        assert np.all(x[1:] > x[:-1]) and np.isfinite(x).all()
        assert x[0] < -1.7e308 and x[-1] > 1.7e308


@pytest.mark.parametrize("family,params", FAMILIES)
def test_blocks_below_order_26_bit_equal_to_dstev(family, params):
    # dstevd hands orders up to 25 to the QR code of dstev: same bits there
    s = classical_scheme(family, 25, **params)
    for m in (1, 2, 7, 25):
        sd, block = scheme_spectral(s, m), block_decompose(jacobi_matrix(s, m))
        assert np.array_equal(block.eigenvalues, sd.eigenvalues), m
        assert np.array_equal(block.components, sd.components), m


@pytest.mark.parametrize(
    "scheme",
    [
        classical_scheme("legendre", 60),
        classical_scheme("laguerre", 60),
        classical_scheme("hermite", 60),
        from_sequences(
            [0.3 + 0.05 * i for i in range(59)], [(-1.0) ** i * 0.7 for i in range(60)]
        ),
    ],
    ids=["legendre", "laguerre", "hermite", "custom"],
)
def test_eigen_decompose_bit_equal_to_scipy_stev(scheme):
    # scheme_spectral's direct LAPACK call returns exactly what scipy's stev wrapper returns
    for n in (1, 2, 7, 60):
        J = jacobi_matrix(scheme, n)
        eigvals, vecs = eigh_tridiagonal(J.diag, J.offdiag, lapack_driver="stev")
        sd = scheme_spectral(scheme, n)
        assert np.array_equal(sd.eigenvalues, eigvals), n
        assert np.array_equal(sd.components, vecs), n


@pytest.mark.parametrize("family,params", FAMILIES)
def test_eigenpair_residual_via_polynomial_vector(family, params):
    """Eigenvectors recovered from comp_sq magnitudes and the signs of the
    orthonormal-polynomial values must satisfy J v = x v."""
    s = classical_scheme(family, 20, **params)
    for n in (2, 7, 20):
        J = jacobi_matrix(s, n)
        sd = scheme_spectral(s, n)
        diameter = sd.eigenvalues[-1] - sd.eigenvalues[0]
        matrix = dense(J)
        values = _values(s.coefficients(n - 1), n - 1, sd.eigenvalues)[0]
        for j, x in enumerate(sd.eigenvalues):
            signs = np.sign(values[j])
            v = np.sqrt(comp_sq(sd)[:, j]) * signs
            res = np.max(np.abs(matrix @ v - x * v))
            assert res <= 1e-12 * diameter


@given(
    st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=1, max_size=7),
    st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=2, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_eigen_invariants_random_schemes(a, b):
    if len(b) != len(a) + 1:
        return
    s = from_sequences(a, b)
    J = jacobi_matrix(s, s.max_index + 1)
    sd = scheme_spectral(s, J.order)
    assert np.all(np.diff(sd.eigenvalues) > 0.0)
    assert comp_sq(sd).sum(axis=0) == pytest.approx(np.ones(J.order), abs=1e-12)
    assert abs(sd.eigenvalues.sum() - J.diag.sum()) <= 1e-10 * (1.0 + np.abs(J.diag).sum())
    assert np.all(sd.christoffel > 0.0)
