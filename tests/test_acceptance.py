"""Acceptance suite: each test runs one numbered criterion at its stated
tolerance over the family grid and prints a single pass/fail line
(visible with ``pytest -s``)."""
import math

import numpy as np
import pytest

from opmaj import (
    christoffel_numbers_formula,
    classical_scheme,
    gauss_rule,
    matrix_A,
    matrix_B,
    matrix_C,
    scheme_spectral,
)
from opmaj.majorization import _convex_sums, _majorization
from opmaj.orthopoly import _moments, _values

from oracles import (
    associated_spectral,
    check_doubly_stochastic,
    min_target_gap,
    quotient_form_C,
    spot_points,
)

FAMILY_GRID = [
    ("chebyshev-u", {}),
    ("chebyshev-t", {}),
    ("legendre", {}),
    ("jacobi(2,0.5)", {"alpha": 2.0, "beta": 0.5}),
    ("laguerre(0)", {"alpha": 0.0}),
    ("hermite", {}),
]
BOUNDED = ("chebyshev-u", "chebyshev-t", "legendre", "jacobi(2,0.5)")
N_MAX = 60


def _family(tag: str):
    return tag.split("(")[0]


@pytest.fixture(scope="module")
def schemes():
    return {
        tag: classical_scheme(_family(tag), N_MAX + 2, **params)
        for tag, params in FAMILY_GRID
    }


def _report(num, label, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} cases)"
    print(f"criterion {num} ({label}): {status}")


def _assert_clean(num, label, failures):
    _report(num, label, failures)
    assert not failures, f"criterion {num} ({label}): " + "; ".join(
        str(f) for f in failures[:8]
    )


def _all_matrices(scheme, n):
    yield matrix_A(scheme, n)
    yield matrix_B(scheme, n)
    for k in range(1, n + 1):
        yield matrix_C(scheme, n, k)


def test_criterion_1_stochasticity_sweep(schemes):
    failures = []
    for tag, s in schemes.items():
        for n in range(2, N_MAX + 1):
            x = scheme_spectral(s, n).eigenvalues
            diameter = x[-1] - x[0]
            for res in _all_matrices(s, n):
                check = check_doubly_stochastic(res, 1e-10)
                if not check.ok:
                    failures.append((tag, n, res.theorem, res.k, "stochastic"))
                if res.relation_err > 1e-9 * diameter:
                    failures.append((tag, n, res.theorem, res.k, "relation"))
    _assert_clean(1, "stochasticity sweep", failures)


def test_criterion_2_reduction_identities(schemes):
    failures = []
    for tag, s in schemes.items():
        for n in range(2, N_MAX + 1):
            d_a = np.max(np.abs(matrix_C(s, n, n).entries - matrix_A(s, n).entries))
            d_b = np.max(np.abs(matrix_C(s, n, 1).entries - matrix_B(s, n).entries))
            if d_a > 1e-10:
                failures.append((tag, n, "C(n) vs A", d_a))
            if d_b > 1e-10:
                failures.append((tag, n, "C(1) vs B", d_b))
    _assert_clean(2, "reduction identities", failures)


def test_criterion_3_chebyshev_anchor(schemes):
    s = schemes["chebyshev-u"]
    sd = scheme_spectral(s, 3)
    failures = []
    root = math.sqrt(2.0) / 2.0
    if np.max(np.abs(sd.eigenvalues - [-root, 0.0, root])) > 1e-12:
        failures.append(("zeros", sd.eigenvalues))
    if np.max(np.abs(sd.christoffel - [0.25, 0.5, 0.25])) > 1e-12:
        failures.append(("weights", sd.christoffel))
    row1 = [(3.0 + 2.0 * math.sqrt(2.0)) / 8.0, 0.25, (3.0 - 2.0 * math.sqrt(2.0)) / 8.0]
    got = matrix_A(s, 3).entries[0]
    if np.max(np.abs(got - row1)) > 1e-12:
        failures.append(("matrix A row 1", got))
    _assert_clean(3, "closed-form anchor", failures)


def test_criterion_4_trace_identities(schemes):
    failures = []
    for tag, s in schemes.items():
        b = s.coefficients(N_MAX - 1)[1].tolist()
        for n in range(2, N_MAX + 1):
            scale = 1.0 + sum(map(abs, b[:n]))
            for k in range(1, n + 1):
                value = matrix_C(s, n, k).trace_err
                if value > 1e-10 * scale:
                    failures.append((tag, n, k, value))
    _assert_clean(4, "trace identities", failures)


def test_criterion_5_majorization_and_convexity(schemes):
    failures = []
    for tag, s in schemes.items():
        for n in range(2, N_MAX + 1):
            for res in _all_matrices(s, n):
                holds = _majorization(res.target[None], res.source, 1e-10)[2][0]
                if not holds:
                    failures.append((tag, n, res.theorem, res.k, "majorization"))
        if tag in BOUNDED:
            for n in range(2, 41):
                for res in _all_matrices(s, n):
                    for f in ("square", "abs", "exp"):
                        lhs, rhs = _convex_sums(res.target[None], res.source, f)
                        if rhs - lhs[0] < -1e-10:
                            failures.append((tag, n, res.theorem, res.k, f))
    _assert_clean(5, "majorization certificates and convex margins", failures)


def test_criterion_6_quadrature_exactness(schemes):
    failures = []
    for tag, s in schemes.items():
        tol = 1e-10 if tag in BOUNDED else 1e-8
        moments = [_moments(s.coefficients(m // 2), m + 1)[m] for m in range(60)]
        for n in range(1, 31):
            rule = gauss_rule(s, n)
            for m in range(1, 2 * n):
                quad = float(np.dot(rule.weights, rule.nodes**m))
                scale = max(float(np.dot(rule.weights, np.abs(rule.nodes) ** m)), 1e-300)
                if abs(quad - moments[m]) > tol * scale:
                    failures.append((tag, n, m, abs(quad - moments[m]) / scale))
    _assert_clean(6, "quadrature exactness", failures)


def test_criterion_7_identity_spot_checks(schemes):
    failures = []
    for tag, s in schemes.items():
        offdiag, diag = table = s.coefficients(16)
        a = [0.0, *offdiag.tolist()]  # a[i] = a_i
        for n in range(2, 16):
            spots = spot_points(s, n)
            p_all, dp_all = _values(table, n + 1, spots, derivatives=True)
            # the order-k associated polynomials read the table's tail from index k
            q_all = _values((offdiag[1:], diag[1:]), n, spots)[0]
            r_all = {k: _values((offdiag[k:], diag[k:]), n - k, spots)[0] for k in range(2, n)}
            for i, x in enumerate(spots):
                vals, ders, q = p_all[i], dp_all[i], q_all[i]
                t1 = a[n + 1] * vals[n] * q[n]
                t2 = a[n + 1] * vals[n + 1] * q[n - 1]
                if abs(t1 - t2 - a[1]) > 1e-8 * (abs(t1) + abs(t2) + a[1]):
                    failures.append((tag, n, "wronskian", x))
                lhs = float(np.dot(vals[: n + 1], vals[: n + 1]))
                rhs = a[n + 1] * (ders[n + 1] * vals[n] - vals[n + 1] * ders[n])
                if abs(lhs - rhs) > 1e-8 * max(abs(lhs), abs(rhs)):
                    failures.append((tag, n, "christoffel-darboux", x))
                for k in range(2, n):
                    r = r_all[k][i]
                    lhs = a[1] * r[n - k]
                    u1 = a[k] * vals[k - 1] * q[n - 1]
                    u2 = a[k] * vals[n] * q[k - 2]
                    if abs(u1 - u2 - lhs) > 1e-8 * (abs(u1) + abs(u2) + abs(lhs)):
                        failures.append((tag, n, k, "assoc-factorization", x))
            lam = christoffel_numbers_formula(s, n)
            xs = scheme_spectral(s, n).eigenvalues
            p_sq = np.array([v**2 for v in _values(table, n - 1, xs)[0][:, n - 1]])
            partial_a = matrix_A(s, n).entries[: n - 1].sum(axis=0)
            partial_b = matrix_B(s, n).entries[: n - 1].sum(axis=0)
            for j in range(n):
                rhs_a = 1.0 - lam[j] * p_sq[j]
                rhs_b = 1.0 - lam[j]
                if abs(partial_a[j] - rhs_a) > 1e-8 * max(abs(rhs_a), 1e-300):
                    failures.append((tag, n, j, "column-sum A"))
                if abs(partial_b[j] - rhs_b) > 1e-8 * max(abs(rhs_b), 1e-300):
                    failures.append((tag, n, j, "column-sum B"))
    _assert_clean(7, "identity spot checks", failures)


def test_criterion_8_quotient_oracle_equivalence(schemes):
    """Entries match the row-normalized quotient oracle built from local
    polynomial evaluation.  Configurations where a deleted-block zero falls
    within 1e-6 of a source zero (relative to the spectral diameter) are
    skipped: there the quotient form divides two vanishing quantities and
    defines no entry value."""
    failures = []
    skipped = 0
    for tag, s in schemes.items():
        for n in range(2, 9):
            for k in range(1, n + 1):
                if min_target_gap(s, n, k) < 1e-6:
                    skipped += 1
                    continue
                oracle = quotient_form_C(s, n, k)
                ours = matrix_C(s, n, k).entries
                err = float(np.max(np.abs(ours - oracle) / np.maximum(oracle, 1e-300)))
                if err > 1e-8:
                    failures.append((tag, n, k, err))
    assert skipped < 60
    _assert_clean(8, "quotient-form oracle equivalence", failures)


def test_criterion_9_strict_interlacing(schemes):
    failures = []
    for tag, s in schemes.items():
        for n in range(2, N_MAX + 1):
            x = scheme_spectral(s, n).eigenvalues
            t = scheme_spectral(s, n - 1).eigenvalues
            margin = min(float((t - x[:-1]).min()), float((x[1:] - t).min()))
            if not margin > 0.0:
                failures.append((tag, n, "consecutive", margin))
            y = associated_spectral(s, 1, n - 1).eigenvalues
            margin = min(float((y - x[:-1]).min()), float((x[1:] - y).min()))
            if not margin > 0.0:
                failures.append((tag, n, "associated", margin))
    _assert_clean(9, "strict interlacing", failures)
