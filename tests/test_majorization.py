import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opmaj import (
    ConvergenceError,
    Tolerances,
    certificate_checks,
    check_majorization,
    christoffel_numbers_formula,
    classical_scheme,
    convex_report,
    eval_all,
    from_sequences,
    majorization,
    matrix_A,
    matrix_B,
    matrix_C,
    scheme_spectral,
    spectra,
    trace_identities,
    verification,
    verify_scheme,
)

from oracles import check_doubly_stochastic, christoffel_by_sum, min_target_gap, quotient_form_C

FAMILIES = [
    ("chebyshev-u", {}),
    ("chebyshev-t", {}),
    ("legendre", {}),
    ("jacobi", {"alpha": 2.0, "beta": 0.5}),
    ("laguerre", {"alpha": 0.0}),
    ("hermite", {}),
]

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def chebyshev():
    return classical_scheme("chebyshev-u", 40)


def test_matrix_A_chebyshev_2(chebyshev):
    res = matrix_A(chebyshev, 2)
    assert res.entries == pytest.approx(np.full((2, 2), 0.5), abs=1e-14)
    assert res.target == pytest.approx([0.0, 0.0], abs=1e-15)
    assert res.source == pytest.approx([-0.5, 0.5], abs=1e-15)


def test_matrix_A_chebyshev_3_closed_form(chebyshev):
    res = matrix_A(chebyshev, 3)
    row1 = [(3.0 + 2.0 * SQRT2) / 8.0, 0.25, (3.0 - 2.0 * SQRT2) / 8.0]
    assert res.entries[0] == pytest.approx(row1, abs=1e-12)
    assert res.entries[2] == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
    assert res.target == pytest.approx([-0.5, 0.5, 0.0], abs=1e-12)
    assert res.theorem == "A" and res.n == 3 and res.k == 3


def test_matrix_order_one_is_trivial():
    s = from_sequences((), (4.5,))
    for res in (matrix_A(s, 1), matrix_B(s, 1), matrix_C(s, 1, 1)):
        assert res.entries == pytest.approx(np.ones((1, 1)))
        assert res.target == pytest.approx([4.5])
        assert res.relation_err <= 1e-15


def test_matrix_B_equals_A_for_shift_invariant_scheme(chebyshev):
    # constant coefficients make the associated measure equal to the base one
    a = matrix_A(chebyshev, 3)
    b = matrix_B(chebyshev, 3)
    assert b.entries == pytest.approx(a.entries, abs=1e-12)
    assert b.target == pytest.approx(a.target, abs=1e-12)


def test_matrix_B_legendre_2():
    res = matrix_B(classical_scheme("legendre", 5), 2)
    assert res.entries[1] == pytest.approx([0.5, 0.5], abs=1e-14)
    assert res.target[1] == pytest.approx(0.0, abs=1e-15)
    assert res.relation_err <= 1e-14


def test_matrix_C_legendre_4_2():
    res = matrix_C(classical_scheme("legendre", 5), 4, 2)
    check = check_doubly_stochastic(res, 1e-10)
    assert check.ok
    assert res.target.sum() == pytest.approx(res.source.sum(), abs=1e-12)
    assert res.relation_err <= 1e-12


def test_matrix_C_validates_k():
    s = classical_scheme("legendre", 6)
    with pytest.raises(ValueError):
        matrix_C(s, 4, 0)
    with pytest.raises(ValueError):
        matrix_C(s, 4, 5)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_reduction_identities(family, params):
    # A and B are C(n) and C(1) relabelled, bit for bit
    s = classical_scheme(family, 27, **params)
    for n in range(1, 26):
        for res, ref, thm in (
            (matrix_A(s, n), matrix_C(s, n, n), "A"),
            (matrix_B(s, n), matrix_C(s, n, 1), "B"),
        ):
            assert (res.theorem, res.n, res.k) == (thm, n, ref.k)
            for name in ("entries", "source", "target"):
                assert np.array_equal(getattr(res, name), getattr(ref, name)), (n, thm, name)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_stochasticity_and_relation(family, params):
    s = classical_scheme(family, 26, **params)
    for n in range(2, 26):
        diam = scheme_spectral(s, n).diameter
        for res in (matrix_A(s, n), matrix_B(s, n), matrix_C(s, n, (n + 1) // 2)):
            assert check_doubly_stochastic(res, 1e-10).ok
            assert res.relation_err <= 1e-9 * diam


@pytest.mark.parametrize("family,params", FAMILIES)
def test_quotient_oracle_matches_eigvec_route(family, params):
    # every k at small orders; at orders 30 and 40, where the deletion blocks
    # come from divide and conquer, the end and middle deletions
    s = classical_scheme(family, 41, **params)
    cases = [(n, k) for n in range(2, 9) for k in range(1, n + 1)]
    cases += [(n, k) for n in (30, 40) for k in sorted({1, 2, n // 2, n - 1, n})]
    for n, k in cases:
        if min_target_gap(s, n, k) < 1e-6:
            continue
        oracle = quotient_form_C(s, n, k)
        ours = matrix_C(s, n, k).entries
        assert np.max(np.abs(ours - oracle) / np.maximum(oracle, 1e-300)) <= 1e-8, (n, k)


@pytest.mark.parametrize("family", ["laguerre", "hermite"])
def test_last_row_holds_relative_accurate_christoffel_numbers(family):
    # B's last row is the squared first row of the J_n eigenvectors: the
    # Christoffel numbers, down to the exponentially small ones at the extreme
    # zeros, which only a componentwise-accurate solve of J_n keeps
    s = classical_scheme(family, 61)
    res = matrix_B(s, 60)
    lam = christoffel_by_sum(s, 60, res.source)
    assert np.max(np.abs(res.entries[-1] - lam) / lam) <= 1e-10


def test_entries_strictly_positive_for_end_deletions():
    """End-deletion entries are strictly positive.  For the unbounded-support
    families the smallest entries decay exponentially with the order and
    fall below the smallest normal double near n = 33, so positivity is
    asserted where the values are representable."""
    for family, params in FAMILIES:
        s = classical_scheme(family, 41, **params)
        n_cap = 40 if family in ("chebyshev-u", "chebyshev-t", "legendre", "jacobi") else 30
        for n in range(2, n_cap + 1):
            assert matrix_A(s, n).entries.min() >= 1e-300
            assert matrix_B(s, n).entries.min() >= 1e-300
        for n in range(n_cap + 1, 41):
            assert matrix_A(s, n).entries.min() >= 0.0
            assert matrix_B(s, n).entries.min() >= 0.0


def test_column_sum_proof_identities():
    """Partial column sums of the first n-1 rows equal 1 minus the bottom-row
    entry, with the right side evaluated independently from reciprocal-sum
    Christoffel numbers and recurrence polynomial values."""
    for family, params in FAMILIES:
        s = classical_scheme(family, 42, **params)
        for n in range(2, 41):
            lam = christoffel_numbers_formula(s, n)
            x = scheme_spectral(s, n).eigenvalues
            p_sq = np.array([eval_all(s, n - 1, xj).values[n - 1] ** 2 for xj in x])
            partial_a = matrix_A(s, n).entries[: n - 1].sum(axis=0)
            partial_b = matrix_B(s, n).entries[: n - 1].sum(axis=0)
            assert partial_a == pytest.approx(1.0 - lam * p_sq, abs=1e-10)
            assert partial_b == pytest.approx(1.0 - lam, abs=1e-10)


def test_sum_identities_at_source_zeros():
    """The two band-sum identities behind the column-sum proof, checked at
    every zero of p_n with well-separated targets: the p-block band sums to
    the partial square sum over p_{k-1}^2, and the associated band to the
    complementary partial sum (via the reciprocal Christoffel number)."""
    for family, params in FAMILIES:
        s = classical_scheme(family, 12, **params)
        for n in range(3, 11):
            xs = scheme_spectral(s, n).eigenvalues
            lam = christoffel_numbers_formula(s, n)
            diam = xs[-1] - xs[0]
            for k in range(2, n):
                t = scheme_spectral(s, k - 1).eigenvalues
                lam_top = christoffel_numbers_formula(s, k - 1)
                from opmaj import associated_spectral, shifted

                y = associated_spectral(s, k, n - k).eigenvalues
                lam_assoc = christoffel_numbers_formula(shifted(s, k), n - k)
                pk_t = np.array([eval_all(s, k, ti).values[k] for ti in t])
                for j, xj in enumerate(xs):
                    if (
                        np.abs(t - xj).min() < 1e-6 * diam
                        or np.abs(y - xj).min() < 1e-6 * diam
                    ):
                        continue
                    vals = eval_all(s, n, xj).values
                    if vals[k - 1] ** 2 < 1e-8 * float(np.dot(vals, vals)):
                        continue
                    lhs1 = s.a(k) ** 2 * float(np.sum(lam_top * pk_t**2 / (t - xj) ** 2))
                    rhs1 = float(np.dot(vals[: k - 1], vals[: k - 1])) / vals[k - 1] ** 2
                    assert lhs1 == pytest.approx(rhs1, rel=1e-8, abs=1e-12)
                    lhs2 = s.a(k) ** 2 * float(np.sum(lam_assoc / (xj - y) ** 2))
                    rhs2 = (1.0 / lam[j] - float(np.dot(vals[:k], vals[:k]))) / vals[k - 1] ** 2
                    assert lhs2 == pytest.approx(rhs2, rel=1e-8, abs=1e-12)


def test_check_doubly_stochastic_basics():
    assert check_doubly_stochastic(np.eye(2), 0.0).ok
    bad = check_doubly_stochastic([[0.6, 0.4], [0.3, 0.7]], 1e-12)
    assert not bad.ok
    assert bad.max_col_err == pytest.approx(0.1)
    assert bad.max_row_err == pytest.approx(0.0, abs=1e-16)
    assert check_doubly_stochastic(matrix_A(classical_scheme("legendre", 11), 10), 1e-10).ok
    with pytest.raises(ValueError):
        check_doubly_stochastic(np.ones((2, 3)), 1e-10)
    with pytest.raises(ValueError):
        check_doubly_stochastic(np.eye(2), -1.0)


def test_check_majorization_examples():
    cert = check_majorization([-0.5, 0.5, 0.0], [-SQRT2 / 2, 0.0, SQRT2 / 2], tol=1e-10)
    assert cert.holds
    assert cert.partial_margins == pytest.approx([SQRT2 / 2 - 0.5, SQRT2 / 2 - 0.5])
    assert cert.total_residual <= 1e-15
    assert cert.min_margin == pytest.approx(0.20710678118654757)

    same = check_majorization([3.0, -1.0], [3.0, -1.0], tol=0.0)
    assert same.holds and same.partial_margins == pytest.approx([0.0])

    fails = check_majorization([2.0, 0.0], [1.0, 1.0], tol=1e-12)
    assert not fails.holds
    assert fails.partial_margins[0] == pytest.approx(-1.0)

    with pytest.raises(ValueError):
        check_majorization([1.0], [1.0, 2.0])


def test_convex_report_examples(chebyshev):
    rep = convex_report(matrix_A(chebyshev, 3), "square")
    assert rep.lhs == pytest.approx(0.5, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)
    assert rep.margin == pytest.approx(0.5, abs=1e-12)
    exp_rep = convex_report(matrix_C(classical_scheme("legendre", 6), 5, 3), "exp")
    assert exp_rep.margin >= 0.0
    with pytest.raises(ValueError):
        convex_report(matrix_A(chebyshev, 3), "cube")


@pytest.mark.filterwarnings("error")
def test_convex_exp_overflow_refused_without_warning():
    # the largest zero of laguerre p_200 is 767.8, past exp's float64 range:
    # the margin is refused by name instead of coming out NaN with a warning
    res = matrix_A(classical_scheme("laguerre", 200), 200)
    with pytest.raises(ValueError, match=r"convex-exp margin .* \|x\| = 767\.81469"):
        convex_report(res, "exp")
    assert np.isfinite(convex_report(res, "square").margin)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_majorization_and_convexity_sweep(family, params):
    """Majorization certificates and convex margins.  For the positive-axis
    measure the absolute-value margin is mathematically zero (|x| is linear
    on the support), so the slack scales with the trace there; exp margins
    for the unbounded families are only resolvable in doubles at small
    order, where the top-of-spectrum gaps stay above rounding."""
    bounded = family in ("chebyshev-u", "chebyshev-t", "legendre", "jacobi")
    s = classical_scheme(family, 21, **params)
    for n in range(2, 21):
        b_scale = 1.0 + sum(abs(s.b(i)) for i in range(n))
        for res in (matrix_A(s, n), matrix_B(s, n), matrix_C(s, n, max(n // 2, 1))):
            assert check_majorization(res.target, res.source, tol=1e-10).holds
            assert convex_report(res, "square").margin >= -1e-10
            assert convex_report(res, "abs").margin >= -1e-10 * b_scale
            if bounded or n <= 12:
                assert convex_report(res, "exp").margin >= -1e-10


def test_trace_identities_examples():
    # one residual per deletion index: C(1) = B first, C(n) = A last
    cheb = classical_scheme("chebyshev-u", 6)
    res = trace_identities(cheb, 5)
    assert len(res) == 5
    assert all(v <= 1e-14 for v in res)

    lag = classical_scheme("laguerre", 4, alpha=0.0)
    assert scheme_spectral(lag, 3).eigenvalues.sum() == pytest.approx(9.0, rel=1e-14)
    res = trace_identities(lag, 3)
    assert len(res) == 3
    assert all(v <= 1e-10 * (1 + 9.0) for v in res)

    one = trace_identities(classical_scheme("hermite", 2), 1)
    assert len(one) == 1
    assert all(v <= 1e-15 for v in one)

    with pytest.raises(ValueError):
        trace_identities(cheb, 0)


def test_certificate_checks_rows():
    s = classical_scheme("legendre", 8)
    res = matrix_C(s, 7, 3)
    rows = certificate_checks(res)
    checks = ("row-sums", "col-sums", "nonnegative", "relation",
              "majorization-margin", "majorization-total")
    assert [r.case for r in rows] == [f"n=7 C k=3 {c}" for c in checks]
    assert all(r.passed for r in rows)
    diameter = float(res.source[-1] - res.source[0])
    assert rows[3].limit == Tolerances().relation * max(diameter, 1.0)
    # the stochastic rows read the residuals the result carries, bit-equal to
    # what check_doubly_stochastic recomputes
    stoch = check_doubly_stochastic(res, 1e-10)
    assert [r.metric for r in rows[:3]] == [stoch.max_row_err, stoch.max_col_err, -stoch.min_entry]
    assert certificate_checks(matrix_A(s, 7))[0].case == "n=7 A row-sums"
    assert certificate_checks(matrix_B(s, 7))[0].case == "n=7 B row-sums"

    # every partial-sum margin passes at 1e-30; the total residual does not
    tight = {r.case.split()[-1]: r for r in certificate_checks(res, Tolerances(majorization=1e-30))}
    assert tight["majorization-margin"].passed
    assert not tight["majorization-total"].passed

    # verify holds each certificate it builds to exactly these rows
    cases = {r.case: r for r in verify_scheme(s, 7)}
    for result in (res, matrix_A(s, 7), matrix_B(s, 7)):
        for row in certificate_checks(result):
            assert cases[row.case] == row


def test_verify_builds_each_certificate_once(monkeypatch):
    # A and B are C(n) and C(1) relabelled: each order builds C(1..n) and nothing more
    built = []

    def counting_matrix_C(scheme, n, k):
        built.append((n, k))
        return matrix_C(scheme, n, k)

    for module in (majorization, verification):
        monkeypatch.setattr(module, "matrix_C", counting_matrix_C)
    verify_scheme(classical_scheme("legendre", 8), 7)
    assert sorted(built) == [(n, k) for n in range(2, 8) for k in range(1, n + 1)]


def test_certificate_arrays_are_read_only():
    res = matrix_C(classical_scheme("laguerre", 6), 6, 3)
    for arr in (res.entries, res.source, res.target):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@given(
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=2, max_size=6),
    st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=3, max_size=7),
    st.integers(min_value=1, max_value=7),
)
@settings(max_examples=40, deadline=None)
def test_random_scheme_certificates(a, b, k_pick):
    if len(b) != len(a) + 1:
        return
    s = from_sequences(a, b)
    n = s.max_index + 1
    k = 1 + (k_pick % n)
    diam = max(scheme_spectral(s, n).diameter, 1.0)
    for res in (matrix_A(s, n), matrix_B(s, n), matrix_C(s, n, k)):
        assert check_doubly_stochastic(res, 1e-10).ok
        assert res.relation_err <= 1e-9 * diam
        assert check_majorization(res.target, res.source, tol=1e-9).holds


@pytest.mark.xfail(
    strict=True,
    raises=ConvergenceError,
    reason="the range holds schemes whose zeros float64 cannot separate: for the "
    "explicit example two zeros of p_10 near 9.9 are 1.6e-15 apart and two near "
    "10.1 are 1.5e-15 apart (mpmath), each under one ulp (1.8e-15), so "
    "eigen_decompose refuses J_10 with ConvergenceError",
)
@given(
    st.integers(min_value=1, max_value=25).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=n - 1, max_size=n - 1),
            st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=n, max_size=n),
        )
    )
)
@example(([0.1] * 9, [10.0, 10.0, -10.0, -10.0, -10.0, -10.0, -10.0, -10.0, 10.0, 10.0]))
@settings(max_examples=60, deadline=None)
def test_wide_random_scheme_certificates_every_k(coefficients):
    # a_i in [0.1, 10], b_i in [-10, 10], n <= 25, every deletion index, at
    # the library's default limits
    a, b = coefficients
    s = from_sequences(a, b)
    n = len(b)
    diam = max(scheme_spectral(s, n).diameter, 1.0)
    for k in range(1, n + 1):
        res = matrix_C(s, n, k)
        assert check_doubly_stochastic(res, 1e-10).ok, k
        assert res.relation_err <= 1e-9 * diam, k
        assert check_majorization(res.target, res.source, tol=1e-10).holds, k


def test_oversized_certificate_refused_before_solving(monkeypatch):
    # 32 n^2 bytes of working arrays against a pretend physical memory of 512
    # bytes: order 4 is served; order 5 is refused although each of its
    # eigensolves (8 * 25 bytes) would fit
    memory = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": 64}
    monkeypatch.setattr(spectra.os, "sysconf", memory.__getitem__)
    s = classical_scheme("legendre", 5)
    assert matrix_C(s, 4, 2).n == 4

    def no_eigensolve(*args, **kwargs):
        pytest.fail("the eigensolver was called")

    monkeypatch.setattr(spectra, "dstev", no_eigensolve)
    monkeypatch.setattr(spectra, "dstevd", no_eigensolve)
    for build in (lambda: matrix_A(s, 5), lambda: matrix_B(s, 5), lambda: matrix_C(s, 5, 3)):
        with pytest.raises(ValueError, match="the order 5 certificate needs"):
            build()


@given(
    st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=2, max_size=6),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_majorization_from_permutation_mixtures(y, raw_w, rng):
    """Any convex combination of permutations applied to y produces a vector
    majorized by y."""
    y = np.asarray(y)
    n = y.size
    perms = [list(rng.sample(range(n), n)) for _ in range(3)]
    w = np.asarray(raw_w) + 1e-3
    w /= w.sum()
    A = sum(wi * np.eye(n)[p] for wi, p in zip(w, perms))
    x = A @ y
    assert check_majorization(x, y, tol=1e-9).holds
