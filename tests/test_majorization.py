import gc
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opmaj import (
    CONVEX_FUNCTIONS,
    CheckResult,
    ConvergenceError,
    Family,
    RecurrenceScheme,
    StochasticMatrixResult,
    Tolerances,
    certificate_checks,
    check_majorization,
    christoffel_numbers_formula,
    classical_scheme,
    convex_report,
    eval_all,
    from_sequences,
    gauss_rule,
    jacobi_matrix,
    majorization,
    matrix_A,
    matrix_B,
    matrix_C,
    orthopoly,
    scheme_spectral,
    shifted,
    spectra,
    verification,
    verify_scheme,
)

from oracles import (
    block_decompose,
    check_doubly_stochastic,
    christoffel_by_sum,
    delete_row_col,
    min_target_gap,
    overlap_entries,
    quotient_form_C,
    trace_residual,
)

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
        xs = scheme_spectral(s, n).eigenvalues
        diam = xs[-1] - xs[0]
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


@pytest.mark.parametrize("family,params", FAMILIES)
def test_B_last_row_is_the_gauss_rule_weights(family, params):
    # verify's quadrature rows read B's last row as the Christoffel numbers
    s = classical_scheme(family, 61, **params)
    for n in (1, 2, 7, 30, 60):
        assert matrix_B(s, n).entries[-1].tobytes() == gauss_rule(s, n).weights.tobytes(), n


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
        a = [0.0, *s.coefficients(12)[0].tolist()]  # a[i] = a_i
        for n in range(3, 11):
            xs = scheme_spectral(s, n).eigenvalues
            lam = christoffel_numbers_formula(s, n)
            diam = xs[-1] - xs[0]
            for k in range(2, n):
                t = scheme_spectral(s, k - 1).eigenvalues
                lam_top = christoffel_numbers_formula(s, k - 1)
                y = scheme_spectral(shifted(s, k), n - k).eigenvalues
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
                    lhs1 = a[k] ** 2 * float(np.sum(lam_top * pk_t**2 / (t - xj) ** 2))
                    rhs1 = float(np.dot(vals[: k - 1], vals[: k - 1])) / vals[k - 1] ** 2
                    assert lhs1 == pytest.approx(rhs1, rel=1e-8, abs=1e-12)
                    lhs2 = a[k] ** 2 * float(np.sum(lam_assoc / (xj - y) ** 2))
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
    assert cert.partial_margins.min() == pytest.approx(0.20710678118654757)

    same = check_majorization([3.0, -1.0], [3.0, -1.0], tol=0.0)
    assert same.holds and same.partial_margins == pytest.approx([0.0])

    fails = check_majorization([2.0, 0.0], [1.0, 1.0], tol=1e-12)
    assert not fails.holds
    assert fails.partial_margins[0] == pytest.approx(-1.0)

    with pytest.raises(ValueError):
        check_majorization([1.0], [1.0, 2.0])
    # not 1-D: refused by shape, not by numpy's broadcast or axis errors
    square = [[1.0, 2.0], [3.0, 4.0]]
    for x, y, shapes in ((square, square, "(2, 2) and (2, 2)"), (1.0, 2.0, "() and ()")):
        with pytest.raises(ValueError, match=re.escape(f"x and y must be 1-D, got shapes {shapes}")):
            check_majorization(x, y)


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
    b = s.coefficients(20)[1].tolist()
    for n in range(2, 21):
        b_scale = 1.0 + sum(map(abs, b[:n]))
        for res in (matrix_A(s, n), matrix_B(s, n), matrix_C(s, n, max(n // 2, 1))):
            assert check_majorization(res.target, res.source, tol=1e-10).holds
            assert convex_report(res, "square").margin >= -1e-10
            assert convex_report(res, "abs").margin >= -1e-10 * b_scale
            if bounded or n <= 12:
                assert convex_report(res, "exp").margin >= -1e-10


def trace_errs(s, n):
    """The trace residuals of C(1), ..., C(n): B first, A last."""
    return [matrix_C(s, n, k).trace_err for k in range(1, n + 1)]


def test_trace_identities_examples():
    # one residual per deletion index: C(1) = B first, C(n) = A last
    cheb = classical_scheme("chebyshev-u", 6)
    res = trace_errs(cheb, 5)
    assert len(res) == 5
    assert all(v <= 1e-14 for v in res)

    lag = classical_scheme("laguerre", 4, alpha=0.0)
    assert scheme_spectral(lag, 3).eigenvalues.sum() == pytest.approx(9.0, rel=1e-14)
    res = trace_errs(lag, 3)
    assert len(res) == 3
    assert all(v <= 1e-10 * (1 + 9.0) for v in res)

    one = trace_errs(classical_scheme("hermite", 2), 1)
    assert len(one) == 1
    assert all(v <= 1e-15 for v in one)

    with pytest.raises(ValueError):
        matrix_C(cheb, 0, 1)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_certificate_bits_equal_the_block_formulas(family, params):
    # entries built in one n x n array and trace residuals summed from the
    # target match, bit for bit, the stacked squared overlaps and the sums
    # of the block eigenvalues
    s = classical_scheme(family, 60, **params)
    for n in (1, 2, 7, 30, 60):
        for k in range(1, n + 1):
            assert np.array_equal(matrix_C(s, n, k).entries, overlap_entries(s, n, k)), (n, k)
        assert trace_errs(s, n) == [trace_residual(s, n, k) for k in range(1, n + 1)], n


def test_large_certificate_bits_equal_the_block_formulas():
    s = classical_scheme("hermite", 400)
    for k in (1, 2, 200, 399, 400):
        res = matrix_C(s, 400, k)
        assert np.array_equal(res.entries, overlap_entries(s, 400, k)), k
        assert res.trace_err == trace_residual(s, 400, k), k


@pytest.mark.parametrize(
    "family,params",
    FAMILIES
    + [
        ("jacobi", {"alpha": 0.5, "beta": -0.5}),  # b_0 is 0/0 in the general form
        ("jacobi", {"alpha": -0.5, "beta": -0.5}),  # a_1 is 0/0 in the general form
    ],
)
def test_deletion_blocks_sliced_from_the_table_of_J_n(family, params):
    # rows k+1..n of J_n are the order-k associated Jacobi matrix, bit for
    # bit, so the target of C(k) is the block zeros of that matrix and of
    # J_{k-1}, then b_{k-1} as any table reads it
    s = classical_scheme(family, 40, **params)
    for n in (*range(1, 9), 30, 40):
        J = jacobi_matrix(s, n)
        for k in range(1, n + 1):
            parts = [block_decompose(jacobi_matrix(s, k - 1)).eigenvalues] if k >= 2 else []
            if k < n:
                assoc = jacobi_matrix(shifted(s, k), n - k)
                bottom = delete_row_col(J, k)[1]
                assert bottom.diag.tobytes() == assoc.diag.tobytes(), (n, k)
                assert bottom.offdiag.tobytes() == assoc.offdiag.tobytes(), (n, k)
                parts.append(block_decompose(assoc).eigenvalues)
            parts.append(s.coefficients(k - 1)[1][-1:])
            target = matrix_C(s, n, k).target
            assert target.tobytes() == np.concatenate(parts).tobytes(), (n, k)


def test_an_all_k_sweep_keeps_only_J_n():
    # the deletion blocks of C(k) go with the certificate: a sweep over every
    # k leaves J_n's cached decomposition, 8 n^2 + 8 n bytes, and no block
    n = 120
    s = classical_scheme("jacobi", n, alpha=0.37, beta=1.91)  # built by no other test
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(1, n + 1):
            matrix_C(s, n, k)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a few kB of slack for the cache entry and its Python objects
    assert held <= 8 * n**2 + 8 * n + 4096, held


def _session(n_max: int, orders: tuple) -> None:
    # verify on three families, then matrix_C over orders and k on two other schemes
    for family in ("legendre", "laguerre", "hermite"):
        verify_scheme(classical_scheme(family, n_max + 2), n_max)
    for s in (
        classical_scheme("jacobi", max(orders), alpha=0.5, beta=-0.5),
        classical_scheme("chebyshev-t", max(orders)),
    ):
        for n in orders:
            for k in (1, n // 2, n):
                matrix_C(s, n, k)


def test_a_long_lived_process_holds_one_decomposition():
    # what a session leaves allocated is the last J_n (8 n^2 + 8 n bytes)
    # plus a fixed slack: numpy keeps freed small arrays for reuse (28.5 KiB
    # measured after this session), and the cache holds its scheme and key
    _session(4, (3, 4))  # first-call allocations are not held by the session
    tracemalloc.start()
    try:
        _session(20, (60, 90, 120))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n, slack = 120, 64 * 1024
    assert held <= 8 * n**2 + 8 * n + slack, held
    assert scheme_spectral.cache_info().currsize == 1


def test_verify_solves_each_leading_block_once(monkeypatch):
    # per call, J_2..J_{N-1} once each, and the associated block of every C(k)
    # of order at least 2: order-1 blocks never reach the solver
    solves, dstevd = [], spectra.dstevd
    read, dstev = [], spectra.dstev

    def counting_dstevd(d, e):
        solves.append(d.size)
        return dstevd(d, e)

    def counting_dstev(d, e):
        read.append(d.size)
        return dstev(d, e)

    spectra.scheme_spectral.cache_clear()  # a cached decomposition would hide a solve
    monkeypatch.setattr(spectra, "dstevd", counting_dstevd)
    monkeypatch.setattr(spectra, "dstev", counting_dstev)
    N = 12
    verify_scheme(classical_scheme("legendre", N + 1), N)
    assert len(solves) == (N - 2) + (N - 2) * (N - 1) // 2 == 65
    # order m: J_m, and the associated block of C(n - m) for m < n <= N
    assert Counter(solves) == {m: 1 + N - m for m in range(2, N)}
    # read by component, once per call: J_2..J_N; the interlacing rows read
    # the certificates' target zeros and solve nothing of their own
    assert len(read) == N - 1 == 11
    assert Counter(read) == {m: 1 for m in range(2, N + 1)}


def test_verify_evaluates_each_scheme_once_per_order(monkeypatch):
    # per order n with identity checks, n + 1 checked passes of one recurrence,
    # each on a slice of the table verify checked: over the spot points the
    # scheme to degree n + 1 (with derivatives), its first shift to degree n and
    # shift k to degree n - k, 2 <= k <= n - 1, then p_{n-1} over the zeros for
    # the column-sum right sides.  No eval_all and no table of their own: the
    # one coefficients call is the Christoffel formula's, which runs the
    # recurrence once more, unchecked, so as to raise node by node.  The moments
    # are one walk on the same table, and no J_K is built for them
    N = 12
    calls, walks, tables, running = [], [], [], []
    identity_body, moments_body = verification._identity_checks, verification._moments

    def recording(name, body):
        def wrapper(*args, **kwargs):
            if name == "coefficients":
                tables.append(args[1])
            if running:  # every recorded callee takes its degree second
                calls[-1][1].append((name, args[1]))
            return body(*args, **kwargs)
        return wrapper

    def recording_identity_checks(out, scheme, n, *args):
        calls.append((n, []))
        running.append(n)
        try:
            return identity_body(out, scheme, n, *args)
        finally:
            running.pop()

    def recording_moments(table, count):
        walks.append((table[1].size - 1, count))
        return moments_body(table, count)

    def no_jacobi_matrix(*args):
        raise AssertionError("jacobi_matrix called")

    assert not hasattr(verification, "eval_all") and not hasattr(verification, "shifted")
    assert not hasattr(verification, "jacobi_matrix") and not hasattr(orthopoly, "jacobi_matrix")
    for module, name in ((orthopoly, "eval_all"), (verification, "_values"),
                         (verification, "christoffel_numbers_formula")):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    monkeypatch.setattr(RecurrenceScheme, "coefficients",
                        recording("coefficients", RecurrenceScheme.coefficients))
    monkeypatch.setattr(verification, "_identity_checks", recording_identity_checks)
    monkeypatch.setattr(verification, "_moments", recording_moments)
    monkeypatch.setattr(spectra, "jacobi_matrix", no_jacobi_matrix)
    scheme_spectral.cache_clear()  # each order's J_n is then built once
    counts = []
    for _ in range(2):
        calls.clear()
        walks.clear()
        verify_scheme(classical_scheme("legendre", N + 1), N)
        counts.append((list(calls), list(walks)))
    assert counts[0] == counts[1]
    assert counts[0][0] == [
        (n, [("_values", n + 1), ("_values", n), *(("_values", n - k) for k in range(2, n)),
             ("christoffel_numbers_formula", n), ("coefficients", n - 1), ("_values", n - 1)])
        for n in range(2, N + 1)
    ]
    # one walk, of 2 N - 1 steps, on verify's table to index N + 1
    assert counts[0][1] == [(N + 1, 2 * N)]
    # at n_max 60: J_2..J_60 of the 59 scheme_spectral misses, the Christoffel
    # formula's 14 tables to index n - 1, _certificate_table's J_60 and verify's own
    scheme_spectral.cache_clear()
    tables.clear()
    verify_scheme(classical_scheme("legendre", 62), 60)
    assert len(tables) == 75
    assert Counter(tables) == Counter([*range(1, 60), *range(1, 15), 59, 61])


def test_block_slices_are_checked_with_J_n_before_any_block_solve(monkeypatch):
    # the blocks go to dstevd as slices of J_n's table, which coefficients
    # checks as it builds it: a zero off-diagonal is refused there, first
    s = RecurrenceScheme(kind=Family.CUSTOM, max_index=3, a_seq=(1.0, 0.0, 1.0), b_seq=(0.0,) * 4)

    def no_block_solve(*args):
        raise AssertionError("dstevd called")

    monkeypatch.setattr(spectra, "dstevd", no_block_solve)
    message = re.escape("a[2] must be positive, got 0.0")
    for k in range(1, 5):
        with pytest.raises(ValueError, match=message):
            matrix_C(s, 4, k)
    with pytest.raises(ValueError, match=message):
        verify_scheme(s, 4)


def test_tolerances_refuse_a_limit_no_metric_can_exceed():
    # inf is positive, but every check held to it would pass
    for value in (math.inf, float("1e400")):
        with pytest.raises(ValueError, match="^tolerance relation must be finite, got inf$"):
            Tolerances(relation=value)
    for value in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^tolerance majorization must be positive, got"):
            Tolerances(majorization=value)
    assert Tolerances(stochastic=1e308).stochastic == 1e308


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

    # verify holds each certificate it builds to exactly these rows, and
    # its A and B convex rows are those of C(7) and C(1)
    cases = {r.case: r for r in verify_scheme(s, 7)}
    for result in (res, matrix_A(s, 7), matrix_B(s, 7)):
        for row in certificate_checks(result):
            assert cases[row.case] == row
    for theorem, k in (("A", 7), ("B", 1)):
        for f in CONVEX_FUNCTIONS:
            end, c_k = cases[f"n=7 {theorem} convex-{f}"], cases[f"n=7 C k={k} convex-{f}"]
            assert (end.metric, end.limit, end.passed) == (c_k.metric, c_k.limit, c_k.passed)


def test_verify_builds_each_certificate_once(monkeypatch):
    # A and B are C(n) and C(1): each order builds C(1..n) as one stack and
    # nothing more, measured by one majorization pass and one convex pass per f;
    # its rows come from the stack, with at most the C(1) and C(n) results
    # built, and only at orders that run the identity checks
    built, majorized, convex, results = [], [], [], []
    matrix_C_body, result_init = majorization._matrix_C, StochasticMatrixResult.__init__

    def counting_result_init(self, *args, **kwargs):
        result_init(self, *args, **kwargs)
        results.append((self.n, self.k))

    def counting_matrix_C(scheme, n, ks, leads, table):
        built.append((n, list(ks)))
        return matrix_C_body(scheme, n, ks, leads, table)

    def counting_majorization(xs, y, tol):
        majorized.append(xs.shape)
        return majorization._majorization(xs, y, tol)

    def counting_convex_sums(targets, source, f):
        convex.append((targets.shape, f))
        return majorization._convex_sums(targets, source, f)

    for module in (majorization, verification):
        monkeypatch.setattr(module, "_matrix_C", counting_matrix_C)
    monkeypatch.setattr(verification, "_majorization", counting_majorization)
    monkeypatch.setattr(verification, "_convex_sums", counting_convex_sums)
    monkeypatch.setattr(StochasticMatrixResult, "__init__", counting_result_init)
    verify_scheme(classical_scheme("legendre", 8), 7)
    assert [n for n, _ in built] == list(range(2, 8))
    certificates = [(n, k) for n in range(2, 8) for k in range(1, n + 1)]
    assert sorted((n, k) for n, ks in built for k in ks) == certificates
    assert len(certificates) == 27
    assert majorized == [(n, n) for n in range(2, 8)]
    assert sorted(convex) == [((n, n), f) for n in range(2, 8) for f in sorted(CONVEX_FUNCTIONS)]
    # orders 16 and 17 lie above the identity checks' cap, 17 past the depth too
    N = verification.IDENTITY_N_CAP + 2
    verify_scheme(classical_scheme("legendre", N), N)
    assert all(k in (1, n) and n <= verification.IDENTITY_N_CAP for n, k in results), results
    assert max(Counter(n for n, _ in results).values(), default=0) <= 2
    matrix_C(classical_scheme("legendre", 8), 7, 3)  # the count sees every construction
    assert results[-1] == (7, 3)


def test_check_result_contract():
    # verify's and certificate_checks' row: four named fields, immutable, hashable
    row = CheckResult("n=2 C k=1 row-sums", 0.0, 1e-10, True)
    assert row == CheckResult(case="n=2 C k=1 row-sums", metric=0.0, limit=1e-10, passed=True)
    assert CheckResult._fields == ("case", "metric", "limit", "passed")
    assert (row.case, row.metric, row.limit, row.passed) == ("n=2 C k=1 row-sums", 0.0, 1e-10, True)
    with pytest.raises(AttributeError):
        row.passed = False
    assert hash(row) == hash(CheckResult(*row)) and len({row, CheckResult(*row)}) == 1
    assert repr(row) == (
        "CheckResult(case='n=2 C k=1 row-sums', metric=0.0, limit=1e-10, passed=True)"
    )
    # every row verify writes carries a float metric and limit and a bool verdict,
    # failing rows (laguerre's) and strict interlacing rows included
    rows = verify_scheme(classical_scheme("laguerre", 32, alpha=0.0), 30)
    assert not all(r.passed for r in rows)
    assert {(type(r), type(r.metric), type(r.limit), type(r.passed)) for r in rows} == {
        (CheckResult, float, float, bool)
    }
    assert rows == sorted(rows, key=lambda r: r.case)


@pytest.mark.parametrize("family", ["legendre", "laguerre", "hermite"])
def test_stacked_rows_equal_the_single_certificate_path(family):
    # verify measures each order as one stack; every row it writes for C(k),
    # A and B is bit-equal to certificate_checks and convex_report on the one
    # certificate matrix_C builds, on both sides of dstevd's switch at order 26
    s = classical_scheme(family, 33)
    cases = {r.case: r for r in verify_scheme(s, 31)}

    def bits(row):
        return row.case, row.metric.hex(), row.limit.hex(), row.passed

    for n in (2, 25, 26, 31):
        for key, res in [(f"C k={k}", matrix_C(s, n, k)) for k in range(1, n + 1)] + [
            ("A", matrix_A(s, n)), ("B", matrix_B(s, n))
        ]:
            for row in certificate_checks(res):
                assert bits(cases[row.case]) == bits(row), row.case
            for f in CONVEX_FUNCTIONS:
                metric = cases[f"n={n} {key} convex-{f}"].metric
                assert metric.hex() == (-convex_report(res, f).margin).hex(), (n, key, f)
    # order 1, which verify never builds, leaves no partial sum: the margin row reads 0.0
    res = matrix_C(s, 1, 1)
    cert = check_majorization(res.target, res.source)
    margin = certificate_checks(res)[4]
    assert cert.partial_margins.size == 0 and cert.holds
    assert margin.case == "n=1 C k=1 majorization-margin" and margin.passed
    assert -margin.metric == cert.partial_margins.min(initial=0.0) == 0.0


@pytest.mark.parametrize("family", ["laguerre", "hermite"])
@pytest.mark.parametrize("n", [27, 30])
def test_verify_interlacing_rows_read_the_zeros_A_and_B_output(family, n):
    # above order 26 dstevd no longer hands the blocks to dstev's QR code, so a
    # second solve of J_{n-1} or of the associated block could give other bits
    s = classical_scheme(family, n + 2)
    cases = {r.case: r for r in verify_scheme(s, n)}
    for name, res in (("consecutive", matrix_A(s, n)), ("associated", matrix_B(s, n))):
        x, z = res.source, res.target[:-1]
        margin = min((z - x[:-1]).min(), (x[1:] - z).min())
        row = cases[f"n={n} interlacing-{name}"]
        assert row.metric.hex() == (-float(margin)).hex() and row.passed == (margin > 0.0)


@pytest.mark.filterwarnings("error")
def test_verify_refuses_a_quadrature_sum_that_overflows():
    # x^3 overflows at the zero near -4e133 of p_2, while the moments stay
    # finite: the row passed with metric 0.0 once every power sum was NaN
    s = from_sequences([3.1613246304029503e-230],
                       [-5.471541305223879e-215, -4.0075646382308806e+133])
    with pytest.raises(ValueError) as err:
        verify_scheme(s, 2)
    assert str(err.value) == (
        "the order 2 quadrature check is not finite in float64: x^3 overflows "
        "over zeros up to |x| = 4.0075646382308806e+133"
    )


def test_verify_refuses_a_negative_seed_before_any_eigensolve(monkeypatch):
    def no_eigensolve(*args, **kwargs):
        pytest.fail("the eigensolver was called")

    spectra.scheme_spectral.cache_clear()
    monkeypatch.setattr(spectra, "dstev", no_eigensolve)
    monkeypatch.setattr(spectra, "dstevd", no_eigensolve)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -5"):
        verify_scheme(classical_scheme("legendre", 8), 7, seed=-5)


def test_verify_refuses_an_overflowing_table_before_any_eigensolve(monkeypatch):
    # laguerre a_11 = sqrt(11 (11 + alpha)) overflows at this alpha: the
    # tables J_10 reads are finite, and the identity checks' table to index
    # 11 is refused by name before anything is solved
    def no_eigensolve(*args, **kwargs):
        pytest.fail("the eigensolver was called")

    s = classical_scheme("laguerre", 12, alpha=1.7e307)
    assert np.isfinite(s.coefficients(10)[0]).all()
    spectra.scheme_spectral.cache_clear()
    monkeypatch.setattr(spectra, "dstev", no_eigensolve)
    monkeypatch.setattr(spectra, "dstevd", no_eigensolve)
    with pytest.raises(ValueError) as err:
        verify_scheme(s, 10)
    assert str(err.value) == (
        "laguerre with alpha=1.7e+307: the recurrence coefficients up to index 12 overflow float64"
    )


def test_verify_refuses_an_order_matrix_C_refuses_before_any_eigensolve(monkeypatch):
    # against a pretend physical memory of 3200 bytes the certificates of
    # order 10 fit in their 32 n^2 bytes and those of order 11 do not
    def no_eigensolve(*args, **kwargs):
        pytest.fail("the eigensolver was called")

    memory = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": 400}
    monkeypatch.setattr(spectra.os, "sysconf", memory.__getitem__)
    s = classical_scheme("legendre", 13)
    assert matrix_C(s, 10, 5).n == 10
    spectra.scheme_spectral.cache_clear()
    monkeypatch.setattr(spectra, "dstev", no_eigensolve)
    monkeypatch.setattr(spectra, "dstevd", no_eigensolve)
    with pytest.raises(ValueError, match="the order 12 certificate needs"):
        verify_scheme(s, 12)


def test_verify_refuses_an_order_whose_stack_exceeds_memory_before_any_eigensolve(monkeypatch):
    # against a pretend physical memory of 8000 bytes every certificate of
    # order 12 fits in its 32 n^2 = 4608 bytes, but verify to order 12 holds one
    # order's stack (8 n^3 bytes) beside J_1..J_11 (about 8 n^3 / 3): 18432 bytes
    def no_eigensolve(*args, **kwargs):
        pytest.fail("the eigensolver was called")

    memory = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": 1000}
    monkeypatch.setattr(spectra.os, "sysconf", memory.__getitem__)
    s = classical_scheme("legendre", 13)
    assert matrix_C(s, 12, 6).n == 12
    assert verify_scheme(s, 9)  # 32 * 9^3 / 3 = 7776 bytes fit
    spectra.scheme_spectral.cache_clear()
    monkeypatch.setattr(spectra, "dstev", no_eigensolve)
    monkeypatch.setattr(spectra, "dstevd", no_eigensolve)
    with pytest.raises(ValueError, match="^verify to order 12 needs 0.0 GB for one order's"):
        verify_scheme(s, 12)


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
    xs = scheme_spectral(s, n).eigenvalues
    diam = max(xs[-1] - xs[0], 1.0)
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
    "scheme_spectral refuses J_10 with ConvergenceError",
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
    xs = scheme_spectral(s, n).eigenvalues
    diam = max(xs[-1] - xs[0], 1.0)
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
