"""Certificate sweeps over (n, k) grids with machine-checkable results.

Each check yields a CheckResult with a sortable case key, the measured
metric, and the limit it was held to.  ``certificate_checks`` holds one
certificate to its limits, ``verify_scheme`` runs the whole battery for one
scheme, and the CLI turns either outcome into exit codes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter, le, lt
from typing import NamedTuple

import numpy as np

from .majorization import (
    CONVEX_FUNCTIONS, _certificate_table, _convex_sums, _majorization, _matrix_C
)
from .orthopoly import (
    DEFAULT_SEED, PolynomialOverflowError, _associated_tops, christoffel_numbers_formula, eval_all,
    gauss_rule, jacobi_power_moment, spectral_spot_points,
)
from .recurrence import RecurrenceScheme, shifted
from .spectra import _componentwise_decompose, refuse_beyond_memory, scheme_spectral

__all__ = ["Tolerances", "CheckResult", "certificate_checks", "verify_scheme"]

# highest orders that get the polynomial-identity and quadrature checks
IDENTITY_N_CAP = 15
QUADRATURE_N_CAP = 30
# limits of the checks that take no tolerance from the caller
REDUCTION_TOL = 1e-10
IDENTITY_TOL = 1e-8  # relative, polynomial-identity spot checks
QUADRATURE_TOL = 1e-8  # relative to the absolute-moment scale


@dataclass(frozen=True)
class Tolerances:
    """Caller-set limits of ``certificate_checks`` and ``verify_scheme``."""

    stochastic: float = 1e-10
    relation: float = 1e-9  # relative to the spectral diameter
    majorization: float = 1e-10  # also convex rows; trace rows times 1 + sum |b_i|

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not value > 0.0:
                raise ValueError(f"tolerance {name} must be positive, got {value}")
            if value == np.inf:  # a limit no metric can exceed checks nothing
                raise ValueError(f"tolerance {name} must be finite, got {value}")


class CheckResult(NamedTuple):
    """One check: its sortable case key, the measured metric, its limit and the verdict."""

    case: str
    metric: float
    limit: float
    passed: bool


def _rows(cases, metrics: list, limit: float, strict: bool = False) -> list[CheckResult]:
    """A row per case and its metric, a float, each held to ``limit``: below it if strict."""
    limit = float(limit)
    passed = map(lt if strict else le, metrics, repeat(limit))
    # tuple.__new__ fills each row in C, with no Python frame per row
    return list(map(tuple.__new__, repeat(CheckResult), zip(cases, metrics, repeat(limit), passed)))


def _rel_err(lhs, rhs):
    scale = np.maximum(np.maximum(abs(lhs), abs(rhs)), np.finfo(float).tiny)
    return abs(lhs - rhs) / scale


def certificate_checks(result, tol: Tolerances = Tolerances()) -> list[CheckResult]:
    """The checks a certificate of theorem A, B or C(k) must pass, keyed by its tag.

    Row sums, column sums and entry signs within ``tol.stochastic``; the
    relation within ``tol.relation`` times max(source spread, 1); the
    majorization partial-sum margin and total residual within ``tol.majorization``.
    The row-sum, column-sum and relation residuals are read from the result,
    which computed them when it was built.
    """
    tag = f"n={result.n} {result.theorem}" + (f" k={result.k}" if result.theorem == "C" else "")
    errs = [[float(e)] for e in (result.row_sum_err, result.col_sum_err, result.relation_err)]
    stack = result.entries[None], result.target[None], result.source, errs
    return [rows[0] for rows in _certificate_checks([tag], *stack, tol)]


def _certificate_checks(tags, entries, target, source, errs, tol) -> list[list[CheckResult]]:
    """``certificate_checks`` of the certificates ``tags`` of one order, from their stacked
    arrays and ``_matrix_C``'s error lists: one list of rows per check, in its order."""
    diameter = float(source[-1] - source[0])
    margins, totals, _ = _majorization(target, source, tol.majorization)
    # the least partial-sum margin: 0.0 when order 1 leaves no partial sum
    least = margins.min(axis=1) if margins.shape[1] else np.zeros(len(tags))
    columns = [
        ("row-sums", errs[0], tol.stochastic),
        ("col-sums", errs[1], tol.stochastic),
        ("nonnegative", (-entries.min(axis=(1, 2))).tolist(), tol.stochastic),
        ("relation", errs[2], tol.relation * max(diameter, 1.0)),
        ("majorization-margin", (-least).tolist(), tol.majorization),
        ("majorization-total", totals.tolist(), tol.majorization),
    ]
    return [_rows([f"{tag} {name}" for tag in tags], metrics, limit)
            for name, metrics, limit in columns]


def _identity_checks(out: list, scheme, n: int, points, source, entries_cn, entries_c1):
    """Polynomial-identity spot checks: Wronskian, Christoffel-Darboux,
    the associated-polynomial factorization, and the column-sum identities
    of theorems A and B, read from the entries of C(n) and C(1) over the
    zeros ``source``, against independently evaluated sides.

    The first two difference identities are checked relative to the size of
    their terms (backward error): inside the spectral interval of measures
    with unbounded support the products reach the reciprocal square root of
    the smallest Christoffel number, so a residual relative to the O(1)
    result is not resolvable in doubles while a formula error would still
    surface at full term scale.  The scheme and its first shift take one pass
    over all spot points, and shifts 2..n-1 one more together, on slices of
    one table; an overflow, of the recurrence or of a product or sum of
    the identities, raises PolynomialOverflowError with no numpy warning."""
    offdiag, diag = scheme.coefficients(n + 1)
    a = [0.0, *offdiag.tolist()]  # a[i] = a_i
    base = eval_all(scheme, n + 1, points, derivatives=True)
    p, dp = base.values, base.derivative_values
    q = eval_all(shifted(scheme, 1), n, points).values
    r = _associated_tops(scheme, n, points, (offdiag, diag))  # row k - 2: p^(k)_{n-k}
    # column sums of the deleted-row bands against independently evaluated right sides
    lam = christoffel_numbers_formula(scheme, n)
    # squared one numpy scalar at a time, by libm's pow, whose bits x * x does not always match
    p_nm1_sq = np.array([v ** 2 for v in eval_all(scheme, n - 1, source).values[:, n - 1]])
    try:
        with np.errstate(over="raise", invalid="raise"):
            # a_{n+1} (p_n q_n - p_{n+1} q_{n-1}) = a_1
            t1 = a[n + 1] * p[:, n] * q[:, n]
            t2 = a[n + 1] * p[:, n + 1] * q[:, n - 1]
            spots = {"wronskian": abs(t1 - t2 - a[1]) / (abs(t1) + abs(t2) + a[1])}
            # sum_{j<=n} p_j^2 = a_{n+1} (p_{n+1}' p_n - p_{n+1} p_n')
            lhs = np.array([np.dot(row[: n + 1], row[: n + 1]) for row in p])
            rhs = a[n + 1] * (dp[:, n + 1] * p[:, n] - p[:, n + 1] * dp[:, n])
            spots["christoffel-darboux"] = _rel_err(lhs, rhs)
            # a_1 p^(k)_{n-k} = a_k (p_{k-1} q_{n-1} - p_n q_{k-2}), 2 <= k <= n-1
            for k, r_k in enumerate(r, 2):
                lhs = a[1] * r_k
                u1 = a[k] * p[:, k - 1] * q[:, n - 1]
                u2 = a[k] * p[:, n] * q[:, k - 2]
                metric = abs(u1 - u2 - lhs) / (abs(u1) + abs(u2) + abs(lhs))
                spots[f"k={k} assoc-factorization"] = metric
            err_a = _rel_err(entries_cn[: n - 1].sum(axis=0), 1.0 - lam * p_nm1_sq).max()
            err_b = _rel_err(entries_c1[: n - 1].sum(axis=0), 1.0 - lam).max()
    except FloatingPointError:
        raise PolynomialOverflowError(f"the order {n} identity checks overflow float64") from None
    for name, m in spots.items():
        out += _rows([f"n={n} {name} x={x:.6g}" for x in points], m.tolist(), IDENTITY_TOL)
    out += _rows([f"n={n} column-sum-identity {name}" for name in "AB"],
                 [float(err_a), float(err_b)], IDENTITY_TOL)


def _quadrature_checks(out: list, scheme, n: int, moments):
    rule = gauss_rule(scheme, n)
    worst = 0.0
    for m in range(1, 2 * n):
        quad = float(np.dot(rule.weights, rule.nodes**m))
        scale = float(np.dot(rule.weights, np.abs(rule.nodes) ** m))
        worst = max(worst, abs(quad - moments[m]) / max(scale, np.finfo(float).tiny))
    out += _rows([f"n={n} quadrature-exactness"], [float(worst)], QUADRATURE_TOL)


def _order_checks(out: list, scheme, n: int, table, leads: dict, tol, trace_limit, seed):
    """verify's rows of C(1), ..., C(n), A and B at order n, from one stack freed on return."""
    entries, target, source, errs = _matrix_C(scheme, n, range(1, n + 1), leads, table)
    tags = [f"n={n} C k={k}" for k in range(1, n + 1)]
    columns = _certificate_checks(tags, entries, target, source, errs, tol)
    for f in CONVEX_FUNCTIONS:
        lhs, rhs = _convex_sums(target, source, f)
        columns.append(_rows([f"{t} convex-{f}" for t in tags], (-(rhs - lhs)).tolist(),
                             tol.majorization))
    for rows in columns:
        out += rows
        for name, k in (("B", 1), ("A", n)):  # theorems B and A are C(1) and C(n), re-keyed
            out.append(rows[k - 1]._replace(case=rows[k - 1].case.replace(f"C k={k}", name, 1)))
    # one certificate under two keys: its entries differ from themselves by 0.0
    cases = [f"n={n} reduction-C1-vs-B", f"n={n} reduction-Cn-vs-A"]
    out += _rows(cases, [0.0, 0.0], REDUCTION_TOL)
    trace = errs[3]  # the A and B trace rows repeat at every k
    for name, metrics in (("A", [trace[-1]] * n), ("B", [trace[0]] * n), ("C", trace)):
        out += _rows([f"n={n} k={k} trace-{name}" for k in range(1, n + 1)], metrics, trace_limit)
    if n <= IDENTITY_N_CAP and n + 1 <= scheme.max_index:
        points = spectral_spot_points(scheme, n, seed=seed)
        _identity_checks(out, scheme, n, points, source, entries[n - 1], entries[0])


def verify_scheme(
    scheme: RecurrenceScheme,
    n_max: int,
    tol: Tolerances = Tolerances(),
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Run the full certificate battery for 2 <= n <= n_max.

    Per order: strict interlacing, trace identities, stochasticity/relation/
    majorization/convex checks for A, B and every C(k), the k = 1 and k = n
    reduction identities, polynomial-identity spot checks at deterministic
    random points for n <= IDENTITY_N_CAP (depth permitting), and quadrature
    exactness against the operator-power moment oracle for n <=
    QUADRATURE_N_CAP.  Results are sorted by case key.

    Each order builds and measures C(1), ..., C(n) once, as one stack freed
    before the next order's, every order above m reading the call's one J_m,
    and writes its rows from the stack, with no result per certificate.  Only
    J_n comes from ``scheme_spectral``; J_{n-1} is the order before's, and the first
    associated block is solved from the J_{n_max} table.  A and B are C(n) and
    C(1), as ``matrix_A``/``matrix_B`` define them, so their rows are the C(n)
    and C(1) rows under their own keys, and the ``reduction-C1-vs-B``/
    ``reduction-Cn-vs-A`` rows record 0.0, kept so the record set keeps its keys.
    An n_max that ``matrix_C`` would refuse or the scheme cannot reach, one whose
    stack and leading blocks (about 32 n_max^3 / 3 bytes) exceed physical memory,
    one whose deepest table, to index min(n_max + 1, max_index) as the identity
    checks read it, overflows float64, or a negative seed, raises ValueError
    before any eigensolve, and a convex
    margin that float64 cannot hold raises it as ``convex_report`` does, as does a moment;
    recurrence and identity overflows raise PolynomialOverflowError, with no numpy warning.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if n_max > scheme.max_index + 1:
        raise ValueError(f"n_max {n_max} exceeds the scheme's usable order {scheme.max_index + 1}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    # the memory need and the Gershgorin bound grow with n: n_max covers every order
    offdiag, diag = table = _certificate_table(scheme, n_max)
    # one order's stack of n certificates, 8 n^3 bytes, beside J_1..J_{n-1}, about 8 n^3 / 3
    refuse_beyond_memory(32 * n_max**3 // 3, f"verify to order {n_max}",
                         "one order's certificate stack and its leading blocks")
    # the identity checks' table, the deepest read: an overflow in it is refused here
    scheme.coefficients(min(n_max + 1, scheme.max_index))
    out: list[CheckResult] = []
    leads: dict = {}  # J_m as a deletion block, reused by every order above m
    b_scale = 1.0 + sum(map(abs, diag.tolist()))
    moment_cap = min(QUADRATURE_N_CAP, n_max)
    moments = [jacobi_power_moment(scheme, m) for m in range(2 * moment_cap)]
    x = diag[:1]  # the zero of p_1
    for n in range(2, n_max + 1):
        prev, x = x, scheme_spectral(scheme, n).eigenvalues
        assoc = _componentwise_decompose(diag[1:n], offdiag[1:n - 1]).eigenvalues
        # minus the least gap of the strict pattern x_j < inner_j < x_{j+1}
        metrics = [-float(min((z - x[:-1]).min(), (x[1:] - z).min())) for z in (prev, assoc)]
        cases = [f"n={n} interlacing-{name}" for name in ("consecutive", "associated")]
        out += _rows(cases, metrics, 0.0, strict=True)
        _order_checks(out, scheme, n, table, leads, tol, tol.majorization * b_scale, seed)
        if n <= moment_cap:
            _quadrature_checks(out, scheme, n, moments)
    out.sort(key=attrgetter("case"))
    return out

