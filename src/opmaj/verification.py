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
    DEFAULT_SEED, PolynomialOverflowError, _moments, _values, christoffel_numbers_formula,
    spectral_spot_points,
)
from .recurrence import RecurrenceScheme
from .spectra import refuse_beyond_memory

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


def _identity_checks(out: list, scheme, n: int, table, points, source, entries_cn, entries_c1):
    """Polynomial-identity spot checks: Wronskian, Christoffel-Darboux,
    the associated-polynomial factorization, and the column-sum identities
    of theorems A and B, read from the entries of C(n) and C(1) over the
    zeros ``source``, against independently evaluated sides.

    The first two difference identities are checked relative to the size of
    their terms (backward error): inside the spectral interval of measures
    with unbounded support the products reach the reciprocal square root of
    the smallest Christoffel number, so a residual relative to the O(1)
    result is not resolvable in doubles while a formula error would still
    surface at full term scale.  Each side but the Christoffel numbers is one
    checked pass of ``eval_all``'s recurrence over verify's ``table``, or over
    its slice from index k on for shift k; an overflow, of the recurrence or of
    a product or sum of the identities, raises PolynomialOverflowError unwarned."""
    offdiag, diag = table
    a = [0.0, *offdiag.tolist()]  # a[i] = a_i
    p, dp = _values(table, n + 1, points, derivatives=True)
    q = _values((offdiag[1:], diag[1:]), n, points)[0]
    tops = [_values((offdiag[k:], diag[k:]), n - k, points)[0][:, n - k] for k in range(2, n)]
    # column sums of the deleted-row bands against independently evaluated right sides
    lam = christoffel_numbers_formula(scheme, n)
    # squared one numpy scalar at a time, by libm's pow, whose bits x * x does not always match
    p_nm1_sq = np.array([v ** 2 for v in _values(table, n - 1, source)[0][:, n - 1]])
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
            for k, top in enumerate(tops, 2):  # top = p^(k)_{n-k}
                lhs = a[1] * top
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


def _quadrature_checks(out: list, n: int, nodes, weights, moments):
    worst = 0.0
    for m in range(1, 2 * n):
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
            quad = float(np.dot(weights, nodes**m))
            scale = float(np.dot(weights, np.abs(nodes) ** m))
        if not (np.isfinite(quad) and np.isfinite(scale)):
            raise ValueError(f"the order {n} quadrature check is not finite in float64: x^{m} "
                             f"overflows over zeros up to |x| = {float(np.abs(nodes).max())!r}")
        worst = max(worst, abs(quad - moments[m]) / max(scale, np.finfo(float).tiny))
    out += _rows([f"n={n} quadrature-exactness"], [float(worst)], QUADRATURE_TOL)


def _order_checks(out: list, scheme, n: int, table, leads: dict, tol, trace_limit, seed, moments):
    """verify's rows at order n; all but the identity rows read one stack freed on return."""
    entries, target, source, errs = _matrix_C(scheme, n, range(1, n + 1), leads, table)
    # minus the least gap of the strict pattern x_j < z_j < x_{j+1}, z A's and B's target zeros
    metrics = [-float(min((z - source[:-1]).min(), (source[1:] - z).min()))
               for z in (target[n - 1, :-1], target[0, :-1])]
    cases = [f"n={n} interlacing-{name}" for name in ("consecutive", "associated")]
    out += _rows(cases, metrics, 0.0, strict=True)
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
        _identity_checks(out, scheme, n, table, points, source, entries[n - 1], entries[0])
    if 2 * n <= len(moments):  # B's last row is the Gauss rule's weights
        _quadrature_checks(out, n, source, entries[0, n - 1], moments)


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
    before the next order's, and writes its rows from the stack, with no result
    per certificate.  Every block is a slice of one table, the scheme's to index
    min(n_max + 1, max_index), built once: J_m is solved once into ``leads`` and
    read by every order above m, J_n comes from ``scheme_spectral``, the identity
    rows evaluate the scheme and its shifts from the same table, and the moments
    are one walk of e_1 on its J_K, K = min(n_max, QUADRATURE_N_CAP).  A and
    B are C(n) and C(1), as ``matrix_A``/``matrix_B`` define them, so their rows
    are the C(n) and C(1) rows under their own keys, and the ``reduction-C1-vs-B``/
    ``reduction-Cn-vs-A`` rows record 0.0, kept so the record set keeps its keys.
    Interlacing reads A's and B's target zeros, quadrature B's last row (the weights).
    An n_max that ``matrix_C`` would refuse or the scheme cannot reach, one whose
    stack and leading blocks (about 32 n_max^3 / 3 bytes) exceed physical memory,
    one whose table overflows float64, or a negative seed, raises ValueError
    before any eigensolve, and a convex margin or quadrature power sum that
    float64 cannot hold raises it as ``convex_report`` does, as does a moment;
    recurrence and identity overflows raise PolynomialOverflowError, with no numpy warning.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if n_max > scheme.max_index + 1:
        raise ValueError(f"n_max {n_max} exceeds the scheme's usable order {scheme.max_index + 1}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    # the memory need and the Gershgorin bound grow with n: n_max's refusals cover every order
    _certificate_table(scheme, n_max)
    # one order's stack of n certificates, 8 n^3 bytes, beside J_1..J_{n-1}, about 8 n^3 / 3
    refuse_beyond_memory(32 * n_max**3 // 3, f"verify to order {n_max}",
                         "one order's certificate stack and its leading blocks")
    # every order's table, the identity checks' a_{n+1} included: an overflow is refused here
    _, diag = table = scheme.coefficients(min(n_max + 1, scheme.max_index))
    out: list[CheckResult] = []
    leads: dict = {}  # J_m as a deletion block, reused by every order above m
    b_scale = 1.0 + sum(map(abs, diag[:n_max].tolist()))
    moments = _moments(table, 2 * min(QUADRATURE_N_CAP, n_max))
    for n in range(2, n_max + 1):
        _order_checks(out, scheme, n, table, leads, tol, tol.majorization * b_scale, seed, moments)
    out.sort(key=attrgetter("case"))
    return out

