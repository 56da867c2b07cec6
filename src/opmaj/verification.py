"""Certificate sweeps over (n, k) grids with machine-checkable results.

Each check yields a CheckResult with a sortable case key, the measured
metric, and the limit it was held to.  ``certificate_checks`` holds one
certificate to its limits, ``verify_scheme`` runs the whole battery for one
scheme, and the CLI turns either outcome into exit codes.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .majorization import (
    CONVEX_FUNCTIONS,
    check_majorization,
    convex_report,
    matrix_C,
    trace_identities,
)
from .orthopoly import (
    DEFAULT_SEED,
    associated_spectral,
    christoffel_numbers_formula,
    eval_all,
    gauss_rule,
    jacobi_power_moment,
    spectral_spot_points,
)
from .recurrence import RecurrenceScheme, shifted
from .spectra import scheme_spectral

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


@dataclass(frozen=True)
class CheckResult:
    case: str
    metric: float
    limit: float
    passed: bool


@dataclass
class _Collector:
    results: list[CheckResult] = field(default_factory=list)

    def add(self, case: str, metric: float, limit: float, strict: bool = False):
        metric = float(metric)
        passed = metric < limit if strict else metric <= limit
        self.results.append(CheckResult(case, metric, float(limit), bool(passed)))


def _rel_err(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs), np.finfo(float).tiny)
    return abs(lhs - rhs) / scale


def _min_interlace_margin(inner: np.ndarray, outer: np.ndarray) -> float:
    """Smallest gap of the strict pattern outer_j < inner_j < outer_{j+1}."""
    return float(min((inner - outer[:-1]).min(), (outer[1:] - inner).min()))


def _tag(result) -> str:
    return f"n={result.n} {result.theorem}" + (f" k={result.k}" if result.theorem == "C" else "")


def certificate_checks(result, tol: Tolerances = Tolerances()) -> list[CheckResult]:
    """The checks a certificate of theorem A, B or C(k) must pass, keyed by its tag.

    Row sums, column sums and entry signs within ``tol.stochastic``; the
    relation within ``tol.relation`` times max(source spread, 1); the
    majorization partial-sum margin and total residual within ``tol.majorization``.
    The row-sum, column-sum and relation residuals are read from the result,
    which computed them when it was built.
    """
    out = _Collector()
    tag = _tag(result)
    out.add(f"{tag} row-sums", result.row_sum_err, tol.stochastic)
    out.add(f"{tag} col-sums", result.col_sum_err, tol.stochastic)
    out.add(f"{tag} nonnegative", -result.entries.min(), tol.stochastic)
    diameter = float(result.source[-1] - result.source[0])
    out.add(f"{tag} relation", result.relation_err, tol.relation * max(diameter, 1.0))
    cert = check_majorization(result.target, result.source, tol.majorization)
    out.add(f"{tag} majorization-margin", -cert.min_margin, tol.majorization)
    out.add(f"{tag} majorization-total", cert.total_residual, tol.majorization)
    return out.results


def _all_checks(out: _Collector, result, tol: Tolerances):
    """``certificate_checks`` plus one convex-function margin row per f."""
    out.results += certificate_checks(result, tol)
    for f in CONVEX_FUNCTIONS:
        out.add(f"{_tag(result)} convex-{f}", -convex_report(result, f).margin, tol.majorization)


def _identity_checks(out: _Collector, scheme, n: int, points, res_a, res_b):
    """Polynomial-identity spot checks: Wronskian, Christoffel-Darboux,
    the associated-polynomial factorization, and the column-sum identities
    of the certificates res_a, res_b against independently evaluated sides.

    The first two difference identities are checked relative to the size of
    their terms (backward error): inside the spectral interval of measures
    with unbounded support the products reach the reciprocal square root of
    the smallest Christoffel number, so a residual relative to the O(1)
    result is not resolvable in doubles while a formula error would still
    surface at full term scale."""
    shift1 = shifted(scheme, 1)
    a = [0.0, *scheme.coefficients(n + 1)[0].tolist()]  # a[i] = a_i
    a1 = a[1]
    for x in points:
        base = eval_all(scheme, n + 1, x, derivatives=True)
        assoc = eval_all(shift1, n, x)
        p, dp, q = base.values, base.derivative_values, assoc.values
        # a_{n+1} (p_n q_n - p_{n+1} q_{n-1}) = a_1
        t1 = a[n + 1] * p[n] * q[n]
        t2 = a[n + 1] * p[n + 1] * q[n - 1]
        metric = abs(t1 - t2 - a1) / (abs(t1) + abs(t2) + a1)
        out.add(f"n={n} wronskian x={x:.6g}", metric, IDENTITY_TOL)
        # sum_{j<=n} p_j^2 = a_{n+1} (p_{n+1}' p_n - p_{n+1} p_n')
        lhs = float(np.dot(p[: n + 1], p[: n + 1]))
        rhs = a[n + 1] * (dp[n + 1] * p[n] - p[n + 1] * dp[n])
        out.add(f"n={n} christoffel-darboux x={x:.6g}", _rel_err(lhs, rhs), IDENTITY_TOL)
        # a_1 p^(k)_{n-k} = a_k (p_{k-1} q_{n-1} - p_n q_{k-2}), 2 <= k <= n-1
        for k in range(2, n):
            r = eval_all(shifted(scheme, k), n - k, x).values
            lhs = a1 * r[n - k]
            u1 = a[k] * p[k - 1] * q[n - 1]
            u2 = a[k] * p[n] * q[k - 2]
            metric = abs(u1 - u2 - lhs) / (abs(u1) + abs(u2) + abs(lhs))
            out.add(f"n={n} k={k} assoc-factorization x={x:.6g}", metric, IDENTITY_TOL)
    # column sums of the deleted-row bands against independently evaluated right sides
    lam = christoffel_numbers_formula(scheme, n)
    x_nodes = scheme_spectral(scheme, n).eigenvalues
    p_nm1_sq = np.array(
        [eval_all(scheme, n - 1, xj).values[n - 1] ** 2 for xj in x_nodes]
    )
    partial_a = res_a.entries[: n - 1].sum(axis=0)
    partial_b = res_b.entries[: n - 1].sum(axis=0)
    err_a = max(_rel_err(sa, 1.0 - lj * pj) for sa, lj, pj in zip(partial_a, lam, p_nm1_sq))
    err_b = max(_rel_err(sb, 1.0 - lj) for sb, lj in zip(partial_b, lam))
    out.add(f"n={n} column-sum-identity A", err_a, IDENTITY_TOL)
    out.add(f"n={n} column-sum-identity B", err_b, IDENTITY_TOL)


def _quadrature_checks(out: _Collector, scheme, n: int, moments):
    rule = gauss_rule(scheme, n)
    worst = 0.0
    for m in range(1, 2 * n):
        quad = float(np.dot(rule.weights, rule.nodes**m))
        scale = float(np.dot(rule.weights, np.abs(rule.nodes) ** m))
        worst = max(worst, abs(quad - moments[m]) / max(scale, np.finfo(float).tiny))
    out.add(f"n={n} quadrature-exactness", worst, QUADRATURE_TOL)


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

    Each order builds C(1), ..., C(n) once.  A and B are C(n) and C(1)
    relabelled, as ``matrix_A``/``matrix_B`` define them, so their rows
    repeat the C(n) and C(1) metrics under their own keys, and the
    ``reduction-C1-vs-B``/``reduction-Cn-vs-A`` rows read 0.0 by
    construction; they are kept so that the record set keeps its keys.
    A convex margin that float64 cannot hold raises ValueError, as
    ``convex_report`` does.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if n_max > scheme.max_index + 1:
        raise ValueError(
            f"n_max {n_max} exceeds the scheme's usable order "
            f"{scheme.max_index + 1}"
        )
    out = _Collector()
    b_scale = 1.0 + sum(map(abs, scheme.coefficients(n_max - 1)[1].tolist()))
    moment_cap = min(QUADRATURE_N_CAP, n_max)
    moments = [jacobi_power_moment(scheme, m) for m in range(2 * moment_cap)]
    for n in range(2, n_max + 1):
        x = scheme_spectral(scheme, n).eigenvalues
        prev = scheme_spectral(scheme, n - 1).eigenvalues
        out.add(
            f"n={n} interlacing-consecutive",
            -_min_interlace_margin(prev, x),
            0.0,
            strict=True,
        )
        assoc = associated_spectral(scheme, 1, n - 1).eigenvalues
        out.add(
            f"n={n} interlacing-associated",
            -_min_interlace_margin(assoc, x),
            0.0,
            strict=True,
        )
        traces = trace_identities(scheme, n)
        for k in range(1, n + 1):
            res_c = matrix_C(scheme, n, k)
            _all_checks(out, res_c, tol)
            for name, residual in (("A", traces[-1]), ("B", traces[0]), ("C", traces[k - 1])):
                out.add(f"n={n} k={k} trace-{name}", residual, tol.majorization * b_scale)
            # only the two end certificates are held past their k
            if k == 1:
                res_b = replace(res_c, theorem="B")
                _all_checks(out, res_b, tol)
                diff = float(np.max(np.abs(res_c.entries - res_b.entries)))
                out.add(f"n={n} reduction-C1-vs-B", diff, REDUCTION_TOL)
            if k == n:
                res_a = replace(res_c, theorem="A")
                _all_checks(out, res_a, tol)
                diff = float(np.max(np.abs(res_c.entries - res_a.entries)))
                out.add(f"n={n} reduction-Cn-vs-A", diff, REDUCTION_TOL)
        if n <= IDENTITY_N_CAP and n + 1 <= scheme.max_index:
            points = spectral_spot_points(scheme, n, count=20, seed=seed)
            _identity_checks(out, scheme, n, points, res_a, res_b)
        if n <= moment_cap:
            _quadrature_checks(out, scheme, n, moments)
    out.results.sort(key=lambda r: r.case)
    return out.results
