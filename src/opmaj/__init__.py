"""Zeros, Christoffel numbers, and doubly stochastic majorization certificates
for orthogonal polynomials defined by three-term recurrence coefficients."""

from .recurrence import (
    DepthError,
    Family,
    RecurrenceScheme,
    classical_scheme,
    from_sequences,
    shifted,
)
from .spectra import (
    ConvergenceError,
    JacobiMatrix,
    SpectralData,
    block_spectral,
    eigen_decompose,
    jacobi_matrix,
    scheme_spectral,
)
from .orthopoly import (
    DEFAULT_SEED,
    PolynomialOverflowError,
    PolynomialValueSet,
    QuadratureRule,
    associated_spectral,
    christoffel_numbers_formula,
    eval_all,
    gauss_quadrature,
    gauss_rule,
    jacobi_power_moment,
    spectral_spot_points,
)
from .majorization import (
    CONVEX_FUNCTIONS,
    ConvexReport,
    MajorizationCertificate,
    StochasticMatrixResult,
    check_majorization,
    convex_report,
    matrix_A,
    matrix_B,
    matrix_C,
    trace_identities,
)
from .verification import CheckResult, Tolerances, certificate_checks, verify_scheme

__version__ = "0.1.0"

__all__ = [
    "DepthError",
    "Family",
    "RecurrenceScheme",
    "classical_scheme",
    "from_sequences",
    "shifted",
    "ConvergenceError",
    "JacobiMatrix",
    "SpectralData",
    "block_spectral",
    "eigen_decompose",
    "jacobi_matrix",
    "scheme_spectral",
    "DEFAULT_SEED",
    "PolynomialOverflowError",
    "PolynomialValueSet",
    "QuadratureRule",
    "associated_spectral",
    "christoffel_numbers_formula",
    "eval_all",
    "gauss_quadrature",
    "gauss_rule",
    "jacobi_power_moment",
    "spectral_spot_points",
    "CONVEX_FUNCTIONS",
    "ConvexReport",
    "MajorizationCertificate",
    "StochasticMatrixResult",
    "check_majorization",
    "convex_report",
    "matrix_A",
    "matrix_B",
    "matrix_C",
    "trace_identities",
    "CheckResult",
    "Tolerances",
    "certificate_checks",
    "verify_scheme",
]
