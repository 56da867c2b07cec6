"""Zeros, Christoffel numbers, and doubly stochastic majorization certificates
for orthogonal polynomials defined by three-term recurrence coefficients.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them in module order.
"""

from . import recurrence, spectra, orthopoly, majorization, verification
from .recurrence import *  # noqa: F403
from .spectra import *  # noqa: F403
from .orthopoly import *  # noqa: F403
from .majorization import *  # noqa: F403
from .verification import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (recurrence, spectra, orthopoly, majorization, verification)
    for name in module.__all__
]
