"""Three-term recurrence coefficients for orthonormal polynomial families.

Every scheme uses the probability-measure convention: the underlying measure
has total mass 1 and the polynomials are orthonormal with p_0 = 1.  In that
normalization the recurrence reads

    x p_n(x) = a_{n+1} p_{n+1}(x) + b_n p_n(x) + a_n p_{n-1}(x),

with a_n > 0 for n >= 1 and b_n real.  Rescaling a measure leaves (a_n, b_n)
unchanged, so the classical coefficient tables apply verbatim; the
normalization only fixes p_0 and the total quadrature mass.

``scheme.coefficients(m)`` returns the table (a_1..a_m, b_0..b_m), evaluated
on demand from one vectorized closed form per family, so a scheme is a cheap
immutable value object even for large depths: making one builds no table,
and a table is checked as it is built, the one place it is.  Jacobi
matrices, polynomial recurrences, the eigensolvers and the shifted
(associated) schemes all read that one table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

__all__ = [
    "Family",
    "RecurrenceScheme",
    "DepthError",
    "classical_scheme",
    "from_sequences",
    "shifted",
]


class Family(str, Enum):
    CHEBYSHEV_U = "chebyshev-u"
    CHEBYSHEV_T = "chebyshev-t"
    LEGENDRE = "legendre"
    JACOBI = "jacobi"
    LAGUERRE = "laguerre"
    HERMITE = "hermite"
    CUSTOM = "custom"


class DepthError(ValueError):
    """A coefficient index beyond the scheme's available depth was requested."""


@dataclass(frozen=True)
class RecurrenceScheme:
    """Supplier of recurrence coefficients (a_n, b_n) up to ``max_index``.

    ``coefficients(m)`` is the table up to index m.  A nonzero ``shift``
    indexes into the tail of the base coefficient sequences; such schemes
    generate the associated polynomials of the base measure, and their
    table is the tail of the base table by construction.

    Instances are immutable and hashable, safe to share across threads and
    to use as cache keys.
    """

    kind: Family
    max_index: int
    params: tuple[float, ...] = ()
    shift: int = 0
    a_seq: tuple[float, ...] = ()
    b_seq: tuple[float, ...] = ()

    def coefficients(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Table (a_1..a_m, b_0..b_m) as float arrays, for 0 <= m <= max_index:
        the tail from ``shift`` on of the base table up to index ``shift + m``,
        which is refused with ValueError, and no numpy warning, if float64
        cannot hold it or a custom entry is missing, not finite or not positive."""
        if not 0 <= m <= self.max_index:
            raise DepthError(
                f"coefficients up to index {m} unavailable: scheme depth is {self.max_index}"
            )
        top = self.shift + m
        if self.kind is not Family.CUSTOM:
            return self._table(self.shift, top)
        a = np.array(self.a_seq[:top], dtype=float)
        b = np.array(self.b_seq[: top + 1], dtype=float)
        _check_entries(a, b, top)
        return a[self.shift :], b[self.shift :]

    def _table(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """(a_lo+1..a_hi, b_lo..b_hi) of a classical base table, from its closed forms at
        those indices only, refused by name, with no numpy warning, if float64 cannot hold it."""
        i = np.arange(lo, hi + 1, dtype=float)  # indices of b; i[1:] for a
        a1, b0 = self._lead() if lo == 0 else ((), ())
        with np.errstate(all="ignore"):  # reported below, not warned
            a = np.concatenate((a1, self._a_form(i[1 + len(a1) :])))[: hi - lo]
            b = np.concatenate((b0, self._b_form(i[len(b0) :])))
        if not (np.all(a > 0.0) and np.isfinite(a).all() and np.isfinite(b).all()):
            named = ", ".join(f"{k}={v!r}" for k, v in zip(("alpha", "beta"), self.params))
            raise ValueError(
                f"{self.kind.value} with {named}: the recurrence coefficients up to "
                f"index {self.shift + self.max_index} overflow float64"
            )
        return a, b

    def _lead(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(a_1,) and (b_0,) where the general forms do not give them, () where they do."""
        if self.kind is Family.JACOBI:
            # the general forms are 0/0 there when al + be is -1 (a_1) or 0 (b_0)
            al, be = self.params
            s = al + be + 2.0
            a1 = math.sqrt(4.0 * (al + 1.0) * (be + 1.0) / (s * s * (s + 1.0)))
            return (a1,), ((be - al) / s,)
        if self.kind is Family.CHEBYSHEV_T:
            return (math.sqrt(0.5),), ()
        return (), ()

    def _a_form(self, j):
        """General closed form of a_j, for indices j >= 1 (>= 2 where ``_lead`` gives a_1)."""
        kind = self.kind
        if kind is Family.JACOBI:
            al, be = self.params
            s = 2.0 * j + al + be
            return np.sqrt(
                4.0 * j * (j + al) * (j + be) * (j + al + be) / (s * s * (s + 1.0) * (s - 1.0))
            )
        if kind is Family.LEGENDRE:
            return j / np.sqrt(4.0 * j * j - 1.0)
        if kind is Family.LAGUERRE:
            return np.sqrt(j * (j + self.params[0]))
        if kind is Family.HERMITE:
            return np.sqrt(0.5 * j)
        return np.full_like(j, 0.5)

    def _b_form(self, i):
        """General closed form of b_i, for indices i >= 0 (>= 1 where ``_lead`` gives b_0)."""
        kind = self.kind
        if kind is Family.JACOBI:
            al, be = self.params
            s = 2.0 * i + al + be
            return (be * be - al * al) / (s * (s + 2.0))
        if kind is Family.LAGUERRE:
            return 2.0 * i + self.params[0] + 1.0
        return np.zeros_like(i)


def classical_scheme(
    family: Family | str,
    max_index: int,
    *,
    alpha: float | None = None,
    beta: float | None = None,
) -> RecurrenceScheme:
    """Closed-form scheme for one of the classical families.

    ``alpha`` is the Jacobi or Laguerre exponent (Laguerre defaults to 0),
    ``beta`` the second Jacobi exponent; both must be finite and exceed -1.
    Only the parameters are checked here, so a scheme of any depth is made
    without building its table; a table that overflows float64 (an entry
    not finite, or an a_i not positive) is refused by name, with the
    parameters and ``max_index``, by the ``coefficients`` call that builds it.
    """
    family = Family(family)
    if family is Family.CUSTOM:
        raise ValueError("use from_sequences for custom coefficient schemes")
    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    params: tuple[float, ...] = ()
    if family is Family.JACOBI:
        if alpha is None or beta is None:
            raise ValueError("jacobi requires both alpha and beta")
        if not all(math.isfinite(v) and v > -1.0 for v in (alpha, beta)):
            raise ValueError(
                "jacobi parameters must be finite and exceed -1, "
                f"got alpha={alpha}, beta={beta}"
            )
        params = (float(alpha), float(beta))
    elif family is Family.LAGUERRE:
        if beta is not None:
            raise ValueError("laguerre takes a single parameter alpha")
        alpha = 0.0 if alpha is None else float(alpha)
        if not (math.isfinite(alpha) and alpha > -1.0):
            raise ValueError(
                f"laguerre parameter must be finite and exceed -1, got alpha={alpha}"
            )
        params = (alpha,)
    elif alpha is not None or beta is not None:
        raise ValueError(f"{family.value} takes no shape parameters")
    return RecurrenceScheme(kind=family, max_index=int(max_index), params=params)


def _float(v) -> float:
    """float(v), with an integer beyond the float range read as an infinity."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _check_entries(a: np.ndarray, b: np.ndarray, top: int) -> None:
    """Refuse by index the first a_i (a[0] is a_1) not finite, not positive or missing
    up to a_top, then the first b_i (b[0] is b_0) not finite or missing up to b_top."""
    for name, values, size, ok in (("a", a, top, np.isfinite(a) & (a > 0.0)),
                                   ("b", b, top + 1, np.isfinite(b))):
        first = int(name == "a")
        if not ok.all():
            i = int(ok.argmin())
            need = "finite" if name == "b" or values[i] > 0.0 else "positive"
            raise ValueError(f"{name}[{i + first}] must be {need}, got {float(values[i])}")
        if values.size < size:
            raise ValueError(f"{name}[{values.size + first}] is missing")


def from_sequences(a, b) -> RecurrenceScheme:
    """Scheme wrapping explicit sequences (a_1, a_2, ...) and (b_0, b_1, ...).

    Accepts len(a) == len(b) or len(b) == len(a) + 1; the usable depth is
    len(b) - 1 either way.  Off-diagonal entries must be strictly positive
    (positive a_n make the Jacobi matrix eigenvalues simple) and every entry
    finite, an integer too large for a float included; the offending index
    is reported otherwise.
    """
    a = tuple(map(_float, a))
    b = tuple(map(_float, b))
    if len(b) not in (len(a), len(a) + 1):
        raise ValueError(
            f"length mismatch: got {len(a)} off-diagonal and {len(b)} diagonal "
            "coefficients; need len(b) == len(a) or len(a) + 1"
        )
    if not b:
        raise ValueError("need at least one diagonal coefficient b_0")
    _check_entries(np.array(a), np.array(b), len(b) - 1)
    return RecurrenceScheme(
        kind=Family.CUSTOM, max_index=len(b) - 1, a_seq=a, b_seq=b
    )


def shifted(scheme: RecurrenceScheme, k: int) -> RecurrenceScheme:
    """Scheme of the k-fold associated polynomials: a'_n = a_{n+k}, b'_n = b_{n+k}.

    The orthonormal polynomials of the result are the associated polynomials
    of order k, orthonormal for the k-th associated measure.  Only the depth
    and the shift change: the result reads the tail of the same table.
    """
    if k < 0:
        raise ValueError(f"shift must be nonnegative, got {k}")
    if k == 0:
        return scheme
    if k > scheme.max_index:
        raise DepthError(f"shift {k} exceeds scheme depth {scheme.max_index}")
    return replace(scheme, max_index=scheme.max_index - k, shift=scheme.shift + k)
