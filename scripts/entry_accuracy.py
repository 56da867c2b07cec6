#!/usr/bin/env python3
"""Error of the ``matrix_C`` entries against a 60-digit eigensolve.

For each sampled (family, n, k) the certificate entries are recomputed in
mpmath at 60 significant digits from the same double-precision Jacobi
matrices: the squared overlaps between the block eigenvectors and the J_n
eigenvectors, and the squared row k of the J_n eigenvectors.  The script
prints, per case and over all cases, the largest absolute error of the
float64 entries and their largest relative error over the nonzero
reference entries.  The default sample is legendre n=48, laguerre n=40
and hermite n=40, each at k in {1, n//2, n}; it takes about a minute.

``--rows FAMILY N`` instead (or, with ``--case``, as well) compares the
squared components of J_N's eigenvectors on rows 0, N//3 and N-1, the
numbers a certificate's last row and the Christoffel numbers read one at a
time, with ``tests/oracles.py::mp_component_squares`` (50 digits, O(N^2)):
for each row it prints the largest relative error over every zero whose
reference square is a normal double, of ``scheme_spectral``'s components,
of LAPACK ``dstev``'s and ``dstevd``'s on the same matrix and, on row 0
(``formula``, "-" on the other rows), of ``christoffel_numbers_formula``.
Order 400 takes about a minute.

Example:
    PYTHONPATH=src python scripts/entry_accuracy.py
    PYTHONPATH=src python scripts/entry_accuracy.py --case laguerre 20 1,10,20
    PYTHONPATH=src python scripts/entry_accuracy.py --rows laguerre 200 --rows hermite 400
"""
import argparse
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy.linalg.lapack import dstev, dstevd

from opmaj import (
    christoffel_numbers_formula, classical_scheme, jacobi_matrix, matrix_C, scheme_spectral
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import mp_component_squares  # noqa: E402

DIGITS = 60
SAMPLE = (("legendre", 48), ("laguerre", 40), ("hermite", 40))


def mp_eigenvectors(diag, offdiag):
    """Unit eigenvectors of the Jacobi matrix (diag, offdiag) in mpmath, columns by
    ascending eigenvalue."""
    m = diag.size
    A = mp.zeros(m, m)
    for i, d in enumerate(diag.tolist()):
        A[i, i] = mp.mpf(d)
    for i, e in enumerate(offdiag.tolist()):
        A[i, i + 1] = A[i + 1, i] = mp.mpf(e)
    eigenvalues, vectors = mp.eigsy(A)
    order = sorted(range(m), key=lambda j: eigenvalues[j])
    return [[vectors[i, j] for j in order] for i in range(m)]  # row-major


def reference_entries(scheme, n, k, full):
    """The order-n certificate entries of deleting row k, as float64 of mpmath values."""
    offdiag, diag = scheme.coefficients(n - 1)  # J_n's table: both blocks are slices of it
    blocks = []
    if k >= 2:
        blocks.append((mp_eigenvectors(diag[: k - 1], offdiag[: k - 2]), 0))
    if k <= n - 1:
        blocks.append((mp_eigenvectors(diag[k:], offdiag[k:]), k))
    rows = []
    for vecs, offset in blocks:
        m = len(vecs)
        for i in range(m):
            rows.append(
                [mp.fsum(vecs[r][i] * full[offset + r][j] for r in range(m)) ** 2 for j in range(n)]
            )
    rows.append([full[k - 1][j] ** 2 for j in range(n)])
    return np.array([[float(v) for v in row] for row in rows])


def row_errors(family, n):
    """Per row 0, n//3, n-1 of J_n: (row, largest relative error of the squared
    components of scheme_spectral, of dstev and of dstevd, and on row 0 of
    christoffel_numbers_formula, else None) over the zeros."""
    scheme = classical_scheme(family, n)
    offdiag, diag = scheme.coefficients(n - 1)
    sd = scheme_spectral(scheme, n)
    solved = [sd.components, dstev(diag, offdiag)[1], dstevd(diag, offdiag)[1]]
    formula = christoffel_numbers_formula(scheme, n)
    rows = [0, n // 3, n - 1]
    ref = mp_component_squares(scheme, n, sd.eigenvalues, rows)
    tiny = mp.mpf(float(np.finfo(float).tiny))
    out = []
    with mp.workdps(50):
        for i, r in enumerate(rows):
            # the squares, exact in mpmath, and on row 0 the formula's weights
            got = [[mp.mpf(float(v)) ** 2 for v in vecs[r]] for vecs in solved]
            got += [[mp.mpf(float(w)) for w in formula]] * (r == 0)
            errs = [0.0] * len(got)
            for j, squares in enumerate(ref):
                if squares[i] >= tiny:
                    for s, values in enumerate(got):
                        errs[s] = max(errs[s], float(abs(values[j] / squares[i] - 1)))
            out.append((r, *errs, *[None] * (r != 0)))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--case", nargs=3, action="append", metavar=("FAMILY", "N", "KS"),
        help="a family without shape parameters, an order, and comma-separated k "
        "(repeatable; replaces the default sample)",
    )
    parser.add_argument(
        "--rows", nargs=2, action="append", metavar=("FAMILY", "N"),
        help="compare the squared J_N components of rows 0, N//3 and N-1 (repeatable; "
        "without --case the entry sample is skipped)",
    )
    args = parser.parse_args()
    if args.rows:
        print(f"{'family':<10} {'n':>4} {'row':>4} {'opmaj':>9} {'dstev':>9} {'dstevd':>9}"
              f" {'formula':>9}")
        for family, n in args.rows:
            for r, *errs in row_errors(family, int(n)):
                print(f"{family:<10} {int(n):>4} {r:>4} "
                      + " ".join(f"{'-':>9}" if e is None else f"{e:9.2e}" for e in errs))
        if not args.case:
            return
    if args.case:
        cases = [(f, int(n), [int(k) for k in ks.split(",")]) for f, n, ks in args.case]
    else:
        cases = [(f, n, [1, n // 2, n]) for f, n in SAMPLE]

    mp.mp.dps = DIGITS
    print(f"{'family':<10} {'n':>3} {'k':>3} {'max_abs_err':>12} {'max_rel_err':>12}")
    worst_abs = worst_rel = 0.0
    for family, n, ks in cases:
        scheme = classical_scheme(family, n + 1)
        J = jacobi_matrix(scheme, n)
        full = mp_eigenvectors(J.diag, J.offdiag)
        for k in ks:
            ref = reference_entries(scheme, n, k, full)
            got = matrix_C(scheme, n, k).entries
            err = np.abs(got - ref)
            nonzero = ref > 0.0
            abs_err = float(err.max())
            rel_err = float((err[nonzero] / ref[nonzero]).max())
            worst_abs, worst_rel = max(worst_abs, abs_err), max(worst_rel, rel_err)
            print(f"{family:<10} {n:>3} {k:>3} {abs_err:12.2e} {rel_err:12.2e}")
    print(f"{'all':<18} {worst_abs:12.2e} {worst_rel:12.2e}")


if __name__ == "__main__":
    main()
