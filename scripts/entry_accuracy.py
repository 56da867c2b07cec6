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

Example:
    PYTHONPATH=src python scripts/entry_accuracy.py
    PYTHONPATH=src python scripts/entry_accuracy.py --case laguerre 20 1,10,20
"""
import argparse

import mpmath as mp
import numpy as np

from opmaj import classical_scheme, jacobi_matrix, matrix_C, shifted

DIGITS = 60
SAMPLE = (("legendre", 48), ("laguerre", 40), ("hermite", 40))


def mp_eigenvectors(J):
    """Unit eigenvectors of a JacobiMatrix in mpmath, columns by ascending eigenvalue."""
    m = J.order
    A = mp.zeros(m, m)
    for i, d in enumerate(J.diag.tolist()):
        A[i, i] = mp.mpf(d)
    for i, e in enumerate(J.offdiag.tolist()):
        A[i, i + 1] = A[i + 1, i] = mp.mpf(e)
    eigenvalues, vectors = mp.eigsy(A)
    order = sorted(range(m), key=lambda j: eigenvalues[j])
    return [[vectors[i, j] for j in order] for i in range(m)]  # row-major


def reference_entries(scheme, n, k, full):
    """The order-n certificate entries of deleting row k, as float64 of mpmath values."""
    blocks = []
    if k >= 2:
        blocks.append((mp_eigenvectors(jacobi_matrix(scheme, k - 1)), 0))
    if k <= n - 1:
        blocks.append((mp_eigenvectors(jacobi_matrix(shifted(scheme, k), n - k)), k))
    rows = []
    for vecs, offset in blocks:
        m = len(vecs)
        for i in range(m):
            rows.append(
                [mp.fsum(vecs[r][i] * full[offset + r][j] for r in range(m)) ** 2 for j in range(n)]
            )
    rows.append([full[k - 1][j] ** 2 for j in range(n)])
    return np.array([[float(v) for v in row] for row in rows])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--case", nargs=3, action="append", metavar=("FAMILY", "N", "KS"),
        help="a family without shape parameters, an order, and comma-separated k "
        "(repeatable; replaces the default sample)",
    )
    args = parser.parse_args()
    if args.case:
        cases = [(f, int(n), [int(k) for k in ks.split(",")]) for f, n, ks in args.case]
    else:
        cases = [(f, n, [1, n // 2, n]) for f, n in SAMPLE]

    mp.mp.dps = DIGITS
    print(f"{'family':<10} {'n':>3} {'k':>3} {'max_abs_err':>12} {'max_rel_err':>12}")
    worst_abs = worst_rel = 0.0
    for family, n, ks in cases:
        scheme = classical_scheme(family, n + 1)
        full = mp_eigenvectors(jacobi_matrix(scheme, n))
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
