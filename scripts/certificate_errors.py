#!/usr/bin/env python3
"""Track the numerical quality of the certificates as the order grows.

Prints, per order n, the worst row-sum, column-sum, and relation residuals
over all deletion indices k (theorems B and A are k = 1 and k = n), plus
the smallest interlacing margins.  Useful for judging tolerance headroom:
the overlap entries keep sums exact to a few ulps regardless of how tightly
the deleted-matrix zeros cluster against the source zeros.

Example:
    python scripts/certificate_errors.py --family laguerre --alpha 0 --n-max 40
"""
import argparse

from opmaj import associated_spectral, classical_scheme, matrix_C, scheme_spectral


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", default="legendre")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--n-max", type=int, default=30, dest="n_max")
    args = parser.parse_args()

    scheme = classical_scheme(args.family, args.n_max + 2, alpha=args.alpha, beta=args.beta)
    header = f"{'n':>3} {'row_err':>10} {'col_err':>10} {'rel_err':>10} {'gap_prev':>10} {'gap_assoc':>10}"
    print(header)
    print("-" * len(header))
    for n in range(2, args.n_max + 1):
        x = scheme_spectral(scheme, n).eigenvalues
        row = col = rel = 0.0
        for k in range(1, n + 1):
            res = matrix_C(scheme, n, k)
            row = max(row, res.row_sum_err)
            col = max(col, res.col_sum_err)
            rel = max(rel, res.relation_err)
        prev = scheme_spectral(scheme, n - 1).eigenvalues
        assoc = associated_spectral(scheme, 1, n - 1).eigenvalues
        gap_prev = min((prev - x[:-1]).min(), (x[1:] - prev).min())
        gap_assoc = min((assoc - x[:-1]).min(), (x[1:] - assoc).min())
        print(f"{n:>3} {row:10.2e} {col:10.2e} {rel:10.2e} {gap_prev:10.2e} {gap_assoc:10.2e}")


if __name__ == "__main__":
    main()
