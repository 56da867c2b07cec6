#!/usr/bin/env python3
"""Headroom of each check family of ``verify_scheme``, order by order.

For each order n and check family the script prints the worst row as
``verify_scheme`` recorded it: its metric, the limit it was held to and its
verdict, the numbers in their round-trip repr.  A family is the case key
without its n=, k= and x= tokens and theorem letter, so "n=7 C k=3 row-sums"
and "n=7 A row-sums" are both "row-sums".  The worst row is a failing one if
any fails, else the one closest to its limit.  Every check passes with
metric <= limit, except interlacing, which needs metric < limit = 0.

Example:
    PYTHONPATH=src python scripts/headroom.py --family laguerre --alpha 0 --n-max 40
"""
import argparse
from collections import defaultdict

from opmaj import classical_scheme, verify_scheme


def family_of(case):
    """(n, check family) of a ``verify_scheme`` case key."""
    n, *tokens = case.split()
    kept = [t for t in tokens if t not in ("A", "B", "C") and not t.startswith(("k=", "x="))]
    return int(n.removeprefix("n=")), " ".join(kept)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", default="legendre")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--n-max", type=int, default=20, dest="n_max")
    args = parser.parse_args()

    scheme = classical_scheme(args.family, args.n_max + 2, alpha=args.alpha, beta=args.beta)
    groups = defaultdict(list)
    for row in verify_scheme(scheme, args.n_max):
        groups[family_of(row.case)].append(row)
    print(f"{'n':>3}  {'check':<26} {'worst metric':>24} {'limit':>24}  verdict")
    for (n, family), rows in sorted(groups.items()):
        worst = min(rows, key=lambda r: (r.passed, r.limit - r.metric))
        verdict = "pass" if worst.passed else "FAIL"
        print(f"{n:>3}  {family:<26} {worst.metric!r:>24} {worst.limit!r:>24}  {verdict}")


if __name__ == "__main__":
    main()
