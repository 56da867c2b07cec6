#!/usr/bin/env python3
"""Digest the observable outputs of opmaj, to show a refactor changes none.

Prints five sha256 digests:

* ``cli``: (argv, exit code, stdout) of 393 invocations of the command
  line over a fixed grid: six families x n in {1, 2, 7, 30} x theorems A,
  B and C at k in {1, ceil(n/2), n} x json/csv, plus ``zeros``,
  ``weights``, ``quad``, ``verify --n-max 12``, three larger outputs
  (``weights`` laguerre n = 200 in json and csv, whose 0.0 and subnormal
  weights carry the extreme exponents, and ``zeros`` hermite n = 400 in
  csv), a fixed list of usage errors and failing checks (some with two
  errors, so that stderr shows which is reported first), and each
  command's ``--help``;
* ``verify``: (case, metric, limit, passed) of ``verify_scheme`` at
  n_max = 30 for legendre, laguerre and hermite;
* ``stderr``: the stderr of every invocation above, kept apart because
  error wordings may change on purpose.  Python warnings are recorded
  rather than printed, so their source line numbers never enter a digest;
* ``coeffs``: what the recurrence coefficients build, over the six families
  plus jacobi (0.5, -0.5) and (-0.5, -0.5) x shift k in {0, 1, 5} x order
  n in {1, 2, 7, 30, 300}: from the tail from index k of the table to index
  k + n (the order-k associated polynomials), the bytes of its order-n
  Jacobi matrix, of its values and derivatives p_0..p_n at three interior
  points, and of the leading coefficient gamma_n = 1 / (a_1 ... a_n), divided
  out in order, with an exception recorded by type and message;
* ``verify60``: the rows of ``verify_scheme`` at n_max = 60 for the same
  three families, as ``verify`` records them: the benchmark's verify
  workload.

Run from the root of a checkout, once per commit, and compare:
    PYTHONPATH=src python scripts/golden_outputs.py
    PYTHONPATH=src python scripts/golden_outputs.py --records out.jsonl
    PYTHONPATH=src python scripts/golden_outputs.py --diff old.jsonl new.jsonl
``scripts/golden_digests.json`` records the five digests printed under
``OPENBLAS_NUM_THREADS=1`` on each build they were taken on (the numpy and
scipy versions, their BLAS and LAPACK, the machine); the tests compare them
on a recorded build, so a change of output bits on purpose updates that file.
``--records`` also writes one JSON line per CLI invocation (keyed by its
argv), per ``verify_scheme`` case (keyed by [family, case] at n_max = 30 and
by [family, case, 60] at n_max = 60) and per coefficient case (keyed by
[family, params, shift, order]).  ``--diff`` prints the key and the changed
fields of every record that differs between two such files, or that only one
of them holds, and exits 1 if any does; on stderr it then tallies the
differing records by group and changed fields, most first: a verify case by
its check family (as the benchmark's worker names it, its case key without
the ``n=``/``k=``/``x=`` tags and A/B/C labels: "n=9 B quadrature-exactness"
is "quadrature-exactness"), a CLI invocation by its command ("cli matrix"), a
coefficient case as "coeffs".
"""
import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import warnings
from collections import Counter

import numpy as np

from opmaj import classical_scheme, verify_scheme
from opmaj.cli import main as cli_main
from opmaj.orthopoly import _values

FAMILIES = [
    ["--family", "chebyshev-u"],
    ["--family", "chebyshev-t"],
    ["--family", "legendre"],
    ["--family", "jacobi", "--alpha", "2", "--beta", "0.5"],
    ["--family", "laguerre"],
    ["--family", "hermite"],
]
ORDERS = (1, 2, 7, 30)
VERIFY_FAMILIES = ("legendre", "laguerre", "hermite")
COEFF_SCHEMES = [
    ("chebyshev-u", {}),
    ("chebyshev-t", {}),
    ("legendre", {}),
    ("jacobi", {"alpha": 2.0, "beta": 0.5}),
    ("jacobi", {"alpha": 0.5, "beta": -0.5}),  # b_0 is 0/0 in the general form
    ("jacobi", {"alpha": -0.5, "beta": -0.5}),  # a_1 is 0/0 in the general form
    ("laguerre", {}),
    ("hermite", {}),
]
COEFF_SHIFTS = (0, 1, 5)
COEFF_ORDERS = (1, 2, 7, 30, 300)
COEFF_POINTS = (0.1, 0.5, 0.9)  # inside the support of every family above

# beyond n = 30; each is served by dstev alone, so its bits do not depend on
# the BLAS thread count
LARGE_CASES = [
    ["weights", "--family", "laguerre", "--n", "200", "--format", "json"],
    ["weights", "--family", "laguerre", "--n", "200", "--format", "csv"],
    ["zeros", "--family", "hermite", "--n", "400", "--format", "csv"],
]
ERROR_CASES = [
    ["matrix", "--family", "jacobi", "--n", "3", "--theorem", "A"],
    ["zeros", "--family", "jacobi", "--alpha", "1", "--n", "3"],
    ["zeros", "--family", "jacobi", "--alpha", "-1", "--beta", "0", "--n", "3"],
    ["zeros", "--family", "hermite", "--alpha", "1", "--n", "3"],
    ["zeros", "--family", "laguerre", "--beta", "1", "--n", "3"],
    ["zeros", "--family", "laguerre", "--alpha", "-2", "--n", "3"],
    ["zeros", "--family", "laguerre", "--alpha", "0.5", "--n", "3"],
    ["matrix", "--family", "legendre", "--n", "5", "--theorem", "C"],
    ["matrix", "--family", "legendre", "--n", "5", "--theorem", "A", "--k", "2"],
    ["matrix", "--family", "legendre", "--n", "5", "--theorem", "C", "--k", "9"],
    ["matrix", "--family", "legendre", "--n", "3"],
    ["zeros", "--n", "3"],
    ["zeros", "--family", "legendre", "--n", "0"],
    ["verify", "--family", "legendre", "--n-max", "1"],
    ["verify", "--family", "legendre", "--n-max", "5", "--tol", "-1"],
    ["verify", "--family", "legendre", "--n-max", "5", "--tol-relation", "0"],
    ["verify", "--family", "legendre", "--n-max", "6", "--tol", "1e-30"],
    ["verify", "--family", "legendre", "--n-max", "6", "--seed", "7"],
    ["quad", "--family", "legendre", "--n", "2"],
    ["quad", "--family", "legendre", "--n", "2", "--degree", "1", "--coeffs", "1"],
    ["quad", "--family", "legendre", "--n", "2", "--coeffs", "1,x"],
    ["quad", "--family", "legendre", "--n", "2", "--degree", "-1"],
    ["matrix", "--family", "legendre", "--n", "7", "--theorem", "C", "--k", "3",
     "--tol", "1e-30"],
    ["matrix", "--family", "legendre", "--n", "7", "--theorem", "B",
     "--tol-stochastic", "1e-30", "--tol-relation", "1e-30"],
    # two errors each: the stderr digest pins which one is reported first
    ["matrix", "--family", "jacobi", "--n", "3", "--theorem", "A", "--k", "2"],
    ["matrix", "--family", "jacobi", "--n", "3", "--theorem", "A", "--tol", "-1"],
    ["quad", "--family", "jacobi", "--n", "2", "--degree", "-1"],
    ["quad", "--n", "2", "--coeffs", "1,x"],
    ["verify", "--family", "jacobi", "--n-max", "3", "--tol", "-1"],
    # coefficient tables that overflow float64, refused as they are built:
    # a_2 at order 3, and a_11 of the identity checks' table beyond J_10's
    ["zeros", "--family", "laguerre", "--alpha", "1e308", "--n", "3"],
    ["verify", "--family", "laguerre", "--alpha", "1.7e307", "--n-max", "10"],
]


def cli_grid():
    """Every argv of the fixed CLI grid, in a fixed order."""
    for family in FAMILIES:
        for n in ORDERS:
            size = ["--n", str(n)]
            ks = sorted({1, math.ceil(n / 2), n})
            theorems = [["A"], ["B"]] + [["C", "--k", str(k)] for k in ks]
            for thm in theorems:
                for fmt in ("json", "csv"):
                    yield ["matrix", *family, *size, "--theorem", thm[0], *thm[1:],
                           "--format", fmt]
            for cmd in ("zeros", "weights"):
                for fmt in ("json", "csv"):
                    yield [cmd, *family, *size, "--format", fmt]
            yield ["quad", *family, *size, "--degree", str(2 * n - 1)]
            yield ["quad", *family, *size, "--coeffs", "1,0.5,-2"]
        yield ["verify", *family, "--n-max", "12"]
    yield from LARGE_CASES
    yield from ERROR_CASES
    for command in ("zeros", "weights", "matrix", "quad", "verify"):
        yield [command, "--help"]  # the flag set and its help text


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error exits 1 with a traceback
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def verify_records(n_max=30):
    rows = []
    for family in VERIFY_FAMILIES:
        scheme = classical_scheme(family, n_max + 2)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            results = verify_scheme(scheme, n_max)
        rows.append([family, [[r.case, r.metric, r.limit, r.passed] for r in results]])
    return rows


def _outcome(fn):
    """Hex bytes of the arrays or floats ``fn`` returns, or what it raises."""
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        try:
            return [v.tobytes().hex() if isinstance(v, np.ndarray) else v.hex() for v in fn()]
        except Exception as exc:
            return [type(exc).__name__, str(exc)]


def coeff_records():
    rows = []
    for family, params in COEFF_SCHEMES:
        for k in COEFF_SHIFTS:
            for n in COEFF_ORDERS:
                base = classical_scheme(family, k + n, **params)

                def tail():  # the order-k associated table: the tail from index k
                    offdiag, diag = base.coefficients(k + n)
                    return offdiag[k:], diag[k:]

                def matrix():
                    offdiag, diag = tail()
                    return diag[:n], offdiag[: n - 1]

                def values(x):
                    return [v[0] for v in _values(tail(), n, np.array([x]), derivatives=True)]

                def leading_coefficient():
                    gamma = 1.0
                    for a_i in tail()[0].tolist():
                        gamma /= a_i
                    return [gamma]

                rows.append([
                    family, params, k, n,
                    _outcome(matrix),
                    [_outcome(lambda x=x: values(x)) for x in COEFF_POINTS],
                    _outcome(leading_coefficient),
                ])
    return rows


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode("utf-8")).hexdigest()


def diff_records(old_path, new_path) -> int:
    """Print the key and changed fields of each differing record; 1 if any differ."""
    def load(path):
        with open(path, encoding="utf-8") as fh:
            records = [(line, json.loads(line)) for line in fh.read().splitlines()]
        keys = ("argv", "case", "table")
        return {json.dumps(next(r[f] for f in keys if f in r)): (line, r) for line, r in records}

    old, new = load(old_path), load(new_path)
    tally = Counter()
    for key in [*old, *(key for key in new if key not in old)]:
        if key not in old or key not in new:
            print(f"{key}  only in {old_path if key in old else new_path}")
            change = "only in old" if key in old else "only in new"
        elif old[key][0] != new[key][0]:
            a, b = old[key][1], new[key][1]
            change = " ".join(f for f in a if json.dumps(a[f]) != json.dumps(b.get(f)))
            print(f"{key}  {change}")
        else:
            continue
        tally[group(old.get(key, new.get(key))[1]), change] += 1
    differing = sum(tally.values())
    print(f"{differing} of {len(old.keys() | new.keys())} records differ", file=sys.stderr)
    for (name, change), count in sorted(tally.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name} {change} {count}", file=sys.stderr)
    return 1 if differing else 0


def group(record) -> str:
    """A record's group in the ``--diff`` tally: a verify case's check family, a
    CLI invocation's command, or ``coeffs``."""
    if "case" in record:
        tokens = record["case"][1].split()
        return " ".join(t for t in tokens if "=" not in t and t not in ("A", "B", "C"))
    return f"cli {record['argv'][0]}" if "argv" in record else "coeffs"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", metavar="PATH",
                        help="also write one JSON line per CLI invocation, verify case "
                        "(n_max 30 and 60) and coefficient case")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="list the records that differ between two --records files")
    args = parser.parse_args()
    if args.diff:
        try:
            return diff_records(*args.diff)
        except BrokenPipeError:  # stdout closed early, as by `| head`, after a differing record
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
            return 1
    os.environ["COLUMNS"] = "100"  # argparse wraps help text to this width
    cli_rows, err_rows = [], []
    for argv in cli_grid():
        code, out, err = run_cli(argv)
        cli_rows.append([argv, code, out])
        err_rows.append([argv, err])
    verify_rows = verify_records()
    coeff_rows = coeff_records()
    verify60_rows = verify_records(60)
    if args.records:
        with open(args.records, "w", encoding="utf-8") as fh:
            for (argv, code, out), (_, err) in zip(cli_rows, err_rows):
                fh.write(json.dumps({"argv": argv, "code": code, "stdout": out,
                                     "stderr": err}) + "\n")
            for suffix, rows in (([], verify_rows), ([60], verify60_rows)):
                for family, results in rows:
                    for case, metric, limit, passed in results:
                        fh.write(json.dumps({"case": [family, case, *suffix], "metric": metric,
                                             "limit": limit, "passed": passed}) + "\n")
            for family, params, k, n, matrix, values, leading in coeff_rows:
                fh.write(json.dumps({"table": [family, params, k, n], "matrix": matrix,
                                     "values": values, "leading": leading}) + "\n")
    print(f"cli     {digest(cli_rows)}  ({len(cli_rows)} invocations)")
    print(f"verify  {digest(verify_rows)}")
    print(f"stderr  {digest(err_rows)}")
    print(f"coeffs  {digest(coeff_rows)}")
    print(f"verify60  {digest(verify60_rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
