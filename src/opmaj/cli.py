"""Command-line front end: spectral data and certificates as JSON/CSV.

Exit codes: 0 on success with all checks passing, 1 when a requested check
fails (a JSON report of the failing checks is emitted), 2 on usage or
input errors, including a polynomial recurrence that overflows, a Jacobi
matrix whose zeros float64 cannot separate, and a result that holds a
non-finite number: every JSON emission is standard JSON, and nothing is
written for such a result.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii

import numpy as np

from .majorization import (
    CONVEX_FUNCTIONS,
    check_majorization,
    convex_report,
    matrix_A,
    matrix_B,
    matrix_C,
)
from .orthopoly import DEFAULT_SEED, PolynomialOverflowError, gauss_quadrature, gauss_rule
from .recurrence import Family, RecurrenceScheme, classical_scheme, from_sequences
from .spectra import ConvergenceError, scheme_spectral
from .verification import CheckResult, Tolerances, certificate_checks, verify_scheme

__all__ = ["UsageError", "load_custom_scheme", "main"]

FAMILY_CHOICES = [f.value for f in Family if f is not Family.CUSTOM]


class UsageError(ValueError):
    """Invalid flag combination or malformed input file (exit code 2)."""


def load_custom_scheme(path: str) -> RecurrenceScheme:
    """Read a custom scheme from a UTF-8 JSON file with keys "a" and "b"."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict) or "a" not in data or "b" not in data:
        raise UsageError(f'{path}: expected a JSON object with keys "a" and "b"')
    a, b = data["a"], data["b"]
    if not isinstance(a, list) or not isinstance(b, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in a + b
    ):
        raise UsageError(f'{path}: "a" and "b" must be arrays of numbers')
    try:
        return from_sequences(a, b)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _build_scheme(args: argparse.Namespace, depth: int) -> tuple[RecurrenceScheme, str, dict]:
    """Resolve the scheme plus (family tag, params metadata) for outputs.

    ``depth`` is the depth a classical scheme is built to; a custom scheme
    has the depth of its file, and the library refuses orders beyond it.
    """
    if args.custom is not None:
        return load_custom_scheme(args.custom), "custom", {"source_file": args.custom}
    scheme = classical_scheme(args.family, max(depth, 1), alpha=args.alpha, beta=args.beta)
    return scheme, args.family, dict(zip(("alpha", "beta"), scheme.params))


def _tolerances(args: argparse.Namespace) -> Tolerances:
    """``--tol`` for every check it covers, then the per-check overrides.

    ``Tolerances`` refuses a limit that is not positive with ValueError.
    """
    tol = Tolerances(stochastic=args.tol, majorization=args.tol)
    overrides = {"stochastic": args.tol_stochastic, "relation": args.tol_relation}
    return replace(tol, **{name: v for name, v in overrides.items() if v is not None})


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


_encode_scalar = json.JSONEncoder(allow_nan=False).encode


def _write(value, level: int, parts: list[str]) -> None:
    """Append the indent-2 JSON text of ``value`` at nesting ``level`` to ``parts``."""
    if isinstance(value, np.ndarray):
        value = list(value) if value.ndim > 1 else value.tolist()
    if not isinstance(value, (dict, list, tuple)):
        parts.append(_encode_scalar(value))
        return
    is_dict = isinstance(value, dict)
    opener, closer = "{}" if is_dict else "[]"
    if not value:
        parts.append(opener + closer)
        return
    inner = "\n" + "  " * (level + 1)
    separator = "," + inner
    parts.append(opener + inner)
    if is_dict:
        for i, (key, item) in enumerate(value.items()):
            parts.append((separator if i else "") + encode_basestring_ascii(key) + ": ")
            _write(item, level + 1, parts)
    elif {float}.issuperset(map(type, value)):
        # a run of plain floats, the bulk of every payload: checked and
        # formatted by C loops, with float.__repr__ as the stdlib uses it
        if not all(map(math.isfinite, value)):
            raise ValueError("non-finite float")
        parts.append(separator.join(map(float.__repr__, value)))
    else:
        for i, item in enumerate(value):
            if i:
                parts.append(separator)
            _write(item, level + 1, parts)
    parts.append("\n" + "  " * level + closer)


def _json(payload) -> str:
    """Standard JSON, byte for byte what the stdlib encoder writes for the payload.

    The layout is the stdlib's two-space indented one (its ``indent=2``
    with ``allow_nan=False``), floats in their shortest round-trip
    ``repr``; 1-D and 2-D float arrays are written as their ``tolist()``.
    Keys must be strings; keys and every scalar other than a float in a
    run are encoded by the stdlib itself.  A non-finite number is refused,
    never written as ``NaN``, and the whole text is built before anything
    is emitted.  Tests hold the writer to the stdlib on random payloads.
    """
    parts: list[str] = []
    try:
        _write(payload, 0, parts)
    except ValueError:
        raise ValueError(
            "the result holds a non-finite number, which JSON cannot carry"
        ) from None
    return "".join(parts)


def _csv(rows: np.ndarray) -> str:
    """Rows of floats under a ``j=1..n`` header, shortest round-trip form."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"j={j}" for j in range(1, rows.shape[1] + 1)])
    writer.writerows(rows.tolist())
    return buf.getvalue()


def _failures(results: list[CheckResult]) -> list[dict]:
    """The failing checks, in the report schema of ``matrix`` and ``verify``."""
    return [{"case": r.case, "metric": r.metric, "limit": r.limit} for r in results if not r.passed]


def _cmd_matrix(args: argparse.Namespace) -> int:
    if args.theorem == "C" and args.k is None:
        raise UsageError("--k is required for theorem C")
    if args.theorem != "C" and args.k is not None:
        raise UsageError("--k is only valid with --theorem C")
    tol = _tolerances(args)  # before anything is solved
    scheme, family, params = _build_scheme(args, args.n)
    if args.theorem == "A":
        result = matrix_A(scheme, args.n)
    elif args.theorem == "B":
        result = matrix_B(scheme, args.n)
    else:
        result = matrix_C(scheme, args.n, args.k)
    errors = [result.row_sum_err, result.col_sum_err, result.relation_err]
    if not all(np.isfinite(v).all() for v in (result.entries, result.target, errors)):
        raise ValueError(
            f"the theorem {result.theorem} certificate has non-finite entries "
            "or residuals; nothing was written"
        )
    cert = check_majorization(result.target, result.source, tol.majorization)
    if args.format == "csv":
        _emit(_csv(result.entries), args.out)
    else:
        payload = {
            "theorem": result.theorem,
            "family": family,
            "params": params,
            "n": result.n,
            "k": result.k,
            "source_zeros": result.source,
            "target": result.target,
            "matrix": result.entries,
            "row_sum_max_err": result.row_sum_err,
            "col_sum_max_err": result.col_sum_err,
            "relation_max_err": result.relation_err,
            "majorization": {"holds": cert.holds, "min_margin": cert.min_margin},
            "convex": [
                {"f": f, "margin": convex_report(result, f).margin} for f in CONVEX_FUNCTIONS
            ],
        }
        _emit(_json(payload), args.out)
    failures = _failures(certificate_checks(result, tol))
    if failures:
        sys.stderr.write(_json({"failures": failures}) + "\n")
        return 1
    return 0


def _cmd_zeros(args: argparse.Namespace) -> int:
    scheme, family, params = _build_scheme(args, args.n)
    zeros = scheme_spectral(scheme, args.n).eigenvalues
    if args.format == "csv":
        _emit(_csv(zeros[None, :]), args.out)
    else:
        payload = {"family": family, "params": params, "n": args.n, "zeros": zeros}
        _emit(_json(payload), args.out)
    return 0


def _cmd_weights(args: argparse.Namespace) -> int:
    scheme, family, params = _build_scheme(args, args.n)
    rule = gauss_rule(scheme, args.n)
    if args.format == "csv":
        _emit(_csv(np.vstack([rule.nodes, rule.weights])), args.out)
    else:
        payload = {
            "family": family,
            "params": params,
            "n": args.n,
            "nodes": rule.nodes,
            "weights": rule.weights,
        }
        underflowed = rule.underflowed
        if underflowed.size:
            payload["underflowed"] = underflowed
        _emit(_json(payload), args.out)
    return 0


def _cmd_quad(args: argparse.Namespace) -> int:
    if (args.degree is None) == (args.coeffs is None):
        raise UsageError("quad needs exactly one of --degree or --coeffs")
    scheme, family, params = _build_scheme(args, args.n)
    rule = gauss_rule(scheme, args.n)
    if args.degree is not None:
        if args.degree < 0:
            raise UsageError("--degree must be nonnegative")
        value = gauss_quadrature(rule, lambda x: x**args.degree)
        integrand = {"degree": args.degree}
    else:
        coeffs = np.asarray(args.coeffs, dtype=float)
        value = gauss_quadrature(
            rule, lambda x: float(np.polynomial.polynomial.polyval(x, coeffs))
        )
        integrand = {"coeffs": coeffs.tolist()}
    payload = {
        "family": family,
        "params": params,
        "n": args.n,
        **integrand,
        "value": value,
    }
    _emit(_json(payload), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    scheme, family, params = _build_scheme(args, args.n_max + 2)
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    results = verify_scheme(scheme, args.n_max, tol=_tolerances(args), seed=seed)
    failures = _failures(results)
    payload = {
        "family": family,
        "params": params,
        "n_max": args.n_max,
        "cases": len(results),
        "failures": failures,
    }
    _emit(_json(payload), args.out)
    return 1 if failures else 0


def _add_scheme_args(parser: argparse.ArgumentParser):
    src = parser.add_argument_group("measure")
    src.add_argument("--family", choices=FAMILY_CHOICES, help="classical family")
    src.add_argument(
        "--custom", metavar="PATH", help='JSON file with keys "a" and "b"'
    )
    src.add_argument("--alpha", type=float, help="jacobi/laguerre exponent")
    src.add_argument("--beta", type=float, help="second jacobi exponent")


def _add_output_args(parser: argparse.ArgumentParser):
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", metavar="PATH", help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opmaj",
        description=(
            "Zeros and Christoffel numbers of orthogonal polynomials, and the "
            "doubly stochastic matrices linking consecutive, associated, and "
            "row/column-deleted spectra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeros", help="zeros of p_n (Jacobi matrix eigenvalues)")
    p.set_defaults(handler=_cmd_zeros)
    _add_scheme_args(p)
    p.add_argument("--n", type=int, required=True)
    _add_output_args(p)

    p = sub.add_parser("weights", help="Gaussian nodes and Christoffel numbers")
    p.set_defaults(handler=_cmd_weights)
    _add_scheme_args(p)
    p.add_argument("--n", type=int, required=True)
    _add_output_args(p)

    p = sub.add_parser("matrix", help="stochastic matrix certificate for A, B or C")
    p.set_defaults(handler=_cmd_matrix)
    _add_scheme_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theorem", choices=["A", "B", "C"], required=True)
    p.add_argument("--k", type=int, help="deleted row/column (theorem C only)")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--tol-stochastic", type=float, dest="tol_stochastic")
    p.add_argument("--tol-relation", type=float, dest="tol_relation")
    _add_output_args(p)

    p = sub.add_parser("quad", help="Gaussian quadrature of a polynomial")
    p.set_defaults(handler=_cmd_quad)
    _add_scheme_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, help="integrate the monomial x^degree")
    p.add_argument(
        "--coeffs",
        help="comma-separated polynomial coefficients, ascending degree",
    )
    _add_output_args(p)

    p = sub.add_parser("verify", help="run the certificate sweep; exit 1 on failure")
    p.set_defaults(handler=_cmd_verify)
    _add_scheme_args(p)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--tol-stochastic", type=float, dest="tol_stochastic")
    p.add_argument("--tol-relation", type=float, dest="tol_relation")
    p.add_argument("--seed", type=int, help="spot-check RNG seed (or OPMAJ_SEED)")
    _add_output_args(p)

    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Input checks argparse does not make; parses --coeffs and, for verify, OPMAJ_SEED."""
    if getattr(args, "coeffs", None) is not None:
        try:
            args.coeffs = tuple(map(float, args.coeffs.split(","))) if args.coeffs else None
        except ValueError as exc:
            raise UsageError(f"--coeffs must be comma-separated numbers: {exc}") from exc
    if args.command == "verify" and args.seed is None and os.environ.get("OPMAJ_SEED"):
        try:
            args.seed = int(os.environ["OPMAJ_SEED"])
        except ValueError as exc:
            raise UsageError(f"OPMAJ_SEED must be an integer: {exc}") from exc
    if (args.family is None) == (args.custom is None):
        raise UsageError("exactly one of --family or --custom is required")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.handler(args)
    except (ValueError, PolynomialOverflowError, ConvergenceError) as exc:  # unservable input
        sys.stderr.write(f"opmaj: error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
