"""Command-line front end: spectral data and certificates as JSON/CSV.

Exit codes: 0 on success with all checks passing, 1 when a requested check
fails (a JSON report of the failing checks is emitted), 2 on usage or
input errors, including a polynomial recurrence that overflows, a Jacobi
matrix whose zeros float64 cannot separate, classical parameters or a
certificate order that float64 cannot hold (refused by the library before
any eigensolve), an allocation the host cannot serve, an ``--out`` file or
a stdout that cannot be written, and a JSON result that holds a non-finite
number: every JSON emission is standard JSON, and nothing is written for
such a result.  141 (128 + SIGPIPE, as a shell reports it) when stdout is
closed before all is written.

Each command only computes: it returns its JSON payload or, with
``--format csv``, its CSV rows (the other is None), its stderr notes (the
lines that flag underflowed entries and ``matrix``'s failure report) and
its exit code.  ``main`` writes stdout or ``--out`` first, and the notes
only once that write has succeeded.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import groupby

import numpy as np

from .majorization import CONVEX_FUNCTIONS, convex_report, matrix_A, matrix_B, matrix_C
from .orthopoly import DEFAULT_SEED, PolynomialOverflowError, gauss_quadrature, gauss_rule
from .recurrence import Family, RecurrenceScheme, classical_scheme, from_sequences
from .spectra import ConvergenceError, scheme_spectral
from .verification import CheckResult, Tolerances, certificate_checks, verify_scheme

__all__ = ["UsageError", "load_custom_scheme", "main"]

FAMILY_CHOICES = [f.value for f in Family if f is not Family.CUSTOM]


class UsageError(ValueError):
    """Invalid flags, an unreadable or malformed input file, or an output that
    cannot be written (exit code 2)."""


def load_custom_scheme(path: str) -> RecurrenceScheme:
    """Read a custom scheme from a UTF-8 JSON file with keys "a" and "b"."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax or bytes, huge int, deep nesting
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
    """``--tol`` for every check it covers, unless a per-check flag overrides it.

    A limit no flag gives keeps its ``Tolerances`` default.  ``Tolerances``
    refuses a limit that is not positive with ValueError.
    """
    limits = {
        "stochastic": args.tol if args.tol_stochastic is None else args.tol_stochastic,
        "relation": args.tol_relation,
        "majorization": args.tol,
    }
    return Tolerances(**{name: v for name, v in limits.items() if v is not None})


def _detach_stdout() -> None:
    """Point fd 1 at devnull, so that the flush at exit cannot fail again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(pieces: list, out: str | None) -> None:
    """Write the text of ``pieces`` to stdout, or to the file ``out``, chunk by chunk.

    The pieces come from ``_json_pieces`` or ``_csv_pieces``, which have
    made every refusal, so nothing is written for a payload that is refused;
    each float block is formatted one chunk at a time as it is written, so
    its whole text is never held.  Both sinks get the same bytes; stdout is
    flushed here, so that a closed or full stdout raises inside main.
    """
    if out is None:
        try:
            sys.stdout.writelines(_chunks(pieces))
            sys.stdout.flush()
        except BrokenPipeError:
            raise
        except OSError as exc:  # stdout refused the bytes, as /dev/full does
            _detach_stdout()
            raise UsageError(f"cannot write stdout: {exc}") from exc
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(_chunks(pieces))
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from exc


def _chunks(pieces: list):
    """The text of ``pieces``: each run of strings joined, each float block
    ``(block, sep, row_break)`` written by ``_floatrepr.chunks``.

    The kernel is imported here, on first use, so that a process that
    writes no float block never builds its tables.
    """
    from ._floatrepr import chunks

    for is_text, run in groupby(pieces, key=lambda piece: isinstance(piece, str)):
        if is_text:
            yield "".join(run)
        else:
            for block in run:
                yield from chunks(*block)


def _json_pieces(payload) -> list:
    """The pieces of ``_json(payload)``, for ``_emit``: every refusal is made here.

    The stdlib encoder writes the layout, every key and every scalar, and
    any array but a float block as its ``tolist()``.  A float block (a
    non-empty 1-D or 2-D float64 array) is checked finite by ``defer`` and
    becomes the piece ``(block, sep, row_break)`` for ``_chunks``, at the
    indent of the current output line.  ``indent`` selects the stdlib's
    pure-Python encoder, which calls ``default`` just before it yields the
    returned placeholder: the chunk that arrives while a block is pending
    is that block's place, whatever strings the payload holds.
    """
    blocks: list = []

    def defer(value):
        if not isinstance(value, np.ndarray):
            return json.JSONEncoder().default(value)  # the stdlib's TypeError
        if value.dtype != np.float64 or not value.size or value.ndim not in (1, 2):
            return value.tolist()
        # the bulk of every payload: refused in one pass if not finite, and
        # written later by one vectorized float.__repr__, chunk by chunk
        if not np.isfinite(value).all():
            raise ValueError("non-finite float")
        blocks.append(value)
        return ""

    parts: list = []
    line = ""  # the output line the next chunk continues
    try:
        for chunk in json.JSONEncoder(indent=2, allow_nan=False, default=defer).iterencode(payload):
            if not blocks:
                parts.append(chunk)
                line = (line + chunk).rpartition("\n")[2]
                continue
            value = blocks.pop()  # written in place of this chunk, its placeholder
            block = value.reshape(-1, value.shape[-1])
            outer = "\n" + " " * (len(line) - len(line.lstrip(" ")))
            inner = outer + "  "
            if value.ndim == 2:
                item = inner + "  "
                row_break = inner + "]," + inner + "[" + item
                parts += ["[" + inner + "[" + item, (block, "," + item, row_break),
                          inner + "]" + outer + "]"]
            else:
                parts += ["[" + inner, (block, "," + inner, ""), outer + "]"]
    except ValueError:
        raise ValueError(
            "the result holds a non-finite number, which JSON cannot carry"
        ) from None
    return parts


def _json(payload) -> str:
    """Standard JSON, byte for byte ``json.dumps(payload, indent=2,
    allow_nan=False)`` with each array as its ``tolist()``.

    Float blocks are written by ``_floatrepr``, which matches
    ``float.__repr__`` byte for byte, and all else by the stdlib encoder in
    ``_json_pieces``, which refuses a non-finite number before any float is
    formatted.  ``_emit`` writes the same pieces chunk by chunk, and this
    text is their join.  Tests hold it to the stdlib on random payloads.
    """
    return "".join(_chunks(_json_pieces(payload)))


def _csv_pieces(rows: np.ndarray) -> list:
    """The pieces of rows of floats under a ``j=1..n`` header, for ``_emit``,
    as ``csv.writer`` writes them: floats in their ``repr`` (``inf`` and
    ``nan`` included), ``,`` between fields and CRLF after each row."""
    header = ",".join(f"j={j}" for j in range(1, rows.shape[1] + 1)) + "\r\n"
    return [header, (rows, ",", "\r\n"), "\r\n"] if len(rows) else [header]


def _failures(results: list[CheckResult]) -> list[dict]:
    """The failing checks, in the report schema of ``matrix`` and ``verify``."""
    return [{"case": r.case, "metric": r.metric, "limit": r.limit} for r in results if not r.passed]


def _underflow_notes(underflowed: list) -> list[str]:
    """The stderr line that flags underflowed entries, when there are any."""
    return [json.dumps({"underflowed": underflowed}) + "\n"] if underflowed else []


def _cmd_matrix(args: argparse.Namespace) -> tuple:
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
    checks = certificate_checks(result, tol)
    failures = _failures(checks)
    # flagged on stderr in either format, as weights --format csv does
    notes = _underflow_notes(result.underflowed.tolist())
    if failures:
        notes.append(_json({"failures": failures}) + "\n")
    if args.format == "csv":
        return None, result.entries, notes, 1 if failures else 0
    check = {r.case.rpartition(" ")[2]: r for r in checks}
    margin, total = check["majorization-margin"], check["majorization-total"]
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
        "majorization": {"holds": margin.passed and total.passed, "min_margin": -margin.metric},
        "convex": [
            {"f": f, "margin": convex_report(result, f).margin} for f in CONVEX_FUNCTIONS
        ],
    }
    return payload, None, notes, 1 if failures else 0


def _cmd_zeros(args: argparse.Namespace) -> tuple:
    scheme, family, params = _build_scheme(args, args.n)
    zeros = scheme_spectral(scheme, args.n).eigenvalues
    if args.format == "csv":
        return None, zeros[None, :], [], 0
    return {"family": family, "params": params, "n": args.n, "zeros": zeros}, None, [], 0


def _cmd_weights(args: argparse.Namespace) -> tuple:
    scheme, family, params = _build_scheme(args, args.n)
    rule = gauss_rule(scheme, args.n)
    underflowed = rule.underflowed.tolist()
    if args.format == "csv":  # flagged on stderr: stdout stays a table of floats
        return None, np.vstack([rule.nodes, rule.weights]), _underflow_notes(underflowed), 0
    payload = {
        "family": family,
        "params": params,
        "n": args.n,
        "nodes": rule.nodes,
        "weights": rule.weights,
    }
    if underflowed:
        payload["underflowed"] = underflowed
    return payload, None, [], 0


def _cmd_quad(args: argparse.Namespace) -> tuple:
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
        integrand = {"coeffs": coeffs}
    payload = {
        "family": family,
        "params": params,
        "n": args.n,
        **integrand,
        "value": value,
    }
    return payload, None, [], 0


def _cmd_verify(args: argparse.Namespace) -> tuple:
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
    return payload, None, [], 1 if failures else 0


_N = ("--n", {"type": int, "required": True})
_FORMAT = ("--format", {"choices": ["json", "csv"], "default": "json"})
_TOLS = [(flag, {"type": float}) for flag in ("--tol", "--tol-stochastic", "--tol-relation")]

# name: (help, handler, its own flags in order); each command takes the
# "measure" flags before its own and --out after them
COMMANDS = {
    "zeros": ("zeros of p_n (Jacobi matrix eigenvalues)", _cmd_zeros, [_N, _FORMAT]),
    "weights": ("Gaussian nodes and Christoffel numbers", _cmd_weights, [_N, _FORMAT]),
    "matrix": ("stochastic matrix certificate for A, B or C", _cmd_matrix, [
        _N,
        ("--theorem", {"choices": ["A", "B", "C"], "required": True}),
        ("--k", {"type": int, "help": "deleted row/column (theorem C only)"}),
        *_TOLS,
        _FORMAT,
    ]),
    "quad": ("Gaussian quadrature of a polynomial", _cmd_quad, [
        _N,
        ("--degree", {"type": int, "help": "integrate the monomial x^degree"}),
        ("--coeffs", {"help": "comma-separated polynomial coefficients, ascending degree"}),
    ]),
    "verify": ("run the certificate sweep; exit 1 on failure", _cmd_verify, [
        ("--n-max", {"type": int, "required": True}),
        *_TOLS,
        ("--seed", {"type": int, "help": "spot-check RNG seed (or OPMAJ_SEED)"}),
    ]),
}


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
    for name, (help_text, handler, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        src = p.add_argument_group("measure")
        src.add_argument("--family", choices=FAMILY_CHOICES, help="classical family")
        src.add_argument("--custom", metavar="PATH", help='JSON file with keys "a" and "b"')
        src.add_argument("--alpha", type=float, help="jacobi/laguerre exponent")
        src.add_argument("--beta", type=float, help="second jacobi exponent")
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.add_argument("--out", metavar="PATH", help="write to file instead of stdout")
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Input checks argparse does not make; parses --coeffs and, for verify, OPMAJ_SEED."""
    if getattr(args, "coeffs", None) is not None:
        try:
            args.coeffs = tuple(map(float, args.coeffs.split(",")))
        except ValueError as exc:
            raise UsageError(f"--coeffs must be comma-separated numbers: {exc}") from exc
        if not all(map(math.isfinite, args.coeffs)):
            raise UsageError(f"--coeffs must be finite numbers, got {list(args.coeffs)}")
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
        payload, rows, notes, code = args.handler(args)
        # CSV rows end in CRLF; JSON text gets the newline it lacks
        _emit([*_json_pieces(payload), "\n"] if rows is None else _csv_pieces(rows), args.out)
        sys.stderr.writelines(notes)  # only once stdout or --out holds the result
        return code
    except (ValueError, PolynomialOverflowError, ConvergenceError) as exc:  # unservable input
        sys.stderr.write(f"opmaj: error: {exc}\n")
        return 2
    except MemoryError as exc:  # an allocation the host cannot serve
        sys.stderr.write(f"opmaj: error: {str(exc) or 'out of memory'}\n")
        return 2
    except BrokenPipeError:  # stdout closed early, as by `| head`
        _detach_stdout()
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
