import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from opmaj import (
    check_majorization, classical_scheme, cli, gauss_rule, matrix_A, matrix_B, matrix_C, spectra
)
from opmaj.cli import _json, main
from opmaj.recurrence import RecurrenceScheme
from opmaj.verification import CheckResult, verify_scheme


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_json_chebyshev_anchor(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--family", "chebyshev-u", "--n", "3", "--theorem", "A",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    row1 = [(3.0 + 2.0 * math.sqrt(2.0)) / 8.0, 0.25, (3.0 - 2.0 * math.sqrt(2.0)) / 8.0]
    assert doc["matrix"][0] == pytest.approx(row1, abs=1e-12)
    assert doc["row_sum_max_err"] <= 1e-14
    assert doc["col_sum_max_err"] <= 1e-14
    assert doc["theorem"] == "A" and doc["n"] == 3 and doc["k"] == 3
    assert doc["family"] == "chebyshev-u"
    assert doc["majorization"]["holds"] is True
    assert {c["f"] for c in doc["convex"]} == {"square", "abs", "exp"}
    assert all(c["margin"] >= -1e-10 for c in doc["convex"])


def test_matrix_json_round_trip_bit_exact(capsys):
    # every printed number parses back to the library value bit for bit,
    # in JSON and in CSV, for each theorem and for zeros/weights
    n = 6
    scheme = classical_scheme("jacobi", n, alpha=2.0, beta=0.5)
    base = ["--family", "jacobi", "--alpha", "2", "--beta", "0.5", "--n", str(n)]
    cases = [
        ("A", [], matrix_A(scheme, n)),
        ("B", [], matrix_B(scheme, n)),
        ("C", ["--k", "3"], matrix_C(scheme, n, 3)),
    ]
    for theorem, k_flag, ref in cases:
        argv = ["matrix", *base, "--theorem", theorem, *k_flag]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        doc = json.loads(out)
        assert (doc["theorem"], doc["k"]) == (theorem, ref.k)
        assert np.array_equal(np.array(doc["matrix"]), ref.entries), argv
        assert np.array_equal(np.array(doc["source_zeros"]), ref.source), argv
        assert np.array_equal(np.array(doc["target"]), ref.target), argv
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0, argv
        assert np.array_equal(parse_csv(out), ref.entries), argv
    rule = gauss_rule(scheme, n)
    for command, keys, rows in (
        ("zeros", ["zeros"], [rule.nodes]),
        ("weights", ["nodes", "weights"], [rule.nodes, rule.weights]),
    ):
        code, out, _ = run_cli(capsys, command, *base)
        assert code == 0
        doc = json.loads(out)
        for key, row in zip(keys, rows):
            assert np.array_equal(np.array(doc[key]), row), (command, key)
        code, out, _ = run_cli(capsys, command, *base, "--format", "csv")
        assert code == 0
        assert np.array_equal(parse_csv(out), np.array(rows)), command


def parse_csv(text):
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


def test_matrix_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--family", "legendre", "--n", "4", "--theorem", "B",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["j=1", "j=2", "j=3", "j=4"]
    assert len(lines) == 5
    values = [float(v) for v in lines[1].split(",")]
    assert sum(values) == pytest.approx(1.0, abs=1e-12)


def test_matrix_k_flag_validation(capsys):
    code, _, err = run_cli(capsys, "matrix", "--family", "legendre", "--n", "5", "--theorem", "C")
    assert code == 2
    assert "--k is required" in err
    code, _, err = run_cli(
        capsys, "matrix", "--family", "legendre", "--n", "5", "--theorem", "A", "--k", "2"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "matrix", "--family", "legendre", "--n", "5", "--theorem", "C", "--k", "9"
    )
    assert code == 2


def test_family_custom_exclusive(capsys, tmp_path):
    code, _, err = run_cli(capsys, "zeros", "--n", "3")
    assert code == 2
    path = tmp_path / "c.json"
    path.write_text('{"a": [1.0], "b": [0.0, 0.0]}')
    code, _, err = run_cli(
        capsys, "zeros", "--n", "2", "--family", "legendre", "--custom", str(path)
    )
    assert code == 2


def test_custom_scheme_zeros(capsys, tmp_path):
    path = tmp_path / "scheme.json"
    path.write_text('{"a": [1.0], "b": [2.0, 5.0]}')
    code, out, _ = run_cli(capsys, "zeros", "--custom", str(path), "--n", "2")
    assert code == 0
    doc = json.loads(out)
    root = math.sqrt(3.25)
    assert doc["zeros"] == pytest.approx([3.5 - root, 3.5 + root], abs=1e-14)
    assert doc["family"] == "custom"
    assert doc["params"]["source_file"] == str(path)


def test_custom_scheme_error_reporting(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": [1, -1], "b": [0, 0, 0]}')
    code, _, err = run_cli(capsys, "zeros", "--custom", str(bad), "--n", "2")
    assert code == 2
    assert "a[2] must be positive" in err

    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"a": [1,')
    code, _, err = run_cli(capsys, "zeros", "--custom", str(malformed), "--n", "2")
    assert code == 2
    assert "malformed JSON" in err

    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "zeros", "--custom", str(missing), "--n", "2")
    assert code == 2

    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"a": [1.0], "b": "nope"}')
    code, _, err = run_cli(capsys, "zeros", "--custom", str(wrong), "--n", "2")
    assert code == 2

    huge = tmp_path / "huge.json"
    huge.write_text('{"a": [1, %s], "b": [0, 0, 0]}' % ("9" * 401))
    code, out, err = run_cli(capsys, "zeros", "--custom", str(huge), "--n", "2")
    assert code == 2 and out == ""
    assert "a[2] must be finite" in err

    # nesting past the recursion limit, an integer past the digit limit and
    # bytes that are not UTF-8 are malformed input, named with the file
    deep = tmp_path / "deep.json"
    deep.write_text('{"a": %s, "b": [0]}' % ("[" * 200_000 + "]" * 200_000))
    digits = tmp_path / "digits.json"
    digits.write_text('{"a": [%s], "b": [0, 0]}' % ("9" * 5000))
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"a": [1], "b": [0, 0], "note": "\xff"}')
    for path in (deep, digits, latin):
        code, out, err = run_cli(capsys, "zeros", "--custom", str(path), "--n", "1")
        assert (code, out) == (2, ""), path.name
        assert err.startswith(f"opmaj: error: malformed JSON in {path}: "), err
        assert err.count("\n") == 1, err


def test_weights_output(capsys):
    code, out, _ = run_cli(capsys, "weights", "--family", "chebyshev-u", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["weights"] == pytest.approx([0.25, 0.5, 0.25], abs=1e-14)
    assert doc["nodes"] == pytest.approx(
        [-math.sqrt(0.5), 0.0, math.sqrt(0.5)], abs=1e-14
    )


def test_weights_flag_underflowed_christoffel_numbers(capsys):
    # laguerre n=200: one weight is exactly 0.0 and two are subnormal; the
    # payload lists their indices, and a clean order carries no such key
    tiny = np.finfo(float).tiny
    code, out, _ = run_cli(capsys, "weights", "--family", "laguerre", "--n", "200")
    assert code == 0
    doc = json.loads(out)
    weights = np.array(doc["weights"])
    assert doc["underflowed"] == np.flatnonzero(weights < tiny).tolist()
    under = weights[doc["underflowed"]]
    assert (under == 0.0).sum() == 1 and ((under > 0.0) & (under < tiny)).sum() == 2
    code, out, _ = run_cli(capsys, "weights", "--family", "laguerre", "--n", "30")
    assert code == 0 and "underflowed" not in json.loads(out)


def test_weights_csv_flags_underflowed_christoffel_numbers_on_stderr(capsys):
    # stdout stays the plain table of nodes and weights; the indices go to
    # stderr as one JSON line, and a clean order writes nothing there
    code, out, err = run_cli(
        capsys, "weights", "--family", "laguerre", "--n", "200", "--format", "csv"
    )
    assert code == 0 and err == '{"underflowed": [197, 198, 199]}\n'
    header, nodes, weights = csv.reader(io.StringIO(out))
    rule = gauss_rule(classical_scheme("laguerre", 200), 200)
    assert header == [f"j={j}" for j in range(1, 201)]
    assert list(map(float, nodes)) == rule.nodes.tolist()
    assert list(map(float, weights)) == rule.weights.tolist()
    code, _, err = run_cli(
        capsys, "weights", "--family", "laguerre", "--n", "30", "--format", "csv"
    )
    assert code == 0 and err == ""


def test_matrix_flags_underflowed_entries_on_stderr(capsys):
    # hermite n=400, k=1 has entries that underflow to 0.0 or to a subnormal
    # (how many depends on the BLAS thread count): their 0-based (row,
    # column) pairs go to stderr as one line in either format, stdout and
    # the exit code unchanged; a clean certificate writes nothing there
    ref = matrix_C(classical_scheme("hermite", 400), 400, 1)
    pairs = np.argwhere(ref.entries < np.finfo(float).tiny).tolist()
    assert len(pairs) > 100
    argv = ["matrix", "--family", "hermite", "--n", "400", "--theorem", "C", "--k", "1"]
    for fmt in ("json", "csv"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, json.dumps({"underflowed": pairs}) + "\n"), fmt
        assert "underflowed" not in out
    code, _, err = run_cli(capsys, "matrix", "--family", "hermite", "--n", "30", "--theorem", "A")
    assert (code, err) == (0, "")


def test_csv_carries_an_infinity_that_json_refuses(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"a": [1e308], "b": [1e308, 1e308]}))
    argv = ("zeros", "--custom", str(path), "--n", "2")
    assert run_cli(capsys, *argv, "--format", "csv") == (0, "j=1,j=2\r\n0.0,inf\r\n", "")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "opmaj: error: the result holds a non-finite number, which JSON cannot carry\n"


def test_zeros_csv(capsys):
    code, out, _ = run_cli(
        capsys, "zeros", "--family", "chebyshev-u", "--n", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j=1,j=2"
    assert [float(v) for v in lines[1].split(",")] == pytest.approx([-0.5, 0.5])


def test_package_exports_each_modules_public_names():
    import opmaj
    from opmaj import majorization, orthopoly, recurrence, spectra, verification

    modules = (recurrence, spectra, orthopoly, majorization, verification)
    names = [name for module in modules for name in module.__all__]
    assert opmaj.__all__ == names
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            obj = getattr(opmaj, name)
            assert obj is vars(module)[name], name
            if isinstance(obj, type) or callable(obj):
                assert obj.__module__ == module.__name__, name  # defined there
    assert not set(cli.__all__) & set(vars(opmaj))


def test_every_public_name_is_read_by_a_path_of_the_project():
    # a public name is read when the library, a script, the benchmark or the
    # acceptance suite loads it, or when one of the last three imports it;
    # docstrings, __all__ strings and its own def are not reads
    import opmaj

    root = Path(__file__).resolve().parents[1]
    files = [p for p in sorted((root / "src/opmaj").glob("*.py")) if p.name != "__init__.py"]
    for where in ("scripts", "perfbench"):
        files += sorted((root / where).glob("*.py"))
    files.append(root / "tests/test_acceptance.py")
    read = set()
    for path in files:
        outside = "src" not in path.relative_to(root).parts
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif outside and isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert [name for name in opmaj.__all__ if name not in read] == []


def test_every_opmaj_name_the_benchmark_and_the_scripts_read_resolves():
    # perfbench/run.py --baselines reads opmaj.jacobi_matrix, and no check runs
    # that mode: a renamed or removed name must fail here instead.  Every
    # dotted load rooted at the name opmaj, and every name imported from an
    # opmaj module, must resolve on the package
    import importlib

    import opmaj.cli  # noqa: F401  (perfbench/worker.py reads opmaj.cli.main)

    def dotted(node):
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute) and (head := dotted(node.value)):
            return [*head, node.attr]
        return []

    def resolves(module, names):
        obj = importlib.import_module(module)
        for name in names:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True

    root = Path(__file__).resolve().parents[1]
    unresolved, seen = [], 0
    for path in [*sorted((root / "perfbench").glob("*.py")), *sorted((root / "scripts").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "opmaj" or node.module.startswith("opmaj.")
            ):
                reads = [(node.module, [alias.name]) for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names = dotted(node)
                reads = [("opmaj", names[1:])] if names[:1] == ["opmaj"] else []
            else:
                continue
            seen += len(reads)
            unresolved += [(path.name, module, names) for module, names in reads
                           if not resolves(module, names)]
    assert seen >= 20  # the walk found the reads it guards
    assert unresolved == []


def test_quad_command(capsys):
    code, out, _ = run_cli(
        capsys, "quad", "--family", "chebyshev-u", "--n", "2", "--degree", "2"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.25, abs=1e-15)

    code, out, _ = run_cli(
        capsys, "quad", "--family", "legendre", "--n", "2", "--coeffs", "0,0,0,1"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-15)

    code, _, err = run_cli(capsys, "quad", "--family", "legendre", "--n", "2")
    assert code == 2
    code, _, err = run_cli(
        capsys, "quad", "--family", "legendre", "--n", "2", "--degree", "1",
        "--coeffs", "1",
    )
    assert code == 2
    # a non-finite coefficient is refused by name, not as an overflow of the sum
    for coeffs in ("1,nan", "inf,0,1"):
        code, out, err = run_cli(
            capsys, "quad", "--family", "legendre", "--n", "3", "--coeffs", coeffs
        )
        assert (code, out) == (2, ""), coeffs
        assert err.startswith("opmaj: error: --coeffs must be finite numbers, got ["), coeffs


def test_quad_refuses_an_empty_coeffs(capsys):
    # '' is refused as '1,,2' is, alone and beside --degree, never ignored
    base = ["quad", "--family", "legendre", "--n", "2"]
    message = ("opmaj: error: --coeffs must be comma-separated numbers: "
               "could not convert string to float: ''\n")
    for argv in ([*base, "--coeffs", "1,,2"], [*base, "--coeffs", ""],
                 [*base, "--degree", "2", "--coeffs", ""]):
        assert run_cli(capsys, *argv) == (2, "", message), argv


@pytest.mark.parametrize(
    "integrand",
    [
        ("--family", "laguerre", "--n", "10", "--degree", "400"),  # float ** overflows
        ("--family", "hermite", "--n", "4", "--coeffs", "1,1e308,1e308"),  # numpy add overflows
    ],
)
def test_quad_overflow_refused_by_name(capsys, integrand):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "quad", *integrand)
    assert (code, out) == (2, "")
    assert err.startswith("opmaj: error: the quadrature sum is not finite in float64")


def test_verify_legendre_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "legendre", "--n-max", "40", "--tol", "1e-10"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    assert doc["cases"] > 1000


def test_verify_absurd_tolerance_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "legendre", "--n-max", "6", "--tol", "1e-30"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["failures"]
    sample = doc["failures"][0]
    assert {"case", "metric", "limit"} <= set(sample)


def test_no_payload_carries_a_check_row(capsys, monkeypatch):
    # a CheckResult is a tuple, which the JSON encoder would write as a list:
    # the failing rows of matrix and verify reach stdout and stderr as dicts only
    json_pieces, walked = cli._json_pieces, []

    def walk(value):
        assert not isinstance(value, CheckResult), value
        walked.append(type(value))
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    def checking_json_pieces(payload):
        walk(payload)
        return json_pieces(payload)

    monkeypatch.setattr(cli, "_json_pieces", checking_json_pieces)
    for argv in (("verify", "--family", "legendre", "--n-max", "6"),
                 ("matrix", "--family", "legendre", "--n", "7", "--theorem", "C", "--k", "3")):
        code, out, err = run_cli(capsys, *argv, "--tol", "1e-30")
        assert code == 1, argv
        failures = json.loads(out if argv[0] == "verify" else err)["failures"]
        assert failures and all(isinstance(f, dict) for f in failures), argv
    assert dict in walked


def test_verify_custom_scheme(capsys, tmp_path):
    path = tmp_path / "cheb.json"
    path.write_text(json.dumps({"a": [0.5] * 12, "b": [0.0] * 13}))
    code, out, _ = run_cli(capsys, "verify", "--custom", str(path), "--n-max", "8")
    assert code == 0
    code, _, err = run_cli(capsys, "verify", "--custom", str(path), "--n-max", "30")
    assert code == 2


@pytest.mark.filterwarnings("error")
def test_verify_refuses_a_quadrature_sum_that_overflows(capsys, tmp_path):
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"a": [3.1613246304029503e-230],
                                "b": [-5.471541305223879e-215, -4.0075646382308806e+133]}))
    code, out, err = run_cli(capsys, "verify", "--custom", str(path), "--n-max", "2")
    assert (code, out) == (2, "")
    assert err == (
        "opmaj: error: the order 2 quadrature check is not finite in float64: x^3 overflows "
        "over zeros up to |x| = 4.0075646382308806e+133\n"
    )


def test_verify_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("OPMAJ_SEED", "777")
    code, out, _ = run_cli(capsys, "verify", "--family", "chebyshev-u", "--n-max", "5")
    assert code == 0
    monkeypatch.setenv("OPMAJ_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "verify", "--family", "chebyshev-u", "--n-max", "5")
    assert code == 2
    monkeypatch.setenv("OPMAJ_SEED", "-5")
    code, out, err = run_cli(capsys, "verify", "--family", "chebyshev-u", "--n-max", "5")
    assert (code, out, err) == (2, "", "opmaj: error: seed must be nonnegative, got -5\n")
    # only verify takes a seed: other commands ignore the variable
    code, out, _ = run_cli(capsys, "zeros", "--family", "legendre", "--n", "2")
    assert code == 0
    monkeypatch.delenv("OPMAJ_SEED")
    assert run_cli(capsys, "zeros", "--family", "legendre", "--n", "2") == (0, out, "")


def test_out_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "zeros", "--family", "legendre", "--n", "3", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert len(doc["zeros"]) == 3


def test_out_file_gets_the_bytes_stdout_gets(capsys, tmp_path):
    # one final-newline rule for both sinks, in either format
    target = tmp_path / "out"
    commands = [
        (["zeros", "--family", "legendre", "--n", "2"], True),
        (["weights", "--family", "laguerre", "--n", "3"], True),
        (["matrix", "--family", "hermite", "--n", "3", "--theorem", "C", "--k", "2"], True),
        (["quad", "--family", "legendre", "--n", "3", "--coeffs", "1,0,2"], False),
        (["verify", "--family", "legendre", "--n-max", "3"], False),
    ]
    for argv, has_csv in commands:
        for fmt in ([], ["--format", "csv"]) if has_csv else ([],):
            code, out, err = run_cli(capsys, *argv, *fmt)
            assert code == 0 and out.endswith("\n"), (argv, fmt)
            assert run_cli(capsys, *argv, *fmt, "--out", str(target)) == (code, "", err)
            assert target.read_bytes() == out.encode(), (argv, fmt)


def test_unwritable_out_refused_by_name(capsys, tmp_path):
    # a missing directory and a directory itself: exit 2 with the path named,
    # never a traceback, for every command that takes --out
    commands = [
        ["zeros", "--family", "legendre", "--n", "3"],
        ["weights", "--family", "legendre", "--n", "3"],
        ["matrix", "--family", "legendre", "--n", "3", "--theorem", "A"],
        ["quad", "--family", "legendre", "--n", "3", "--degree", "2"],
        ["verify", "--family", "legendre", "--n-max", "2"],
    ]
    for argv in commands:
        for out in (tmp_path / "missing" / "x.json", tmp_path):
            code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
            assert (code, stdout) == (2, ""), (argv, out)
            assert err.startswith(f"opmaj: error: cannot write {out}: "), (argv, err)


def test_refused_write_leaves_no_notes(capsys, tmp_path):
    # hermite n=400, k=1 flags underflowed entries, and at --tol 1e-30 it has
    # a failure report: both go to stderr only after the result is written,
    # so a refused --out leaves the one error line alone
    argv = ["matrix", "--family", "hermite", "--n", "400", "--theorem", "C", "--k", "1",
            "--out", str(tmp_path)]
    for extra in ([], ["--tol", "1e-30"]):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert (code, out) == (2, ""), extra
        assert err.startswith(f"opmaj: error: cannot write {tmp_path}: ") and err.count("\n") == 1
        assert "underflowed" not in err and "failures" not in err, extra


def test_closed_stdout_pipe_exits_141():
    # 40,000 floats are far more than a pipe buffer holds, so the write
    # meets the closed pipe; the exit is the shell's 128 + SIGPIPE, quietly
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "opmaj.cli", "matrix", "--family", "hermite", "--n", "200",
         "--theorem", "B"],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


def cli_subprocess(*argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    # buffered stdout, as a shell gives it: the exit flush then retries what
    # the failed write left behind, unless main detached stdout first
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *argv],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env, stderr=subprocess.PIPE, timeout=120, **kwargs,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_full_stdout_mid_stream_exits_2_by_name():
    # 40,000 floats are ten chunks: the device refuses the first chunk's
    # bytes, and the run stops there with one error line
    with open("/dev/full", "w") as full:
        proc = cli_subprocess("-m", "opmaj.cli", "matrix", "--family", "hermite", "--n", "200",
                              "--theorem", "B", stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == b"opmaj: error: cannot write stdout: [Errno 28] No space left on device\n"


def test_refused_payload_creates_no_out_file(capsys, tmp_path):
    # every refusal comes before the first byte: laguerre's convex-exp margin
    # follows the 40,000-float matrix in the payload, and the infinite zero
    # is the last float of its payload, yet neither run creates its --out file
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"a": [1e308], "b": [1e308, 1e308]}))
    out = tmp_path / "out.json"
    for argv in (["matrix", "--family", "laguerre", "--n", "200", "--theorem", "A"],
                 ["zeros", "--custom", str(huge), "--n", "2"]):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, ""), argv
        assert err.startswith("opmaj: error: the ") and err.count("\n") == 1, err
        assert not out.exists(), argv


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_certificate_output_peak_within_the_refusal_budget(capsys, tmp_path, fmt):
    # the text of a certificate is written chunk by chunk, never held whole:
    # the traced peak of the whole command, J_n's solve included, stays within
    # the 32 n^2 bytes matrix_C refuses by, plus one chunk's temporaries;
    # k = 1 holds the largest deletion block
    n = 400
    out = tmp_path / f"matrix.{fmt}"
    spectra.scheme_spectral.cache_clear()
    tracemalloc.start()
    try:
        code = main(["matrix", "--family", "hermite", "--n", str(n), "--theorem", "C", "--k", "1",
                     "--format", fmt, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0 and out.stat().st_size > 20 * n**2
    assert peak <= 32 * n**2 + (1 << 20), f"traced peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("n", [0, -1, -10**8])
def test_order_below_one_refused_before_it_is_sized(capsys, n):
    code, out, err = run_cli(capsys, "zeros", "--family", "legendre", "--n", str(n))
    assert (code, out, err) == (2, "", f"opmaj: error: order must be >= 1, got {n}\n")


def test_oversized_order_refused_before_its_table_is_built():
    # classical_scheme builds no table and scheme_spectral refuses the 8 n^2
    # bytes of eigenvectors before J_n's table is built, so n = 2e7, whose
    # table alone is 160 MB an array, peaks near the import
    script = (
        "import json, resource\n"
        "from opmaj.cli import main\n"
        "def peak(): return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "base = peak()\n"
        "code = main(['zeros', '--family', 'legendre', '--n', '20000000'])\n"
        "print(json.dumps([code, base, peak()]))\n"
    )
    proc = cli_subprocess("-c", script, stdout=subprocess.PIPE)
    code, base_kb, peak_kb = json.loads(proc.stdout)
    assert code == 2
    assert proc.stderr.startswith(
        b"opmaj: error: order 20000000 needs 3200000.0 GB for its eigenvectors"
    ) and proc.stderr.count(b"\n") == 1, proc.stderr
    assert peak_kb - base_kb <= 50 * 1024, f"peak RSS {(peak_kb - base_kb) / 1024:.0f} MB over import"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_full_stdout_exits_2_by_name():
    # a stdout that refuses the bytes is an output error, not a failed
    # check: one error line, and no second failure at the exit flush
    with open("/dev/full", "w") as full:
        proc = cli_subprocess("-m", "opmaj.cli", "zeros", "--family", "legendre", "--n", "3",
                              stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == b"opmaj: error: cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.skipif(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") < 4e9,
                    reason="needs 4 GB of physical memory, so that order 20000 is not refused by size")
def test_allocation_failure_exits_2_by_name():
    # the 3.2 GB of order 20000's eigenvectors fit in physical memory, so the
    # order is not refused by size, but not in a 2 GB address space: the
    # allocation fails with MemoryError, which exits 2 with one error line
    script = (
        "import resource, sys\n"
        "from opmaj.cli import main\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "sys.exit(main(['zeros', '--family', 'legendre', '--n', '20000']))\n"
    )
    proc = cli_subprocess("-c", script, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"opmaj: error: ") and proc.stderr.count(b"\n") == 1, proc.stderr
    assert b"physical memory" not in proc.stderr, proc.stderr


def test_huge_order_refused_without_building_a_table(capsys, monkeypatch):
    # a scheme of any depth is made without its table, and an order refused
    # by size is refused before J_n's table is built
    def no_table(self, lo, hi):
        pytest.fail(f"a table of indices {lo} to {hi} was built")

    monkeypatch.setattr(RecurrenceScheme, "_table", no_table)
    assert classical_scheme("laguerre", 10**15, alpha=0.5).max_index == 10**15
    code, out, err = run_cli(capsys, "zeros", "--family", "legendre", "--n", str(10**15))
    assert (code, out) == (2, "")
    assert err.startswith("opmaj: error: order 1000000000000000 needs ")
    assert " GB for its eigenvectors" in err and err.count("\n") == 1


def test_shape_parameter_validation(capsys):
    for argv in (
        ["--family", "laguerre", "--alpha", "nan"],
        ["--family", "jacobi", "--alpha", "0", "--beta", "inf"],
    ):
        code, _, err = run_cli(capsys, "zeros", *argv, "--n", "3")
        assert code == 2
        assert "must be finite" in err


def test_tolerance_validation(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--family", "legendre", "--n-max", "5", "--tol", "-1"
    )
    assert code == 2
    # --tol sets the majorization limit, which is the one at fault here
    code, _, err = run_cli(
        capsys, "matrix", "--family", "legendre", "--n", "3", "--theorem", "A",
        "--tol", "-1", "--tol-stochastic", "1e-3",
    )
    assert code == 2
    assert "majorization" in err
    # an infinite limit would let every check pass: refused before any output
    for argv in (
        ["verify", "--family", "legendre", "--n-max", "5"],
        ["matrix", "--family", "legendre", "--n", "3", "--theorem", "A"],
    ):
        code, out, err = run_cli(capsys, *argv, "--tol", "1e400")
        assert (code, out) == (2, ""), argv
        assert err == "opmaj: error: tolerance stochastic must be finite, got inf\n"


def test_matrix_failure_report_names_the_failing_checks(capsys):
    # at --tol 1e-30 every partial-sum margin of this certificate passes and
    # the total residual (2.2e-16) fails: the report names that row, in
    # verify's schema, and each row it lists fails its own limit
    argv = ("matrix", "--family", "legendre", "--n", "7", "--theorem", "C", "--k", "3")
    code, out, err = run_cli(capsys, *argv, "--tol", "1e-30")
    assert code == 1 and json.loads(out)["k"] == 3
    # the JSON verdict is read from the same rows: check_majorization's, at the same limit
    res = matrix_C(classical_scheme("legendre", 7), 7, 3)
    cert = check_majorization(res.target, res.source, 1e-30)
    assert not cert.holds
    least = float(cert.partial_margins.min())
    assert json.loads(out)["majorization"] == {"holds": False, "min_margin": least}
    failures = json.loads(err)["failures"]
    assert "n=7 C k=3 majorization-total" in [f["case"] for f in failures]
    for f in failures:
        assert set(f) == {"case", "metric", "limit"}
        assert not f["metric"] <= f["limit"]
    assert run_cli(capsys, *argv)[0] == 0


def test_range_checks_refused_before_any_eigensolve(capsys, monkeypatch, tmp_path):
    # the library makes these checks; the CLI reports them with exit 2
    def no_eigensolve(*args, **kwargs):
        pytest.fail("the eigensolver was called")

    spectra.scheme_spectral.cache_clear()  # a cached decomposition would hide a solve
    monkeypatch.setattr(spectra, "dstev", no_eigensolve)
    monkeypatch.setattr(spectra, "dstevd", no_eigensolve)
    shallow = tmp_path / "shallow.json"
    shallow.write_text(json.dumps({"a": [0.5] * 4, "b": [0.0] * 5}))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"a": [1e300, 1e300], "b": [1e308, 1e308, 1e308]}))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"a": [1e307, 1e307], "b": [1.7e308, -1.7e308, 1.7e308]}))
    for argv in (
        ["matrix", "--family", "legendre", "--n", "5", "--theorem", "A", "--tol", "-1"],
        ["matrix", "--family", "legendre", "--n", "5", "--theorem", "C", "--k", "9"],
        ["zeros", "--family", "legendre", "--n", "0"],
        ["verify", "--family", "legendre", "--n-max", "1"],
        ["verify", "--family", "legendre", "--n-max", "5", "--tol-relation", "0"],
        ["verify", "--family", "legendre", "--n-max", "5", "--seed", "-5"],
        ["matrix", "--custom", str(shallow), "--n", "9", "--theorem", "A"],
        ["verify", "--custom", str(shallow), "--n-max", "9"],
        ["zeros", "--family", "laguerre", "--alpha", "1e308", "--n", "3"],
        ["zeros", "--family", "jacobi", "--alpha", "1e80", "--beta", "1e80", "--n", "3"],
        ["matrix", "--custom", str(huge), "--n", "3", "--theorem", "C", "--k", "2"],
        ["verify", "--custom", str(huge), "--n-max", "2"],
        ["verify", "--custom", str(wide), "--n-max", "2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("opmaj: error: "), argv
    # the parameters are named, and no warning precedes the refusal
    _, _, err = run_cli(capsys, "zeros", "--family", "laguerre", "--alpha", "1e308", "--n", "3")
    assert err == (
        "opmaj: error: laguerre with alpha=1e+308: the recurrence coefficients "
        "up to index 3 overflow float64\n"
    )
    _, _, err = run_cli(
        capsys, "zeros", "--family", "jacobi", "--alpha", "1e80", "--beta", "1e80", "--n", "3"
    )
    assert err.startswith("opmaj: error: jacobi with alpha=1e+80, beta=1e+80: the recurrence")


def test_format_only_where_csv_can_be_written(capsys, tmp_path):
    # quad and verify write JSON only: argparse refuses --format, --out stays
    for argv in (
        ["quad", "--family", "legendre", "--n", "2", "--degree", "1"],
        ["verify", "--family", "legendre", "--n-max", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), argv
        assert "unrecognized arguments: --format csv" in err, argv
        target = tmp_path / f"{argv[0]}.json"
        assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", ""), argv
        assert json.loads(target.read_text())["family"] == "legendre", argv


def test_matrix_order_one(capsys):
    # n = 1 has no deletion block: every theorem gives entries [[1.0]] and target [b_0]
    b0 = classical_scheme("laguerre", 1, alpha=2.0).coefficients(0)[1][0]
    for thm in (["A"], ["B"], ["C", "--k", "1"]):
        code, out, _ = run_cli(
            capsys, "matrix", "--family", "laguerre", "--alpha", "2", "--n", "1",
            "--theorem", *thm,
        )
        assert code == 0, thm
        doc = json.loads(out)
        assert doc["matrix"] == [[1.0]] and doc["target"] == [b0], thm
        assert (doc["theorem"], doc["n"], doc["k"]) == (thm[0], 1, 1)
        # no partial sum at order 1: check_majorization's empty margins read 0.0
        assert doc["majorization"] == {"holds": True, "min_margin": 0.0}, thm


def test_literal_route_overflow_exit_code(capsys, tmp_path):
    # verify's identity checks evaluate the polynomials by forward recurrence,
    # which overflows for a_i = 1e-200: an input error, not a traceback
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"a": [1e-200] * 5, "b": [0, 0.5, 1, 1.5, 2, 2.5]}))
    code, out, err = run_cli(capsys, "verify", "--custom", str(path), "--n-max", "4")
    assert code == 2 and out == ""
    assert err.startswith("opmaj: error: recurrence overflowed")


VERIFY_OVERFLOWS = [
    # the identity checks' products overflow at the spot points, then the
    # Christoffel sums at the zeros: the sums are refused by name
    (
        {"a": [2.09e-227, 2.25e58, 2.09], "b": [-5.4e-28, -3.4e-230, 4.7e-20, -8.2e-192]},
        "sum of squared values overflowed (x = -3.4e-230)",
    ),
    # the operator-power moment J_2^2 e_0 overflows, before any eigensolve
    (
        {"a": [1e200, 1.0, 1.0], "b": [0, 0, 0, 0]},
        "the moment of degree 2 is not finite in float64: J_2^2 overflows",
    ),
    # the identity products overflow and nothing else does: their
    # non-finite metrics once reached the JSON writer
    (
        {"a": [2e-111, 2.5e-145, 1.45e8, 2.3e-14],
         "b": [-5e-260, -1.2e-23, -1.1e-139, 3.6e-169, 1.4e-70]},
        "the order 2 identity checks overflow float64",
    ),
]


@pytest.mark.parametrize(
    "coeffs,message", VERIFY_OVERFLOWS, ids=["christoffel-sums", "moment", "identity-products"]
)
def test_verify_overflow_refused_without_warning(capsys, tmp_path, coeffs, message):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(coeffs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "verify", "--custom", str(path), "--n-max", "2")
    assert (code, out) == (2, "")
    assert err.startswith(f"opmaj: error: {message}") and err.count("\n") == 1, err


# -- the CLI contract over any custom scheme and any command -------------------
LIMIT_FLOATS = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308]
MODERATE = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
# log-uniform over the float64 range, the limits of the range, and the moderate scales mixed in
MIXED = st.one_of(
    MODERATE, st.floats(-323.3, 308.25).map(lambda e: 10.0**e), st.sampled_from(LIMIT_FLOATS)
)


@st.composite
def invocations(draw):
    """(a, b, argv) of one ``--custom`` invocation: |a_i| and |b_i| all in [1e-3, 1e3]
    for one scheme in two, else each from MIXED; b_i of either sign, to b_12; any
    command at an order up to 12 and up to one beyond the scheme's usable order."""
    magnitudes = MODERATE if draw(st.booleans()) else MIXED
    depth = draw(st.integers(0, 12))
    b = [draw(st.sampled_from([1.0, -1.0])) * draw(magnitudes) for _ in range(depth + 1)]
    a = [draw(magnitudes) for _ in range(depth + draw(st.integers(0, 1)))]
    command = draw(st.sampled_from(["zeros", "weights", "matrix", "quad", "verify"]))
    n = draw(st.integers(1 + (command == "verify"), max(min(depth + 2, 12), 2)))
    if command == "verify":
        return a, b, ["verify", "--n-max", str(n)]
    argv = [command, "--n", str(n)]
    if command == "matrix":
        theorem = draw(st.sampled_from("ABC"))
        argv += ["--theorem", theorem, *(["--k", str(draw(st.integers(1, n)))] * (theorem == "C"))]
    if command == "quad":
        return a, b, [*argv, "--degree", str(draw(st.integers(0, 2 * n - 1)))]
    return a, b, [*argv, "--format", draw(st.sampled_from(["json", "csv"]))]


VERIFY_2 = ["verify", "--n-max", "2"]


def json_documents(text):
    """The standard JSON values that ``text`` holds one after another."""
    def refuse(constant):
        raise ValueError(f"{constant} is not standard JSON")

    decoder, docs, at = json.JSONDecoder(parse_constant=refuse), [], 0
    while text[at:].strip():
        doc, at = decoder.raw_decode(text, len(text) - len(text[at:].lstrip()))
        docs.append(doc)
    return docs


@given(invocation=invocations())
@example(invocation=(VERIFY_OVERFLOWS[0][0]["a"], VERIFY_OVERFLOWS[0][0]["b"], VERIFY_2))
@example(invocation=(VERIFY_OVERFLOWS[1][0]["a"], VERIFY_OVERFLOWS[1][0]["b"], VERIFY_2))
@example(invocation=(VERIFY_OVERFLOWS[2][0]["a"], VERIFY_OVERFLOWS[2][0]["b"], VERIFY_2))
# the quadrature sum that once overflowed to a NaN metric, which max() then dropped
@example(invocation=([3.1613246304029503e-230],
                     [-5.471541305223879e-215, -4.0075646382308806e+133], VERIFY_2))
@settings(max_examples=150, deadline=None)
def test_cli_contract_over_any_custom_scheme(tmp_path_factory, invocation):
    # exit 0, exit 1 with a failure report (matrix and verify), or exit 2 with
    # one error line and nothing on stdout; no uncaught error and no warning;
    # every payload parses back, and every check verify makes is finite
    a, b, argv = invocation
    path = tmp_path_factory.mktemp("custom") / "scheme.json"  # a new file: truncating one can be slow
    path.write_text(json.dumps({"a": a, "b": b}))
    out, err, checked = io.StringIO(), io.StringIO(), []

    def recording_verify_scheme(*args, **kwargs):
        checked.extend(verify_scheme(*args, **kwargs))
        return checked

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(cli, "verify_scheme", recording_verify_scheme), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([argv[0], "--custom", str(path), *argv[1:]])
    stdout, stderr = out.getvalue(), err.getvalue()
    assert all(math.isfinite(r.metric) for r in checked)  # whether or not the writer refused them
    if code == 2:
        assert stdout == "" and stderr.startswith("opmaj: error: "), stderr
        assert stderr.count("\n") == 1 and stderr.endswith("\n"), stderr
        return
    assert code in (0, 1), code
    notes = json_documents(stderr)  # underflow flags and matrix's failure report
    if argv[-2:] == ["--format", "csv"]:
        header, *rows = csv.reader(io.StringIO(stdout, newline=""))
        assert header == [f"j={j}" for j in range(1, len(header) + 1)]
        assert np.array(rows, dtype=float).shape == (len(rows), len(header)) and rows
    else:
        [doc] = json_documents(stdout)
    if argv[0] == "verify":
        assert doc["cases"] == len(checked)
        assert len(doc["failures"]) == sum(not r.passed for r in checked)
        assert bool(doc["failures"]) == (code == 1)
    elif argv[0] == "matrix" and code == 1:
        assert notes[-1]["failures"]
    else:
        assert code == 0


def test_non_finite_certificate_exit_code(capsys, tmp_path):
    # three zeros near 1e308 sum past float64, so the certificate's trace,
    # relation and majorization sums would not be finite: the order is
    # refused by name before anything is solved or written, in either format
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"a": [1e300, 1e300], "b": [1e308, 1e308, 1e308]}))
    for fmt in ("json", "csv"):
        code, out, err = run_cli(
            capsys, "matrix", "--custom", str(path), "--n", "3", "--theorem", "C", "--k", "2",
            "--format", fmt,
        )
        assert code == 2 and out == "", fmt
        assert err == (
            "opmaj: error: the order 3 certificate sums zeros past float64: "
            "n (max |b_i| + 2 max a_i) = inf\n"
        ), fmt
    # order 1 of the same scheme sums one zero, and its matrix is served
    argv = ("matrix", "--custom", str(path), "--n", "1", "--theorem", "A", "--format", "csv")
    assert run_cli(capsys, *argv) == (0, "j=1\r\n1.0\r\n", "")


def test_unseparable_zeros_exit_code(capsys, tmp_path):
    # two zeros of this p_10 lie under one ulp apart, so the eigensolver's
    # result is refused: an input error, not a traceback
    path = tmp_path / "clustered.json"
    path.write_text(json.dumps({"a": [0.1] * 9, "b": [10, 10, *[-10] * 6, 10, 10]}))
    code, out, err = run_cli(capsys, "zeros", "--custom", str(path), "--n", "10")
    assert code == 2 and out == ""
    assert err.startswith("opmaj: error: eigenvalues 7 and 8 are not strictly increasing")


def test_non_finite_json_payload_refused(capsys):
    # exp overflows over the zeros of laguerre p_200, so the exp margin has no
    # float64 value: JSON refuses it by name, while the CSV matrix is finite
    # and is served
    argv = ("matrix", "--family", "laguerre", "--n", "200", "--theorem", "A")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "NaN" not in err
    assert err.startswith("opmaj: error: the convex-exp margin is not finite in float64")
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and "nan" not in out and "inf" not in out


def test_oversized_order_refused_before_allocating(capsys, monkeypatch):
    def no_eigensolve(*args, **kwargs):
        pytest.fail("the eigensolver was called")

    monkeypatch.setattr(spectra, "dstev", no_eigensolve)
    monkeypatch.setattr(spectra, "dstevd", no_eigensolve)
    code, out, err = run_cli(capsys, "zeros", "--family", "legendre", "--n", "1000000")
    assert code == 2 and out == ""
    assert err.startswith("opmaj: error: order 1000000 needs 8000.0 GB")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--family", "legendre", "--n", "3"])
    assert exc.value.code == 2


def test_oversized_certificate_refused_before_allocating(capsys, monkeypatch):
    # a pretend 1.07 GB host: the order-10000 eigenvectors (0.8 GB) would
    # fit, the certificate's 32 n^2 bytes (3.2 GB: three n x n arrays and
    # the block solve's workspace) do not
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 262144}
    monkeypatch.setattr(spectra.os, "sysconf", memory.__getitem__)

    def no_eigensolve(*args, **kwargs):
        pytest.fail("the eigensolver was called")

    monkeypatch.setattr(spectra, "dstev", no_eigensolve)
    monkeypatch.setattr(spectra, "dstevd", no_eigensolve)
    code, out, err = run_cli(
        capsys, "matrix", "--family", "legendre", "--n", "10000", "--theorem", "A"
    )
    assert code == 2 and out == ""
    assert err.startswith("opmaj: error: the order 10000 certificate needs 3.2 GB")


# -- the JSON writer against its reference, json.dumps(indent=2) -------------
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, -1e16, 9999999999999998.0, 1e15, 1e17, 1e-4, 9.999999999999999e-05,
    0.00010000000000000002, 1e-5, 9.999999999999999e-06, 1.0000000000000001e-05,
]
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS)
)
KEYS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", '"quoted"', "\u00e9t\u00e9", "\u2028", "\x00", "\U0001f600"]),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, KEYS)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5)
ARRAYS = st.one_of(
    hnp.arrays(np.float64, SHAPES, elements=FLOATS),
    hnp.arrays(st.sampled_from([np.int64, np.bool_]), SHAPES),
)
PAYLOADS = st.recursive(
    st.one_of(SCALARS, ARRAYS, st.lists(FLOATS, max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=5), st.dictionaries(KEYS, children, max_size=5)
    ),
    max_leaves=30,
)


def as_lists(payload):
    """The payload with every ndarray replaced by its ``tolist()``."""
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    if isinstance(payload, dict):
        return {key: as_lists(value) for key, value in payload.items()}
    if isinstance(payload, list):
        return [as_lists(value) for value in payload]
    return payload


@given(PAYLOADS)
@example({"a": "", "run": np.array([0.5, 1.0]), "b": ""})
@example(["", np.array([[0.5], [1.0]]), ""])
@example(np.array([0.5, 1.0]))
@example(np.array([[0.5, 1.0], [2.0, 3.0]]))
@example([np.array([0.5]), np.array([[1.0, 2.0]])])
@example({"run": np.array([0.5]), "matrix": np.array([[1.0, 2.0]])})
@example({"empty": np.zeros((2, 0))})
@example({"\x00": "\x00", "run": np.array([0.5])})
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_stdlib_indent_2(payload):
    assert _json(payload) == json.dumps(as_lists(payload), indent=2, allow_nan=False)


def test_matrix_json_layout_is_stdlib_indent_2(capsys):
    # the largest payload a user asks for: every character of the layout is
    # the stdlib's, and every number is the library's bit for bit, underflowed
    # exact zeros included
    argv = ["matrix", "--family", "hermite", "--n", "400", "--theorem", "C", "--k", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    expected = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if out != expected:  # no assert: pytest's diff of two 3.5 MB strings takes minutes
        at = len(os.path.commonprefix([out, expected]))
        pytest.fail(f"layout differs at character {at}: {out[max(at - 30, 0):at + 30]!r}")
    ref = matrix_C(classical_scheme("hermite", 400), 400, 1)
    assert np.array_equal(np.array(doc["matrix"]), ref.entries)
    assert np.count_nonzero(ref.entries == 0.0) > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_writer_refuses_non_finite(bad):
    payloads = [
        {"scalar": bad},
        {"scalar": np.float64(bad)},
        {"runs": [[0.25, 0.5], [1.0, bad]]},
        {"mixed": [1, "x", bad]},
        {"array": np.array([[0.5, 0.5], [bad, 1.0]])},
        {"zero-d": np.array(bad)},
    ]
    for payload in payloads:
        with pytest.raises(ValueError, match="^the result holds a non-finite number, "
                           "which JSON cannot carry$"):
            _json(payload)


# -- the CSV writer against its reference, csv.writer -------------------------
CSV_FLOATS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -1e-310, math.inf, -math.inf, math.nan])
)


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                  elements=CSV_FLOATS))
@settings(max_examples=300, deadline=None)
def test_csv_writer_matches_stdlib_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([f"j={j}" for j in range(1, table.shape[1] + 1)])
    writer.writerows(table.tolist())
    assert "".join(cli._chunks(cli._csv_pieces(table))) == buf.getvalue()
