import io
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from opmaj import classical_scheme, cli, gauss_rule, matrix_A, matrix_B, matrix_C, spectra
from opmaj.cli import _json, main


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


def test_zeros_csv(capsys):
    code, out, _ = run_cli(
        capsys, "zeros", "--family", "chebyshev-u", "--n", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j=1,j=2"
    assert [float(v) for v in lines[1].split(",")] == pytest.approx([-0.5, 0.5])


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


def test_verify_custom_scheme(capsys, tmp_path):
    path = tmp_path / "cheb.json"
    path.write_text(json.dumps({"a": [0.5] * 12, "b": [0.0] * 13}))
    code, out, _ = run_cli(capsys, "verify", "--custom", str(path), "--n-max", "8")
    assert code == 0
    code, _, err = run_cli(capsys, "verify", "--custom", str(path), "--n-max", "30")
    assert code == 2


def test_verify_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("OPMAJ_SEED", "777")
    code, out, _ = run_cli(capsys, "verify", "--family", "chebyshev-u", "--n-max", "5")
    assert code == 0
    monkeypatch.setenv("OPMAJ_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "verify", "--family", "chebyshev-u", "--n-max", "5")
    assert code == 2
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


def test_matrix_failure_report_names_the_failing_checks(capsys):
    # at --tol 1e-30 every partial-sum margin of this certificate passes and
    # the total residual (2.2e-16) fails: the report names that row, in
    # verify's schema, and each row it lists fails its own limit
    argv = ("matrix", "--family", "legendre", "--n", "7", "--theorem", "C", "--k", "3")
    code, out, err = run_cli(capsys, *argv, "--tol", "1e-30")
    assert code == 1 and json.loads(out)["k"] == 3
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
    spectra.block_spectral.cache_clear()
    monkeypatch.setattr(spectra, "dstev", no_eigensolve)
    monkeypatch.setattr(spectra, "dstevd", no_eigensolve)
    shallow = tmp_path / "shallow.json"
    shallow.write_text(json.dumps({"a": [0.5] * 4, "b": [0.0] * 5}))
    for argv in (
        ["matrix", "--family", "legendre", "--n", "5", "--theorem", "A", "--tol", "-1"],
        ["matrix", "--family", "legendre", "--n", "5", "--theorem", "C", "--k", "9"],
        ["zeros", "--family", "legendre", "--n", "0"],
        ["verify", "--family", "legendre", "--n-max", "1"],
        ["verify", "--family", "legendre", "--n-max", "5", "--tol-relation", "0"],
        ["matrix", "--custom", str(shallow), "--n", "9", "--theorem", "A"],
        ["verify", "--custom", str(shallow), "--n-max", "9"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("opmaj: error: "), argv


def test_literal_route_overflow_exit_code(capsys, tmp_path):
    # verify's identity checks evaluate the polynomials by forward recurrence,
    # which overflows for a_i = 1e-200: an input error, not a traceback
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"a": [1e-200] * 5, "b": [0, 0.5, 1, 1.5, 2, 2.5]}))
    code, out, err = run_cli(capsys, "verify", "--custom", str(path), "--n-max", "4")
    assert code == 2 and out == ""
    assert err.startswith("opmaj: error: recurrence overflowed")


def test_non_finite_certificate_exit_code(capsys, monkeypatch):
    # a certificate with an infinite entry reaches neither stream, in either format
    def infinite_b(scheme, n):
        result = matrix_B(scheme, n)
        entries = result.entries.copy()
        entries[0, 0] = math.inf
        return replace(result, entries=entries)

    monkeypatch.setattr(cli, "matrix_B", infinite_b)
    for fmt in ("json", "csv"):
        code, out, err = run_cli(
            capsys, "matrix", "--family", "legendre", "--n", "4", "--theorem", "B",
            "--format", fmt,
        )
        assert code == 2 and out == ""
        assert err.startswith("opmaj: error: the theorem B certificate")
        for stream in (out, err):
            assert "Infinity" not in stream and "inf" not in stream


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
    # fit, the certificate's four n x n arrays (3.2 GB) do not
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
ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
    elements=FLOATS,
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
    ]
    for payload in payloads:
        with pytest.raises(ValueError, match="^the result holds a non-finite number, "
                           "which JSON cannot carry$"):
            _json(payload)
