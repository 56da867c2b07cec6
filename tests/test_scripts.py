"""Smoke tests of ``scripts/`` and of the benchmark's worker: each runs as
documented, in a subprocess with ``PYTHONPATH=src``, so that a library
rename cannot break one unseen."""
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

from opmaj import classical_scheme, verify_scheme

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, folder="scripts", **variables):
    env = {**os.environ, **variables}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, f"{folder}/{name}", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_headroom_prints_the_rows_verify_judged():
    proc = run_script("headroom.py", "--n-max", "4")
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["n", "check", "worst", "metric", "limit", "verdict"]
    results = verify_scheme(classical_scheme("legendre", 6), 4)
    recorded = {(r.case, r.metric, r.limit, r.passed) for r in results}
    orders = set()
    for line in lines:
        n, family, metric, limit, verdict = line.split()
        orders.add(int(n))
        # the printed numbers are a recorded row of that order and family
        assert any(
            case.startswith(f"n={n} ") and family in case.split()
            and (m, lim, ok) == (float(metric), float(limit), verdict == "pass")
            for case, m, lim, ok in recorded
        ), line
    assert orders == {2, 3, 4}
    assert sum(" row-sums " in line for line in lines) == 3


def test_entry_accuracy_runs_one_case():
    proc = run_script("entry_accuracy.py", "--case", "legendre", "6", "1,3")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[:3] for row in rows[:2]] == [["legendre", "6", "1"], ["legendre", "6", "3"]]
    assert rows[2][0] == "all" and all(float(v) < 1e-12 for v in rows[2][1:])


def test_entry_accuracy_compares_the_rows_of_one_order():
    proc = run_script("entry_accuracy.py", "--rows", "hermite", "20")
    assert proc.returncode == 0, proc.stderr
    header, *rows = (line.split() for line in proc.stdout.splitlines())
    assert header == ["family", "n", "row", "opmaj", "dstev", "dstevd", "formula"]
    assert [row[:3] for row in rows] == [["hermite", "20", r] for r in ("0", "6", "19")]
    assert all(float(v) < 1e-10 for row in rows for v in row[3:5])
    # the formula's weights on row 0 only
    assert float(rows[0][6]) < 1e-10 and [row[6] for row in rows[1:]] == ["-", "-"]


def test_floatrepr_sweep_runs_each_stream():
    proc = run_script("floatrepr_sweep.py", "--count", "20000", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    counts = [line.split(" floats match repr")[0] for line in proc.stdout.splitlines()]
    assert counts[0] == "random: 20000" and counts[2] == "subnormals: 2000000"
    assert counts[1].startswith("edges: ")


def test_floatrepr_sweep_names_the_first_mismatch(monkeypatch, capsys):
    # in process, so that the kernel can be swapped for one that misprints 1.0
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "scripts" / "floatrepr_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    kernel = sweep.chunks

    def misprint(block, sep, row_break):
        text = "".join(kernel(block, sep, row_break))
        yield "\n".join("1.00" if line == "1.0" else line for line in text.split("\n"))

    monkeypatch.setattr(sweep, "chunks", misprint)
    monkeypatch.setattr(sys, "argv", ["floatrepr_sweep.py", "--count", "0"])
    with pytest.raises(SystemExit) as exit_:
        sweep.main()
    assert exit_.value.code == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "edges: mismatch at bits 0x3ff0000000000000 (0x1.0000000000000p+0): "
        "kernel '1.00', repr '1.0'"
    )


def build_fingerprint():
    """The numpy and scipy versions, the BLAS and LAPACK each was built with, and the machine."""
    config = {mod.__name__: mod.show_config(mode="dicts")["Build Dependencies"]
              for mod in (numpy, scipy)}
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{f"{mod} {lib}": f"{deps[lib]['name']} {deps[lib]['version']}"
           for mod, deps in config.items() for lib in ("blas", "lapack")},
        "machine": platform.machine(),
    }


def test_golden_outputs_prints_five_digests():
    # the coefficient tables, Jacobi matrix bytes and recurrence values read
    # no LAPACK or BLAS, so their digest is pinned everywhere; all five are
    # pinned, at one BLAS thread, on every build scripts/golden_digests.json records
    proc = run_script("golden_outputs.py", OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == ["cli", "verify", "stderr", "coeffs", "verify60"]
    assert all(re.fullmatch("[0-9a-f]{64}", row[1]) for row in rows)
    assert rows[3][1] == "c3675668a4f05ba7d3bc544c54965f0b98e36e6b4778256ac26be02125e58b7e"
    build = build_fingerprint()
    records = json.loads((ROOT / "scripts" / "golden_digests.json").read_text())
    recorded = [record["digests"] for record in records if record["build"] == build]
    if not recorded:
        pytest.skip(f"no golden digests recorded for this build: {build}")
    assert {row[0]: row[1] for row in rows} == recorded[0]


def test_golden_outputs_diff(tmp_path):
    records = [
        {"argv": ["zeros", "--help"], "code": 0, "stdout": "usage", "stderr": ""},
        {"case": ["legendre", "n=2 row-sums"], "metric": 0.0, "limit": 1e-10, "passed": True},
        {"case": ["legendre", "n=2 row-sums", 60], "metric": 0.0, "limit": 1e-10, "passed": True},
        {"table": ["jacobi", {"alpha": 0.5, "beta": -0.5}, 1, 2], "matrix": ["00", ""],
         "values": [], "leading": ["01"]},
    ]
    # the n_max = 60 row of a case is a record of its own: the n_max = 30 row stays
    changed = [*records[:2], {**records[2], "metric": 1.0}, {**records[3], "matrix": ["01", ""]}]
    old, same, new = (tmp_path / name for name in ("old.jsonl", "same.jsonl", "new.jsonl"))
    for path, rows in ((old, records), (same, records), (new, changed)):
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    proc = run_script("golden_outputs.py", "--diff", str(old), str(same))
    assert (proc.returncode, proc.stdout) == (0, "")
    assert "0 of 4 records differ" in proc.stderr
    proc = run_script("golden_outputs.py", "--diff", str(old), str(new))
    assert proc.returncode == 1
    assert proc.stdout == (
        '["legendre", "n=2 row-sums", 60]  metric\n'
        '["jacobi", {"alpha": 0.5, "beta": -0.5}, 1, 2]  matrix\n'
    )
    assert "2 of 4 records differ" in proc.stderr


def test_golden_outputs_diff_tallies_by_check_family_and_field(tmp_path):
    def case(key, metric=0.0, passed=True):
        return {"case": key, "metric": metric, "limit": 1e-8, "passed": passed}

    old_rows = [
        case(["legendre", "n=9 quadrature-exactness"]),
        case(["hermite", "n=9 quadrature-exactness", 60]),
        case(["laguerre", "n=7 C k=3 convex-exp"]),
        case(["laguerre", "n=7 A convex-exp", 60]),
        case(["hermite", "n=5 k=2 assoc-factorization x=0.125"]),
        case(["hermite", "n=5 column-sum-identity B"]),
        {"argv": ["matrix", "--n", "2"], "code": 0, "stdout": "[]", "stderr": ""},
        {"argv": ["verify", "--n-max", "2"], "code": 0, "stdout": "[]", "stderr": ""},
        {"table": ["hermite", {}, 0, 2], "matrix": ["00"], "values": [], "leading": ["01"]},
    ]
    new_rows = [
        case(["legendre", "n=9 quadrature-exactness"], metric=1e-16),
        case(["hermite", "n=9 quadrature-exactness", 60], metric=2e-16),
        case(["laguerre", "n=7 C k=3 convex-exp"], metric=1.0, passed=False),
        case(["laguerre", "n=7 A convex-exp", 60], metric=1.0, passed=False),
        case(["hermite", "n=5 k=2 assoc-factorization x=0.125"], metric=1e-16),
        case(["hermite", "n=6 column-sum-identity B"]),
        {"argv": ["matrix", "--n", "2"], "code": 1, "stdout": "", "stderr": "boom"},
        {"argv": ["verify", "--n-max", "2"], "code": 0, "stdout": "[]", "stderr": ""},
        {"table": ["hermite", {}, 0, 2], "matrix": ["01"], "values": [], "leading": ["01"]},
    ]
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    for path, rows in ((old, old_rows), (new, new_rows)):
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    proc = run_script("golden_outputs.py", "--diff", str(old), str(new))
    assert proc.returncode == 1
    # most first, ties by name; each record counted once, under all its changed fields
    assert proc.stderr == (
        "9 of 10 records differ\n"
        "convex-exp metric passed 2\n"
        "quadrature-exactness metric 2\n"
        "assoc-factorization metric 1\n"
        "cli matrix code stdout stderr 1\n"
        "coeffs matrix 1\n"
        "column-sum-identity only in new 1\n"
        "column-sum-identity only in old 1\n"
    )


def test_golden_outputs_diff_into_a_closed_pipe(tmp_path):
    # `--diff A B | head -1`: far more differing records than a pipe holds, and
    # the reader gone after one line, ends with the diff's status and no traceback
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    for path, metric in ((old, 0.0), (new, 1.0)):
        path.write_text("".join(
            json.dumps({"case": ["legendre", f"n={i} row-sums"], "metric": metric}) + "\n"
            for i in range(20_000)))
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.Popen(
        [sys.executable, "scripts/golden_outputs.py", "--diff", str(old), str(new)], cwd=ROOT,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == '["legendre", "n=0 row-sums"]  metric\n'
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_benchmark_worker_passes_its_own_checks_on_small_specs(tmp_path):
    # one cold pass of each benchmark workload, small, with the worker's own
    # output checks, and one traced pass: a failed op or check here would end
    # a benchmark run as incorrect or failed
    specs = [
        {"workload": "allk-sweep", "n": 12, "ks": [1, 6, 12]},
        {"workload": "cli-matrix", "n": 12, "ks": [1, 12], "out": str(tmp_path / "matrix.json")},
        {"workload": "verify-sweep", "seed": 1, "families": ["legendre"]},
        {"workload": "allk-sweep", "n": 12, "ks": [1, 6, 12], "trace": 1},
    ]
    for spec in specs:
        proc = run_script("worker.py", json.dumps(spec), folder="perfbench")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "ready"
        result = json.loads(lines[-1])
        assert [op["label"] for op in result["ops"]] == spec.get("ks", spec.get("families"))
        assert all(op["ok"] for op in result["ops"]), result["ops"]
        checks = result["checks"]
        assert checks["total"] > 0 and checks["passed"] == checks["total"], checks
        assert ("trace" in result) == bool(spec.get("trace"))
