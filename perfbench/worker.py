"""One cold pass of a perfbench workload, in its own interpreter.

Usage: python3 perfbench/worker.py '<spec json>'

The worker prints ``ready`` once its imports (numpy, scipy and ``opmaj.cli``)
are done, so the parent can time interpreter start plus import as set-up.  It then runs the ops of
the spec, timing each one, and checks every op's output outside the timed
region.  The last stdout line is one JSON object describing the pass.

Between ops, outside the timed region, the worker also times a fixed
reference kernel that uses no opmaj code (``reference_kernel``), so the
runner can tell how fast the machine ran during the pass.

Spec keys: ``workload``, ``seed``, ``trace`` (install the tracer), ``probe``
(after ``ready``, only time the reference kernel a few times), ``families``
(verify-sweep), ``n`` and ``ks`` (allk-sweep, cli-matrix), ``out``
(cli-matrix output file).
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np
import scipy
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

import opmaj
import opmaj.cli

# Library defaults at which each output is checked; fixed here so that a
# change to the library's tolerances cannot loosen the benchmark's check.
TOL_STOCHASTIC = 1e-10
TOL_RELATION = 1e-9  # times max(spectral diameter, 1)
TOL_MAJORIZATION = 1e-10
VERIFY_CASES = 25_683  # cases per family at n_max = 60
EPS = np.finfo(float).eps
REF_SHARE = 0.1  # reference-kernel time owed per second of op time

# Inputs of the reference kernel, fixed once and for all.
_REF_RNG = np.random.default_rng(20160711)
_REF_DIAG = _REF_RNG.standard_normal(300)
_REF_OFF = _REF_RNG.standard_normal(299)
_REF_FLOATS = _REF_RNG.standard_normal(8000).tolist()
PROBE_REFS = 3


def reference_kernel() -> float:
    """Seconds taken by fixed work in the mix opmaj's workloads use.

    Interpreter loops, a tridiagonal eigensolve with vectors and the
    pure-Python JSON encoder, the parts whose times tracked opmaj's ops most
    closely on a shared host (a dense product and a pass over memory did
    not, and are left out).  None of it calls opmaj, so a change to opmaj
    cannot change its cost, only the machine's speed can.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60_000):
        acc += (i * 0.5) % 7.0
    eigh_tridiagonal(_REF_DIAG, _REF_OFF)
    json.dumps(_REF_FLOATS, indent=2)
    return time.perf_counter() - t0


def coefficients(family: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (a_1..a_n, b_0..b_{n-1}), written independently of opmaj."""
    i = np.arange(1, n + 1, dtype=float)
    if family == "legendre":
        return i / np.sqrt(4.0 * i * i - 1.0), np.zeros(n)
    if family == "hermite":
        return np.sqrt(0.5 * i), np.zeros(n)
    raise ValueError(f"no reference coefficients for {family}")


def zeros_close(x: np.ndarray, diag: np.ndarray, off: np.ndarray) -> bool:
    """Ascending zeros x agree with an independent tridiagonal eigensolve."""
    if diag.size == 0:
        return x.size == 0
    ref = eigvalsh_tridiagonal(diag, off)
    norm = float(np.max(np.abs(diag), initial=0.0) + 2.0 * np.max(off, initial=0.0))
    return x.shape == ref.shape and float(np.max(np.abs(x - ref))) <= 4 * diag.size * EPS * max(norm, 1.0)


def check_certificate(family, n, k, entries, source, target) -> dict[str, bool]:
    """Theorem-C output checks at the library's default tolerances."""
    a, b = coefficients(family, n)
    diameter = max(float(source[-1] - source[0]), 1.0)
    x_desc = np.sort(target)[::-1]
    y_desc = np.sort(source)[::-1]
    margins = np.cumsum(y_desc)[:-1] - np.cumsum(x_desc)[:-1]
    return {
        "stochastic": bool(
            np.max(np.abs(entries.sum(axis=1) - 1.0)) <= TOL_STOCHASTIC
            and np.max(np.abs(entries.sum(axis=0) - 1.0)) <= TOL_STOCHASTIC
        ),
        "nonnegative": bool(entries.min() >= -TOL_STOCHASTIC),
        "relation": bool(
            np.max(np.abs(target - entries @ source)) <= TOL_RELATION * diameter
        ),
        "majorization": bool(
            np.all(margins >= -TOL_MAJORIZATION)
            and abs(x_desc.sum() - y_desc.sum()) <= TOL_MAJORIZATION
        ),
        "zeros": bool(
            zeros_close(source, b[:n], a[: n - 1])
            and zeros_close(target[: k - 1], b[: k - 1], a[: max(k - 2, 0)])
            and zeros_close(target[k - 1 : n - 1], b[k:n], a[k : n - 1])
            and target[n - 1] == b[k - 1]
        ),
    }


def check_verify(results) -> dict[str, bool]:
    """Structural checks on one verify_scheme outcome."""
    cases = [r.case for r in results]
    consistent = all(
        r.passed == (r.metric < r.limit if "interlacing" in r.case else r.metric <= r.limit)
        for r in results
    )
    return {
        "case_count": len(results) == VERIFY_CASES,
        "sorted_unique": cases == sorted(set(cases)),
        "verdicts": consistent,
    }


def check_family(case: str) -> str:
    """Check family of a verify case key: 'n=5 C k=3 convex-exp' -> 'convex-exp'."""
    return " ".join(t for t in case.split() if "=" not in t and t not in ("A", "B", "C"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(spec):
    """Yield (label, timed op, output check) for each op of the workload.

    Library entry points are looked up on the package at call time, so that
    the tracer's wrappers are the ones called.
    """
    workload = spec["workload"]
    if workload == "verify-sweep":
        for family in spec["families"]:

            def op(family=family):
                alpha = {"alpha": 0.0} if family == "laguerre" else {}
                scheme = opmaj.classical_scheme(family, 62, **alpha)
                return opmaj.verify_scheme(scheme, 60, seed=spec["seed"])

            yield family, op, check_verify
    elif workload == "allk-sweep":
        n = spec["n"]
        scheme = opmaj.classical_scheme("legendre", n)
        for k in spec["ks"]:

            def op(k=k):
                return opmaj.matrix_C(scheme, n, k)

            def check(r, k=k):
                return check_certificate("legendre", n, k, r.entries, r.source, r.target)

            yield k, op, check
    elif workload == "cli-matrix":
        n, out = spec["n"], spec["out"]
        for k in spec["ks"]:
            argv = ["matrix", "--family", "hermite", "--n", str(n), "--theorem", "C",
                    "--k", str(k), "--out", out]

            def op(argv=argv):
                return opmaj.cli.main(argv)

            def check(code, k=k):
                with open(out, encoding="utf-8") as fh:
                    payload = json.load(fh)
                ref = opmaj.matrix_C(opmaj.classical_scheme("hermite", n), n, k)
                entries = np.array(payload["matrix"])
                source = np.array(payload["source_zeros"])
                target = np.array(payload["target"])
                result = check_certificate("hermite", n, k, entries, source, target)
                result["exit_code"] = code == 0
                result["bit_identical"] = (
                    payload["matrix"] == ref.entries.tolist()
                    and payload["source_zeros"] == ref.source.tolist()
                    and payload["target"] == ref.target.tolist()
                )
                return result

            yield k, op, check
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    spec = json.loads(sys.argv[1])
    print("ready", flush=True)
    if spec.get("probe"):
        print(json.dumps({"ref_s": [reference_kernel() for _ in range(PROBE_REFS)]}))
        return 0
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer  # perfbench/ is sys.path[0] for this script

        tracer = Tracer()
        tracer.install()
    ops, rss, checks = [], 0.0, {"passed": 0, "total": 0}
    verify_failed: dict[str, dict[str, int]] = {}
    bytes_out = 0
    cache_info = {}
    ref_s = [reference_kernel()]
    owed = 0.0  # reference time due, as a share of the op time since the last sample
    for label, op, check in run_ops(spec):
        while owed > 0.0:
            ref_s.append(reference_kernel())
            owed -= ref_s[-1]
        info_before = _cache_infos(tracer)
        if tracer is not None:
            t0 = tracer.begin()
        else:
            t0 = time.perf_counter()
        error = None
        try:
            output = op()
        except (Exception, SystemExit) as exc:  # a failed op, not a crashed pass
            error = f"{type(exc).__name__}: {exc}"
        t1 = tracer.end() if tracer is not None else time.perf_counter()
        owed += REF_SHARE * (t1 - t0)
        rss = max(rss, peak_rss_mb())
        for prefix, (h, m) in _cache_infos(tracer).items():
            h0, m0 = info_before[prefix]
            acc = cache_info.setdefault(prefix, [0, 0])
            acc[0] += h - h0
            acc[1] += m - m0
        snap = tracer.snapshot() if tracer is not None else None
        verdicts = {}
        if error is None:
            try:
                verdicts = check(output)
            except Exception as exc:
                error = f"check {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.restore(snap)
        if spec["workload"] == "verify-sweep" and error is None:
            failed = [r for r in output if not r.passed]
            checks["passed"] += len(output) - len(failed)
            checks["total"] += len(output)
            by_family = verify_failed.setdefault(label, {})
            for r in failed:
                fam = check_family(r.case)
                by_family[fam] = by_family.get(fam, 0) + 1
        else:
            checks["passed"] += sum(verdicts.values())
            checks["total"] += len(verdicts) if verdicts else 1
        if spec["workload"] == "cli-matrix" and os.path.exists(spec["out"]):
            bytes_out += os.path.getsize(spec["out"])
            os.remove(spec["out"])
        ok = error is None and all(verdicts.values())
        if error is None and not ok:
            error = "output check failed: " + ",".join(k for k, v in verdicts.items() if not v)
        ops.append({"label": label, "t": t1 - t0, "ok": ok, "error": error})
        output = None
    while owed > 0.0 or len(ref_s) < 2:
        ref_s.append(reference_kernel())
        owed -= ref_s[-1]
    result = {
        "ops": ops,
        "ref_s": ref_s,
        "peak_rss_mb": rss,
        "checks": checks,
        "verify_failed": verify_failed,
        "bytes_out": bytes_out,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_name(),
        },
    }
    if tracer is not None:
        result["trace"] = {
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counts": tracer.counts,
            "cache_mb": tracer.held_mb(),
            "cache_info": cache_info,
        }
    print(json.dumps(result))
    return 0


def _cache_infos(tracer) -> dict[str, tuple[int, int]]:
    """(hits, misses) of each cached entry point that has ``cache_info``."""
    if tracer is None:
        return {}
    out = {}
    for prefix, obj in tracer.cache_objects.items():
        info = getattr(obj, "cache_info", None)
        if info is not None:
            ci = info()
            out[prefix] = (ci.hits, ci.misses)
    return out


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    raise SystemExit(main())
