"""opmaj benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --baselines

Every pass is cold: it runs in a fresh interpreter (perfbench/worker.py) that
imports opmaj from ./src, so no library cache survives between passes.  With
``--trace 0`` the runner reports the end-to-end metrics of untraced passes;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer split of the traced ones.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries details (machine, sample counts, failure breakdowns).
Times are in reference seconds: scaled by a fixed kernel that each worker
times between its ops, so that runs in the machine's slow spells compare
with runs in its fast ones (see ``scaled``).

``--baselines`` instead re-measures the one-off timings quoted in ROADMAP.md
and prints them next to the quoted values.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify-sweep", "allk-sweep", "cli-matrix")
VERIFY_FAMILIES = ("legendre", "laguerre", "hermite")
ALLK_N = 300  # O(n^4) sweep: 300 ops per pass, two or three passes per 40 s run
CLI_N = 400
CLI_STRATA = 4
CLI_JITTER = 5
SETUP_PROBES = 5  # set-up samples taken before the passes (plus one warm-up)
# Reference-kernel seconds at the speed all times are scaled to: about the
# kernel's time in the fast spells of the machine in perfbench/README.md.
REF_S = 0.018
RUN_LIMIT_S = 150.0  # no pass starts after this; a run must end within 180 s


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 1


def source_root() -> str | None:
    """The checkout's ./src if it holds the opmaj package."""
    src = os.path.join(os.getcwd(), "src")
    return src if os.path.isfile(os.path.join(src, "opmaj", "__init__.py")) else None


def blas_env() -> dict[str, str]:
    """BLAS thread settings: one thread.

    opmaj's workloads are single-threaded apart from BLAS, and on a shared
    2-vCPU host a two-thread dense product varied tenfold from call to call
    where a one-thread run of the same code varied twofold.
    """
    return {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def worker_env(src: str, scratch: str) -> dict[str, str]:
    return {**os.environ, **blas_env(), "PYTHONPATH": src, "TMPDIR": scratch}


# -- inputs from the seed -------------------------------------------------
def cli_ks(seed: int) -> list[int]:
    """Deletion indices for cli-matrix: one near each of four distances to the edge.

    The two block eigensolves cost about (k-1)^3 + (n-k)^3, so an op's cost
    is set by k's distance to the nearer edge (at n = 800 an edge k cost up
    to 1.6x a middle one).  The distances are fixed (0, 50, 100 and 150 at
    n = 400, plus a seeded offset below CLI_JITTER) and the seed picks the
    side and the order, so every seed asks for the same mix of cheap and dear ops
    (hermite is symmetric, so k and n+1-k cost the same).
    """
    rng = random.Random(seed)
    width = (CLI_N // 2) // CLI_STRATA
    strata = list(range(CLI_STRATA))
    rng.shuffle(strata)
    ks = []
    for s in strata:
        d = s * width + rng.randrange(CLI_JITTER)
        ks.append(1 + d if rng.random() < 0.5 else CLI_N - d)
    return ks


def pass_spec(workload: str, seed: int, index: int, trace: bool, scratch: str) -> dict:
    """Inputs of pass ``index``; passes repeat the same ops (cli-matrix cycles its ks)."""
    spec = {"workload": workload, "seed": seed, "trace": trace}
    if workload == "verify-sweep":
        spec["families"] = list(VERIFY_FAMILIES)
    elif workload == "allk-sweep":
        ks = list(range(1, ALLK_N + 1))
        random.Random(seed).shuffle(ks)
        spec.update(n=ALLK_N, ks=ks)
    else:
        ks = cli_ks(seed)
        spec.update(n=CLI_N, ks=[ks[index % len(ks)]],
                    out=os.path.join(scratch, "cli-matrix.json"))
    return spec


# -- passes ---------------------------------------------------------------
def run_worker(spec: dict, env: dict, deadline: float) -> tuple[float, dict]:
    """Start one worker; return (set-up seconds, its result: a pass or a probe's kernel times)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if first.strip() != "ready":
            raise RuntimeError(f"worker did not start: {first.strip()!r}")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return setup, json.loads(lines[-1])


def scaled(seconds: float, result: dict) -> float:
    """Seconds measured in a worker, in reference seconds.

    Other tenants of the host slow this machine down by up to 2x, switching
    between fast and slow spells that last from seconds to minutes, so whole
    runs can fall in a slow phase.  Every worker times a fixed kernel that
    calls no opmaj code (worker.reference_kernel) between its ops; REF_S
    over the worker's mean kernel time expresses its times at the speed at
    which the kernel takes REF_S.  The kernel is timed in the same process,
    between the ops it scales, so it sees the same spells.
    """
    return seconds * REF_S / statistics.fmean(result["ref_s"])


def op_times(passes: list[dict]) -> dict[str, float]:
    """Mean time of each distinct op (by label) over the passes that ran it,
    in reference seconds.

    A mean, not a median: with a two-speed machine the mean moves in
    proportion to the share of slow spells, where a median jumps between
    the two speeds.
    """
    times: dict[str, list[float]] = {}
    for p in passes:
        for op in p["ops"]:
            times.setdefault(str(op["label"]), []).append(scaled(op["t"], p))
    return {label: statistics.fmean(ts) for label, ts in times.items()}


def pass_time(passes: list[dict]) -> float:
    """Cold-pass time in reference seconds, assembled from per-op mean times."""
    per_op = op_times(passes)
    return len(passes[0]["ops"]) * statistics.fmean(per_op.values())


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    Never below the median: with 20 samples or fewer the median is reported.
    """
    xs = sorted(values)
    n = len(xs)
    rank = n - 10  # 1-based
    if rank < (n + 1) / 2:
        return statistics.median(xs), 50.0
    return xs[rank - 1], 100.0 * rank / n


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "blas_threads": blas_env()["OPENBLAS_NUM_THREADS"],
    }


def median_of(rows: list[dict], key) -> float:
    return statistics.median(key(r) for r in rows)


LAYER_METRICS = [
    # (name, unit, value from one traced pass)
    ("recurrence.coeff_calls", "count", lambda t: t["calls"].get("recurrence.coeff", 0)),
    ("recurrence.coeff_self_s", "s", lambda t: t["self_s"].get("recurrence.coeff", 0.0)),
    ("spectra.eig_calls", "count", lambda t: t["calls"].get("spectra.eig", 0)),
    ("spectra.eig_self_s", "s", lambda t: t["self_s"].get("spectra.eig", 0.0)),
    ("spectra.eig_order3_sum", "count", lambda t: t["counts"]["spectra.eig_order3_sum"]),
    ("spectra.jacobi_calls", "count", lambda t: t["calls"].get("spectra.jacobi", 0)),
    ("spectra.jacobi_self_s", "s", lambda t: t["self_s"].get("spectra.jacobi", 0.0)),
    ("spectra.cache_hits", "count", lambda t: cache_count(t, "spectra.cache", 0)),
    ("spectra.cache_misses", "count", lambda t: cache_count(t, "spectra.cache", 1)),
    ("spectra.cache_mb", "MB", lambda t: t["cache_mb"]),
    ("orthopoly.assoc_hits", "count", lambda t: cache_count(t, "orthopoly.assoc", 0)),
    ("orthopoly.assoc_misses", "count", lambda t: cache_count(t, "orthopoly.assoc", 1)),
    ("orthopoly.eval_calls", "count", lambda t: t["calls"].get("orthopoly.eval", 0)),
    ("orthopoly.eval_self_s", "s", lambda t: t["self_s"].get("orthopoly.eval", 0.0)),
    ("orthopoly.quad_self_s", "s", lambda t: t["self_s"].get("orthopoly.quad", 0.0)),
    ("majorization.matrix_calls", "count", lambda t: t["calls"].get("majorization.matrix", 0)),
    ("majorization.matrix_self_s", "s", lambda t: t["self_s"].get("majorization.matrix", 0.0)),
    ("majorization.entries", "count", lambda t: t["counts"]["majorization.entries"]),
    ("majorization.check_calls", "count", lambda t: t["calls"].get("majorization.check", 0)),
    ("majorization.check_self_s", "s", lambda t: t["self_s"].get("majorization.check", 0.0)),
    ("verification.cases", "count", lambda t: t["counts"].get("verification.cases", 0)),
    ("verification.checks_failed", "count", lambda t: t["counts"].get("verification.checks_failed", 0)),
    ("verification.self_s", "s", lambda t: t["self_s"].get("verification", 0.0)),
    ("cli.self_s", "s", lambda t: t["self_s"].get("cli", 0.0)),
    ("cli.bytes_out", "count", lambda t: t["counts"].get("cli.bytes_out", 0)),
    ("trace.coverage", "frac", lambda t: t["coverage"]),
]


def cache_count(trace: dict, prefix: str, which: int) -> int:
    """Hits (0) or misses (1): from cache_info() when the cache has one,
    otherwise derived from the wrapped calls."""
    info = trace["cache_info"].get(prefix)
    if info is not None:
        return info[which]
    return trace["counts"].get(prefix + ("_hits", "_misses")[which], 0)


def measure(workload: str, seed: int, seconds: int, trace: bool, src: str) -> tuple[dict, dict]:
    scratch = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    env = worker_env(src, scratch)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S + 25.0
    probe = {"workload": workload, "probe": True}
    run_worker(probe, env, deadline)  # warm-up: bytecode and file cache
    starts = [run_worker(probe, env, deadline) for _ in range(SETUP_PROBES)]
    passes: list[tuple[bool, dict]] = []
    durations: list[float] = []
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        spec = pass_spec(workload, seed, index // 2 if trace else index, traced, scratch)
        t0 = time.monotonic()
        setup, result = run_worker(spec, env, deadline)
        durations.append(time.monotonic() - t0)
        starts.append((setup, result))
        passes.append((traced, result))
        now = time.monotonic()
        if trace and len(passes) % 2 == 1:
            continue  # finish the untraced/traced pair
        if now + statistics.median(durations) * (2 if trace else 1) > start + seconds:
            break
        if now - start > RUN_LIMIT_S:
            break
    shutil.rmtree(scratch, ignore_errors=True)

    ops = [op for _, p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    checks_passed = sum(p["checks"]["passed"] for _, p in passes)
    checks_total = sum(p["checks"]["total"] for _, p in passes)
    plain = [p for traced, p in passes if not traced]
    per_op = list(op_times(plain).values())
    tail_value, tail_pct = tail(per_op)
    setups = [scaled(setup, r) for setup, r in starts]
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "machine": {**machine(), **passes[0][1]["versions"]},
        "passes": len(passes),
        "ref_s": REF_S,
        "ref_mean_s_per_pass": [statistics.fmean(p["ref_s"]) for _, p in passes],
        "untraced_pass_walls_raw": [sum(op["t"] for op in p["ops"]) for p in plain],
        "setup_s_raw": statistics.median(setup for setup, _ in starts),
        "distinct_ops": len(per_op),
        "op_tail_percentile": tail_pct,
        "setup_samples": len(setups),
        "checks": {"passed": checks_passed, "total": checks_total},
        "errors": [op["error"] for op in ops if op["error"]][:5],
    }
    if not trace:
        metrics = {
            "wall_s": (pass_time(plain), "s"),
            "op_p50_s": (statistics.median(per_op), "s"),
            "op_tail_s": (tail_value, "s"),
            "peak_rss_mb": (median_of(plain, lambda p: p["peak_rss_mb"]), "MB"),
            "setup_s": (statistics.median(setups), "s"),
            "ops_ok_frac": ((attempted - failed) / attempted, "frac"),
            "checks_passed_frac": (checks_passed / checks_total, "frac"),
        }
    else:
        traced_passes = [p for traced, p in passes if traced]
        rows = []
        for p in traced_passes:
            t = p["trace"]
            wall = sum(op["t"] for op in p["ops"])
            # "bench" is the tracer's bucket for op time outside every wrapper
            t["coverage"] = sum(v for k, v in t["self_s"].items() if k != "bench") / wall
            t["counts"]["verification.checks_failed"] = sum(
                sum(v.values()) for v in p["verify_failed"].values()
            )
            t["counts"]["cli.bytes_out"] = p["bytes_out"]
            rows.append((t, p))
        metrics = {}
        for name, unit, fn in LAYER_METRICS:
            if unit == "s":
                metrics[name] = (median_of(rows, lambda r: scaled(fn(r[0]), r[1])), unit)
            else:
                metrics[name] = (median_of(rows, lambda r: fn(r[0])), unit)
        overhead = pass_time(traced_passes) / pass_time(plain) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "frac")
        detail["self_s_raw"] = rows[len(rows) // 2][0]["self_s"]
        detail["calls"] = rows[len(rows) // 2][0]["calls"]
        detail["verify_failed_by_check"] = traced_passes[0]["verify_failed"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


# -- ROADMAP baselines ------------------------------------------------------
def baselines(src: str) -> int:
    """Re-measure the one-off timings quoted in ROADMAP.md item 1.

    Each reading is printed raw and in reference seconds, scaled by the
    reference kernel timed just before and after it.
    """
    os.environ.update(blas_env())  # before numpy is first imported
    sys.path.insert(0, src)
    import numpy as np
    import scipy
    from scipy.linalg import eigh_tridiagonal

    import opmaj
    from worker import reference_kernel  # perfbench/ is sys.path[0] for this script

    def timed(fn, repeat=1):
        refs = [reference_kernel() for _ in range(5)]
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        refs += [reference_kernel() for _ in range(5)]
        raw = statistics.median(times)
        return raw, raw * REF_S / statistics.fmean(refs)

    rows = []
    for family in ("legendre", "laguerre"):
        scheme = opmaj.classical_scheme(family, 62)
        rows.append((f"verify_scheme {family} n_max=60 (cold)", 1.19,
                     timed(lambda: opmaj.verify_scheme(scheme, 60))))
    J = opmaj.jacobi_matrix(opmaj.classical_scheme("legendre", 800), 800)
    rows.append(("stev eigensolve legendre n=800 (median of 3)", 1.24,
                 timed(lambda: eigh_tridiagonal(J.diag, J.offdiag, lapack_driver="stev"), 3)))
    s300 = opmaj.classical_scheme("legendre", 300)
    rows.append(("all-k matrix_C sweep legendre n=300 (cold)", 8.4,
                 timed(lambda: [opmaj.matrix_C(s300, 300, k) for k in range(1, 301)])))
    info = {**machine(), "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}
    print(json.dumps(info))
    for name, quoted, (raw, ref) in rows:
        print(f"{name:48s} ROADMAP {quoted:6.2f} s  here {raw:6.2f} s "
              f"({ref:6.2f} reference s)  ratio {raw / quoted:5.2f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baselines", action="store_true",
                        help="re-measure the ROADMAP item-1 timings instead")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so that a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    src = source_root()
    if src is None:
        return fail("no ./src/opmaj here; run from the root of an opmaj checkout")
    if args.baselines:
        return baselines(src)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), src)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(str(exc))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
