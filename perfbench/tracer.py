"""Per-layer self time and counts for opmaj, measured from outside the package.

``install`` wraps every public function of every loaded ``opmaj`` module at
each module namespace that
binds it (modules bind imported names at import time, so patching only the
defining module would miss most calls).  Each wrapper charges the time since
the previous span boundary to the bucket that was running, which makes a
bucket's total its self time: its spans minus their child spans.  No stack
object is kept; the caller's bucket lives in the wrapper's local frame.
The public methods of ``RecurrenceScheme`` (the coefficient accessors) are
counted on every call and timed on a sample of calls, to keep overhead low.

Time inside a timed op that no wrapper covers is charged to ``ROOT``, so
``coverage`` (covered self time over op wall time) shows how much of the
pass the buckets explain.
"""
from __future__ import annotations

import sys
import time
import weakref

import numpy as np

ROOT = "bench"

# Bucket of each public function, keyed by defining module and name.  A
# public function missing here (added by a later change) still gets a span,
# in the bucket "<module>.other", so coverage stays honest.
BUCKETS = {
    "recurrence": {
        "classical_scheme": "recurrence.scheme",
        "from_sequences": "recurrence.scheme",
        "shifted": "recurrence.scheme",
    },
    "spectra": {
        "jacobi_matrix": "spectra.jacobi",
        "delete_row_col": "spectra.jacobi",
        "eigen_decompose": "spectra.eig",
        "scheme_spectral": "spectra.cache",
    },
    "orthopoly": {
        "eval_all": "orthopoly.eval",
        "leading_coefficient": "orthopoly.eval",
        "christoffel_numbers_formula": "orthopoly.quad",
        "gauss_rule": "orthopoly.quad",
        "gauss_quadrature": "orthopoly.quad",
        "jacobi_power_moment": "orthopoly.quad",
        "spectral_spot_points": "orthopoly.quad",
        "associated_spectral": "orthopoly.assoc",
    },
    "majorization": {
        "matrix_A": "majorization.matrix",
        "matrix_B": "majorization.matrix",
        "matrix_C": "majorization.matrix",
        "check_doubly_stochastic": "majorization.check",
        "check_majorization": "majorization.check",
        "convex_report": "majorization.check",
        "trace_identities": "majorization.check",
    },
    "verification": {"verify_scheme": "verification"},
    "cli": {"main": "cli", "run": "cli", "load_custom_scheme": "cli"},
}
COEFF_BUCKET = "recurrence.coeff"
SAMPLE_PERIOD = 7  # coefficient accessors: time one call in this many

# Cached spectral entry points: (module, name) -> counter prefix.
CACHED = {
    ("spectra", "scheme_spectral"): "spectra.cache",
    ("orthopoly", "associated_spectral"): "orthopoly.assoc",
}


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


class Tracer:
    """Self time and call count per bucket, plus the layer counters.

    Counters that are not call counts: ``spectra.eig_order3_sum`` (sum of
    order**3 over eigensolves), ``majorization.entries`` (sum of n**2 over
    constructed matrices), ``verification.cases`` (verify outcomes returned),
    and hit/miss counts of the cached spectral entry
    points.  A cached call is derived to be a miss when an eigensolve ran
    inside it.
    """

    def __init__(self):
        self.self_s: dict[str, float] = {ROOT: 0.0}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {
            "spectra.eig_order3_sum": 0,
            "majorization.entries": 0,
            "verification.cases": 0,
        }
        self._state = [ROOT, 0.0]  # running bucket, time of last boundary
        self._held = weakref.WeakValueDictionary()  # id -> cached result
        self.cache_objects: dict[str, object] = {}  # prefix -> lru object

    # -- timing ---------------------------------------------------------
    def begin(self) -> float:
        now = time.perf_counter()
        self._state[0] = ROOT
        self._state[1] = now
        return now

    def end(self) -> float:
        now = time.perf_counter()
        self.self_s[ROOT] += now - self._state[1]
        self._state[1] = now
        return now

    def snapshot(self):
        return (dict(self.self_s), dict(self.calls), dict(self.counts))

    def restore(self, snap):
        """Forget everything recorded since ``snap`` (used around output checks).

        The dicts are refilled in place because the wrappers close over them.
        """
        for target, saved in zip((self.self_s, self.calls, self.counts), snap):
            target.clear()
            target.update(saved)
        self.begin()

    def held_mb(self) -> float:
        """Megabytes of cached spectral arrays that are still alive."""
        return sum(_array_bytes(o) for o in list(self._held.values())) / 1e6

    # -- wrappers -------------------------------------------------------
    def _span(self, fn, bucket, after=None):
        state, self_s, calls = self._state, self.self_s, self.calls
        pc = time.perf_counter
        self_s.setdefault(bucket, 0.0)
        calls.setdefault(bucket, 0)

        def wrapper(*args, **kwargs):
            now = pc()
            prev = state[0]
            self_s[prev] += now - state[1]
            state[0] = bucket
            state[1] = now
            calls[bucket] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                now = pc()
                self_s[bucket] += now - state[1]
                state[0] = prev
                state[1] = now
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _sampled_leaf(self, fn, bucket, period=SAMPLE_PERIOD):
        """Counting wrapper for hot leaf calls that times one call in ``period``.

        The coefficient accessors run about 10^5 times per family at well
        under a microsecond each, so timing every call would distort the
        pass.  Every call is counted; every ``period``-th call is timed and
        its time, scaled by ``period``, is moved from the caller's bucket to
        this one (by advancing the caller's last boundary).
        """
        state, self_s, calls = self._state, self.self_s, self.calls
        pc = time.perf_counter
        self_s.setdefault(bucket, 0.0)
        calls.setdefault(bucket, 0)

        def wrapper(*args, **kwargs):
            count = calls[bucket] + 1
            calls[bucket] = count
            if count % period:
                return fn(*args, **kwargs)
            t0 = pc()
            result = fn(*args, **kwargs)
            estimate = (pc() - t0) * period
            self_s[bucket] += estimate
            state[1] += estimate
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _cached_span(self, fn, bucket, prefix):
        """Span around a cached entry point that also derives hit or miss."""
        calls, counts, held = self.calls, self.counts, self._held
        inner = self._span(fn, bucket)
        hits, misses = prefix + "_hits", prefix + "_misses"
        counts.setdefault(hits, 0)
        counts.setdefault(misses, 0)

        def wrapper(*args, **kwargs):
            before = calls.get("spectra.eig", 0)
            result = inner(*args, **kwargs)
            counts[misses if calls.get("spectra.eig", 0) > before else hits] += 1
            held[id(result)] = result
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_eig(self, result):
        self.counts["spectra.eig_order3_sum"] += int(result.order) ** 3

    def _after_matrix(self, result):
        self.counts["majorization.entries"] += int(result.n) ** 2

    def _after_verify(self, result):
        self.counts["verification.cases"] += len(result)

    def install(self):
        """Wrap opmaj's public callables everywhere they are bound."""
        self.begin()
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("opmaj.") and mod is not None
        }
        after = {
            "spectra.eig": self._after_eig,
            "majorization.matrix": self._after_matrix,
            "verification": self._after_verify,
        }
        replace: dict[int, object] = {}
        for short, mod in mods.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # re-export; wrapped where it is defined
                bucket = BUCKETS.get(short, {}).get(name, f"{short}.other")
                if (short, name) in CACHED:
                    prefix = CACHED[(short, name)]
                    self.cache_objects[prefix] = obj
                    wrapper = self._cached_span(obj, bucket, prefix)
                else:
                    wrapper = self._span(obj, bucket, after.get(bucket))
                replace[id(obj)] = (obj, wrapper)
        for mod in [*mods.values(), sys.modules["opmaj"]]:
            ns = vars(mod)
            for name, value in list(ns.items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[name] = hit[1]
        scheme_cls = sys.modules["opmaj.recurrence"].RecurrenceScheme
        for name, value in list(vars(scheme_cls).items()):
            if not name.startswith("_") and callable(value) and not isinstance(value, type):
                setattr(scheme_cls, name, self._sampled_leaf(value, COEFF_BUCKET))
