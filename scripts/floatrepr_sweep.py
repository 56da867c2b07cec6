#!/usr/bin/env python3
"""Sweep the float kernel against ``float.__repr__``, float by float.

Three streams go through ``opmaj._floatrepr.chunks`` and are compared with
the standard library's ``repr`` of each float:

* ``random``: ``--count`` seeded random 64-bit patterns (nan and inf among
  them), from ``numpy.random.default_rng(--seed)``;
* ``edges``: every power of two and every power of ten in float64, each with
  the 50 doubles on either side, both signs;
* ``subnormals``: the first 2,000,000 positive subnormals.

The script prints one line per stream and exits 0 when every float matches.
At the first float that differs it prints that float's bits and value in
hex, the kernel's text and ``repr``'s, and exits 1.

Example:
    PYTHONPATH=src python scripts/floatrepr_sweep.py --count 10000000 --seed 1
"""
import argparse
import sys
import time
from itertools import zip_longest

import numpy as np

from opmaj._floatrepr import chunks

BATCH = 1 << 18
ULPS = 50
SUBNORMALS = 2_000_000


def random_batches(count, seed):
    rng = np.random.default_rng(seed)
    for start in range(0, count, BATCH):
        yield rng.integers(0, 2**64, min(BATCH, count - start), dtype=np.uint64)


def edge_batches():
    powers = [2.0**e for e in range(-1074, 1024)]
    powers += [float(f"1e{p}") for p in range(-323, 309)]
    centres = np.array(powers).view(np.uint64)
    bits = (centres[:, None] + np.arange(-ULPS, ULPS + 1, dtype=np.int64).astype(np.uint64)).ravel()
    bits = bits[bits < np.uint64(0x7FF0000000000000)]  # nothing past the largest double
    yield np.concatenate([bits, bits | np.uint64(1 << 63)])


def subnormal_batches():
    for start in range(1, SUBNORMALS + 1, BATCH):
        yield np.arange(start, min(start + BATCH, SUBNORMALS + 1), dtype=np.uint64)


def first_mismatch(bits, text):
    """(bits, kernel text, repr) of the first float whose text in ``text`` (one float
    a line) differs from its ``repr``, or None."""
    expected = "\n".join(map(float.__repr__, bits.view(np.float64).tolist()))
    if text == expected:
        return None
    lines = zip_longest(text.split("\n"), expected.split("\n"), fillvalue="")
    for i, (got, want) in enumerate(lines):
        if got != want:  # an extra line of the kernel's is charged to the last float
            return int(bits[min(i, bits.size - 1)]), got, want


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10_000_000, help="random bit patterns")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.count < 0:
        parser.error("--count must be >= 0")

    streams = [
        ("random", random_batches(args.count, args.seed)),
        ("edges", edge_batches()),
        ("subnormals", subnormal_batches()),
    ]
    for name, batches in streams:
        began, checked = time.perf_counter(), 0
        for bits in batches:
            text = "".join(chunks(bits.view(np.float64)[:, None], "", "\n"))
            bad = first_mismatch(bits, text)
            if bad is not None:
                pattern, got, want = bad
                value = np.uint64(pattern).view(np.float64).item()
                print(f"{name}: mismatch at bits 0x{pattern:016x} ({value.hex()}): "
                      f"kernel {got!r}, repr {want!r}")
                sys.exit(1)
            checked += bits.size
        print(f"{name}: {checked} floats match repr ({time.perf_counter() - began:.1f} s)")


if __name__ == "__main__":
    main()
