"""The vectorized float writer against its reference, ``float.__repr__``."""
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from opmaj import _floatrepr


def join_rows(block, sep, row_break):
    """The kernel's whole text of ``block``: the join of its chunks."""
    return "".join(_floatrepr.chunks(block, sep, row_break))


def reference(block, sep, row_break):
    return row_break.join(sep.join(map(float.__repr__, row)) for row in block.tolist())


def assert_matches(values):
    """The kernel's text of one row equals the reference, naming the first float that differs."""
    values = np.asarray(values, dtype=np.float64)
    got, expected = join_rows(values[None, :], ", ", ""), reference(values[None, :], ", ", "")
    if got != expected:
        pairs = zip(got.split(", "), expected.split(", "), values.tolist())
        bad = [(g, e, v.hex()) for g, e, v in pairs if g != e]
        pytest.fail(f"{len(bad)} floats differ, first (got, repr, hex): {bad[:5]}")


def from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


TINY = 2.2250738585072014e-308  # the smallest normal double
BOUNDARIES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323, 1.5e-323,
    float.fromhex("0x0.fffffffffffffp-1022"),  # the largest subnormal
    TINY, -TINY, math.nextafter(TINY, 0), math.nextafter(TINY, 1),
    2.0**53, math.nextafter(2.0**53, 0), math.nextafter(2.0**53, math.inf),
    1e15, 1e16, 1e17, 9999999999999998.0, 1e-4, 1e-5,
    math.nextafter(1e-4, 0), math.nextafter(1e-4, 1), math.nextafter(1e-5, 0),
    math.nextafter(1e-5, 1), 1.7976931348623157e308, -1.7976931348623157e308,
    math.inf, -math.inf, math.nan, -math.nan, 1.0, -1.0, 0.1, 0.5, 1e22, 1e23, 1e100,
    123456789012345680.0, 0.000123, 1.5, 2.0**-1022, 2.0**-1074 * 3,
]


def test_named_boundaries():
    assert_matches(BOUNDARIES)
    assert join_rows(np.array([[5e-324, 1e-323, -0.0]]), ",", "") == "5e-324,1e-323,-0.0"


def test_one_million_random_bit_patterns():
    rng = np.random.default_rng(20240601)
    for _ in range(4):
        assert_matches(from_bits(rng.integers(0, 2**64, 250_000, dtype=np.uint64)))


def test_every_small_subnormal_and_each_binade_edge():
    # t = 1..20 are where a two-digit minimum would bite; every power of two
    # is a binade edge, where the gap below is half the gap above
    assert_matches(from_bits(np.arange(1, 50_001)))
    powers = [2.0**e for e in range(-1074, 1024)]
    assert_matches(powers + [-p for p in powers] + [math.nextafter(p, 0) for p in powers])


def test_halfway_digits_take_the_even_neighbour():
    # c / 4 with c odd in [2**52, 2**53) lies exactly halfway between two
    # 17-digit decimals, both of which round back to it, and no 16-digit
    # decimal does: repr takes the one with an even last digit
    rng = np.random.default_rng(7)
    values = (rng.integers(2**52, 2**53, 50_000) | 1) / 4.0
    for v in values[:100].tolist():
        exact = Decimal(v).as_tuple().digits
        assert (len(exact), exact[-1], len(repr(v)) - 1) == (18, 5, 17)
    assert_matches(values)
    assert join_rows(np.array([[1125899906842625.25]]), ",", "") == "1125899906842625.2"


def test_integers_and_short_decimals():
    assert_matches([float(i) for i in range(-20_000, 20_000, 3)])
    assert_matches([i / 1000 for i in range(-20_000, 20_000, 7)])
    assert_matches([10.0**e for e in range(-323, 309)] + [-(10.0**e) for e in range(-20, 20)])


@given(st.lists(st.floats(), max_size=50))
@settings(max_examples=300, deadline=None)
def test_hypothesis_floats(values):
    assert_matches(values)


@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6)),
    st.sampled_from([(",", "\r\n"), (",\n  ", "\n],\n[\n  "), ("", "")]),
)
@settings(max_examples=200, deadline=None)
def test_blocks_of_rows(block, seps):
    assert join_rows(block, *seps) == reference(block, *seps)


def test_chunks_split_rows_anywhere(monkeypatch):
    # a block longer than a chunk is written chunk by chunk; row breaks and
    # separators land wherever a chunk boundary falls
    monkeypatch.setattr(_floatrepr, "CHUNK", 7)
    rng = np.random.default_rng(3)
    for shape in [(5, 3), (3, 7), (2, 11), (1, 30), (13, 1)]:
        block = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        assert join_rows(block, ", ", " | ") == reference(block, ", ", " | ")


def floor_log2(x: Fraction) -> int:
    n = x.numerator.bit_length() - x.denominator.bit_length()
    return n if Fraction(2) ** n <= x else n - 1


def test_g_table_brackets_each_power_of_ten():
    # (g - 1) 2**r <= 10**-k < g 2**r with 2**125 <= g < 2**126 for every k
    # of the table, where r + 125 is the kernel's integer floor(log2 10**-k)
    for i, k in enumerate(range(_floatrepr._K_MIN, _floatrepr._K_MAX + 1)):
        g = (int(_floatrepr._G1[i]) << 63) | int(_floatrepr._G0[i])
        assert 2**125 <= g < 2**126
        r = floor_log2(Fraction(10) ** -k) - 125
        assert g - 1 <= Fraction(10) ** -k / Fraction(2) ** r < g
        assert (-k * 913124641741) >> 38 == r + 125


def test_decimal_exponents_are_exact():
    # k = floor(log10 2**q), or floor(log10(3/4 2**q)) below a binade edge,
    # from the kernel's integer products, for every binary exponent q; then
    # the shift h = q + floor(log2 10**-k) + 2 stays in 2..5, so that the
    # shifted significands (below 2**55) stay below 2**60
    for q in range(-1074, 972):
        for irregular in (0, 1) if q > -1074 else (0,):
            k = (q * 661971961083 - irregular * 274743187321) >> 41
            v = Fraction(2) ** q * (Fraction(3, 4) if irregular else 1)
            assert Fraction(10) ** k <= v < Fraction(10) ** (k + 1), (q, irregular)
            assert 2 <= q + ((-k * 913124641741) >> 38) + 2 <= 5

