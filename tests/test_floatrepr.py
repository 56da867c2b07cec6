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


def floor_log(base: int, x: Fraction) -> int:
    """floor(log_base x), exactly."""
    bits = x.numerator.bit_length() - x.denominator.bit_length()
    m = math.floor(bits * math.log(2) / math.log(base))  # within one or two of it
    while Fraction(base) ** m > x:
        m -= 1
    while Fraction(base) ** (m + 1) <= x:
        m += 1
    return m


def cache_entry(k: int) -> int:
    i = k - _floatrepr._K_MIN
    return (int(_floatrepr._HI[i]) << 64) | int(_floatrepr._LO[i])


def test_cache_entries_are_powers_of_ten_rounded_up():
    # each 128-bit entry is ceil(10**k 2**(127 - floor(k log2 10))), so that it
    # lies in [2**127, 2**128): Dragonbox's tables, which its proofs assume
    for k in range(_floatrepr._K_MIN, _floatrepr._K_MAX + 1):
        scaled = Fraction(10) ** k * Fraction(2) ** (127 - floor_log(2, Fraction(10) ** k))
        c = cache_entry(k)
        assert c - 1 < scaled <= c, k
        assert 2**127 <= c < 2**128, k


def test_integer_logs_are_exact_and_beta_fits_the_limb_products():
    # e runs over every binary exponent of a double (value fc * 2**e); k over
    # every cache index; each integer estimate is the exact floor
    for e in range(-1074, 972):
        two_e = Fraction(2) ** e
        assert _floatrepr._floor_log10_pow2(e) == floor_log(10, two_e), e
        shorter = _floatrepr._floor_log10_pow2_minus_log10_4_over_3(e)
        assert shorter == floor_log(10, two_e * Fraction(3, 4)), e
    for k in range(_floatrepr._K_MIN, _floatrepr._K_MAX + 1):
        assert _floatrepr._floor_log2_pow10(k) == floor_log(2, Fraction(10) ** k), k
    # beta in 1..9 keeps (2 fc + 1) << beta below 2**63, as _product needs, and
    # the parity shifts 64 - beta inside a word; delta stays in 100..999; the
    # shorter interval shifts right by 10 - beta and 11 - beta
    for e in range(-1074, 972):
        minus_k = _floatrepr._floor_log10_pow2(e) - 2
        assert _floatrepr._K_MIN <= -minus_k <= _floatrepr._K_MAX
        beta = e + _floatrepr._floor_log2_pow10(-minus_k)
        assert 6 <= beta <= 9, e
        assert (2 * (2**53 - 1) + 1) << beta < 2**63
        assert 100 <= cache_entry(-minus_k) >> (127 - beta) < 1000, e
    for e in range(-1073, 972):
        minus_k = _floatrepr._floor_log10_pow2_minus_log10_4_over_3(e)
        assert _floatrepr._K_MIN <= -minus_k <= _floatrepr._K_MAX
        assert 0 <= e + _floatrepr._floor_log2_pow10(-minus_k) <= 10, e


def parity_reference(two_f: int, c: int, beta: int) -> tuple[bool, bool]:
    """Dragonbox's compute_mul_parity on Python ints: of the 192-bit product
    two_f * c, bit 128 - beta (the parity of y = two_f * c / 2**(128 - beta)) and
    whether its 64 bits 64 - beta .. 127 - beta, the top of y's fraction, are zero."""
    product = two_f * c
    return bool(product >> (128 - beta) & 1), (product >> (64 - beta)) % 2**64 == 0


def test_parity_reads_the_fraction_window_of_both_limb_products():
    # seeded random inputs, then crafted ones (odd two_f, c solved modulo
    # 2**(128 - beta)) whose window is zero in bits 64..127 - beta and set,
    # or not, only in bits 64 - beta..63, which the low product two_f * lo holds
    rng = np.random.default_rng(20261021)
    cases = []
    for _ in range(2000):
        two_f = int(rng.integers(0, 2**63, dtype=np.uint64))
        c = int(rng.integers(0, 2**64, dtype=np.uint64)) << 64
        cases.append((two_f, c | int(rng.integers(0, 2**64, dtype=np.uint64)),
                      int(rng.integers(1, 10))))
    for _ in range(2000):
        two_f = int(rng.integers(0, 2**62, dtype=np.uint64)) * 2 + 1
        beta = int(rng.integers(1, 10))
        low = int(rng.integers(0, 2**(64 - beta), dtype=np.uint64))
        window = int(rng.integers(0, 2**beta)) << (64 - beta)  # 0 in one case of 2**beta
        top = int(rng.integers(0, 2**beta)) << (128 - beta)
        c = (window | low) * pow(two_f, -1, 2 ** (128 - beta)) % 2 ** (128 - beta) | top
        assert (two_f * c) % 2 ** (128 - beta) == window | low
        cases.append((two_f, c, beta))
    two_f, c, beta = zip(*cases)
    parity, integer = _floatrepr._parity(
        np.array(two_f, dtype=np.uint64), np.array([v >> 64 for v in c], dtype=np.uint64),
        np.array([v % 2**64 for v in c], dtype=np.uint64), np.array(beta, dtype=np.uint64),
    )
    expected = [parity_reference(*case) for case in cases]
    assert list(zip(parity.tolist(), integer.tolist())) == expected
    # both verdicts of each kind occur, and the low product decides some
    assert set(expected) == {(p, i) for p in (False, True) for i in (False, True)}
    assert sum(i for _, i in expected[2000:]) > 100


def digit_path(v: float) -> str:
    """The branch of the digit step that the double v > 0 takes, from exact integers:
    'shorter', 'excluded' (the right end of an odd significand), 'big' (the larger
    divisor), 'tie' (r = delta), 'divisible' (the remainder divisible by 100), 'small'."""
    bits = int(np.float64(v).view(np.uint64))
    t, bq = bits & (2**52 - 1), bits >> 52
    if t == 0 and bq > 1:
        return "shorter"
    fc, e = (t | 2**52, bq - 1075) if bq else (t, -1074)
    minus_k = _floatrepr._floor_log10_pow2(e) - 2
    beta = e + _floatrepr._floor_log2_pow10(-minus_k)
    c = cache_entry(-minus_k)
    product = ((2 * fc + 1) << beta) * c
    r, delta = (product >> 128) % 1000, c >> (127 - beta)
    if r == 0 and (product >> 64) % 2**64 == 0 and fc % 2:
        return "excluded"
    if r != delta:
        return "big" if r < delta else "divisible" if (r - delta // 2 + 50) % 100 == 0 else "small"
    return "tie"


NAMED_PATHS = {
    "tie": [float.fromhex("0x1.a57d9c4c8cc18p-9"), float.fromhex("0x1.3ce55937f2ce1p+55"),
            float.fromhex("0x1.dac2dfc537100p-663"), float.fromhex("0x1.f8e65ed35d1fap+54"),
            float.fromhex("0x1.2a67d986f888bp-31"), float.fromhex("0x1.771e89d373159p+716")],
    "divisible": [1974014629615873.8, 1.2626677441508306e-246,
                  float.fromhex("0x1.8f46928cc8ae8p+46"), float.fromhex("0x1.f15701cc92bb2p-834")],
    # odd significands whose right end 10 * m is excluded: 2**54 + 4 is not 1.801439850948199e16
    "excluded": [4.0 * (2**52 + 1 + 10 * j) for j in range(3)] + [4611686018427839488.0],
    # 2**-25 is halfway between its two shortest decimals; 2**54 and 2**55
    # have integer left ends, which the kernel excludes and repr includes:
    # 2**54 has no shorter decimal in its interval and 2**55 one above its left end
    "shorter": [2.0**-25, 2.0**54, 2.0**55, 2.0**-77, 2.0**56],
}


@pytest.mark.parametrize("path", sorted(NAMED_PATHS))
def test_named_paths_of_the_digit_step(path):
    values = NAMED_PATHS[path]
    assert [digit_path(v) for v in values] == [path] * len(values)
    assert_matches(values + [-v for v in values])


@pytest.mark.parametrize("k", [1, 100])
@pytest.mark.parametrize(
    "family, params",
    [("legendre", {}), ("laguerre", {}), ("hermite", {}), ("chebyshev-t", {}),
     ("jacobi", {"alpha": 2, "beta": 0.5})],
)
def test_certificate_blocks(family, params, k):
    # real certificates mix positional rows (entries >= 1e-4) into chunks
    # that are mostly exponent form, with cli's JSON separators
    from opmaj import classical_scheme, matrix_C

    entries = matrix_C(classical_scheme(family, 202, **params), 200, k).entries
    assert 0 < np.count_nonzero(entries >= 1e-4) < entries.size / 2
    seps = ",\n        ", "\n      ],\n      [\n        "
    assert join_rows(entries, *seps) == reference(entries, *seps)
