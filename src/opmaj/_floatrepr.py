"""``float.__repr__`` over whole float64 arrays, byte for byte.

``chunks(block, sep, row_break)`` yields the text of a block CHUNK floats at
a time; their join is exactly
``row_break.join(sep.join(map(float.__repr__, row)) for row in block)``.

Digits: Dragonbox (J. Jeon, "Dragonbox: A New Floating-Point
Binary-to-Decimal Conversion Algorithm", 2020) with the nearest-to-even
interval and ties to even, kappa = 2: the shortest decimal that rounds back
to the double and, of several, the closest to it, with ties to an even last
digit; this is what Python's ``repr`` prints.  One 64 x 128-bit product per
float, on uint64 halves of 32 bits, gives the digits on the common path;
the two parity products run only on the lanes that need them (r = delta,
and a small-divisor remainder divisible by 100), and the powers of two
(t = 0 above the smallest binade) take the shorter-interval case on their
own subset.  Trailing zeros are not removed here: the layout drops them.

Layout: Python's ``'r'`` rules, exponent form iff the decimal point position
``decpt`` (value = 0.DIGITS x 10**decpt) is <= -4 or > 16, at least two
exponent digits and ``.0`` on integral values.  Each float gets a row of a
uint8 buffer, a fixed-width field and then its separator, with zero bytes
for the digits past the shortest form and for the padding.  Every row is
first written in exponent form, straight into the buffer: the sign, the
first digit and the point in word 0, the other 16 digits in words 1..4, the
exponent after them.  The positional, inf and nan rows are then overwritten
from one template per layout class (a list of source columns).  One
``bytes.translate`` drops the zero bytes of bodies and separators together.
"""
from __future__ import annotations

import numpy as np

CHUNK = 4096  # floats per pass: about 1 MB of temporaries; a pass has a fixed cost

_K_MIN, _K_MAX = -292, 326  # the powers of ten that scale some double's interval
_U = np.uint64
_M32 = _U(0xFFFFFFFF)


def _floor_log10_pow2(e):
    """floor(e log10 2), exact for |e| <= 2620."""
    return (e * 315653) >> 20


def _floor_log2_pow10(k):
    """floor(k log2 10), exact for |k| <= 1233."""
    return (k * 1741647) >> 19


def _floor_log10_pow2_minus_log10_4_over_3(e):
    """floor(e log10 2 - log10(4/3)), exact for |e| <= 2936."""
    return (e * 631305 - 261663) >> 21


def _cache() -> tuple[np.ndarray, np.ndarray]:
    """ceil(10**k * 2**(127 - floor(k log2 10))) in [2**127, 2**128) for each k of
    _K_MIN.._K_MAX, as its high and low 64 bits."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 127 - _floor_log2_pow10(k)
        if k < 0:
            c = -(-(1 << shift) // 10**-k)
        else:
            c = 10**k << shift if shift >= 0 else -(-(10**k) >> -shift)
        hi.append(c >> 64)
        lo.append(c & 0xFFFFFFFFFFFFFFFF)
    return np.array(hi, dtype=np.uint64), np.array(lo, dtype=np.uint64)


_HI, _LO = _cache()
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_V = np.arange(10000, dtype=np.uint16)
# 4-digit groups as packed ASCII: _QUAD[v] holds the bytes of f"{v:04d}"
_QUAD = (_V[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48).astype(np.uint8)
_QUAD = _QUAD.view(np.uint32)[:, 0]
# _ENDS[i][v]: 1 + the index of the last nonzero digit of 4-digit group i holding v
# (group 0 holds d_0 alone, group i > 0 digits 4i - 3 .. 4i), 0 if v is 0
_SIGNIFICANT = 4 - sum(_V % 10**j == 0 for j in range(1, 5))
_ENDS = [
    np.where(_V > 0, np.maximum(4 * i - 3 + _SIGNIFICANT, 0), 0).astype(np.uint8) for i in range(5)
]
# _KEEP[i][n]: the byte mask of word i of "000" d_0 .. d_16 that keeps digits d_0 .. d_{n-1}
_KEEP = np.where(np.arange(20) - 3 < np.arange(18)[:, None], 255, 0).astype(np.uint8)
_KEEP = _KEEP.view(np.uint32).T.copy()

# the exponent-form row: word 0 is (padding, sign, d_0, point), words 1..4 are d_1 .. d_16,
# then "e", the exponent's sign and its three digits, the hundreds blank below 100
_FIELD = 25  # len("-2.2250738585072014e-308") and the padding byte
# _HEAD[2 * (10 * negative + d_0) + (more than one digit)]: word 0
_HEAD = np.array(
    [[0, sign, 48 + d, dot] for sign in (0, ord("-")) for d in range(10) for dot in (0, ord("."))],
    dtype=np.uint8,
).view(np.uint32)[:, 0]
_E_MIN = -324  # the least decimal exponent of a double
# the exponent e's five bytes as _E_WORD[e - _E_MIN] (columns 20..23) and _E_LAST[e - _E_MIN]
_EXP = np.arange(_E_MIN, 309)
_E_TEXT = np.empty((_EXP.size, 5), dtype=np.uint8)
_E_TEXT[:, :2] = ord("e"), ord("+")
_E_TEXT[_EXP < 0, 1] = ord("-")
_E_TEXT[:, 2:] = abs(_EXP)[:, None] // [100, 10, 1] % 10 + 48
_E_TEXT[abs(_EXP) < 100, 2] = 0  # two exponent digits at least
_E_WORD, _E_LAST = _E_TEXT[:, :4].copy().view(np.uint32)[:, 0], _E_TEXT[:, 4].copy()

# columns of the source rows that positional, inf and nan templates read
_PAD, _SIGN, _ZERO, _DOT = 0, 1, 2, 3
_DIG = 7  # digits d_0..d_16 at columns 7..23 (4..6 are '0' from the first group)
_I, _N, _F, _A = 24, 25, 26, 27
_SRC_WIDTH = 28
_INF, _NAN = 20, 21  # keys 0..19 are decpt -3..16 in positional form


def _templates() -> np.ndarray:
    rows = []
    for decpt in range(-3, 17):
        if decpt > 0:
            cols = [_SIGN, *range(_DIG, _DIG + decpt), _DOT, *range(_DIG + decpt, _DIG + 17)]
        else:
            cols = [_SIGN, _ZERO, _DOT, *[_ZERO] * -decpt, *range(_DIG, _DIG + 17)]
        rows.append(cols)
    rows.append([_SIGN, _I, _N, _F])
    rows.append([_N, _A, _N])
    return np.array([cols + [_PAD] * (_FIELD - len(cols)) for cols in rows], dtype=np.intp)


_TEMPLATES = _templates()
_LITERALS = np.zeros(_SRC_WIDTH, dtype=np.uint8)
for _col, _ch in ((_ZERO, "0"), (_DOT, "."), (_I, "i"), (_N, "n"), (_F, "f"), (_A, "a")):
    _LITERALS[_col] = ord(_ch)


def _product(u, hi, lo):
    """(z, w): the top 64 bits of u * c, c = hi * 2**64 + lo, and the 64 below them,
    for u < 2**63: the 192-bit product on 32-bit limbs, none of whose sums wrap."""
    u1, u0 = u >> _U(32), u & _M32

    def mulhi(b):  # the high 64 bits of u * b
        b1, b0 = b >> _U(32), b & _M32
        m1 = u1 * b0 + ((u0 * b0) >> _U(32))  # < 2**63 + 2**32, as u1 < 2**31
        m2 = u0 * b1 + (m1 & _M32)
        return u1 * b1 + (m1 >> _U(32)) + (m2 >> _U(32))

    low = u * hi  # wraps: the low half of u * hi
    w = low + mulhi(lo)
    return mulhi(hi) + (w < low), w


def _parity(two_f, hi, lo, beta):
    """(parity, integer): of y = two_f * c / 2**(128 - beta), the lowest bit of its
    integer part, and whether the top 64 bits of its fraction (bits 64 - beta ..
    127 - beta of the product, which ``two_f * lo`` reaches) are zero, the window
    Dragonbox's compute_mul_parity reads as "y is an integer"."""
    _, w = _product(two_f, hi, lo)
    low = two_f * lo
    parity = (w >> (_U(64) - beta)) & _U(1) == 1
    return parity, ((w << beta) | (low >> (_U(64) - beta))) == 0


def _shortest(t: np.ndarray, bq: np.ndarray):
    """(f, k): the shortest closest decimal f * 10**k of each double from its fraction
    bits ``t`` and biased exponent ``bq``; meaningless for inf, nan and 0.0.
    ``f`` may end in zeros."""
    bq = bq.astype(np.int64)
    normal = bq != 0
    fc = np.where(normal, t | _U(1 << 52), t)
    e = np.where(normal, bq - 1075, -1074)  # the double is fc * 2**e
    minus_k = _floor_log10_pow2(e) - 2
    beta = (e + _floor_log2_pow10(-minus_k)).astype(np.uint64)  # in 6..9
    hi, lo = _HI[-minus_k - _K_MIN], _LO[-minus_k - _K_MIN]
    two_fc = fc << _U(1)
    even = (fc & _U(1)) == 0  # an even significand includes the ends of its interval
    # z: the right end of the interval in units of 10**(minus_k); delta: its width
    z, w = _product((two_fc | _U(1)) << beta, hi, lo)
    delta = hi >> (_U(63) - beta)  # in 100..999
    q = z // _U(1000)
    r = z - q * _U(1000)
    big = r < delta  # q * 1000 is in the interval, unless it is the excluded right end
    excluded = (r == 0) & (w == 0) & ~even
    big &= ~excluded
    q -= excluded
    r[excluded] = 1000
    tie = np.flatnonzero(r == delta)  # then q * 1000 is the left end: compare fractions
    if tie.size:
        parity, integer = _parity(two_fc[tie] - _U(1), hi[tie], lo[tie], beta[tie])
        big[tie] = parity | (integer & even[tie])
    # else the decimal of 10**(minus_k + 2) units nearest the double: y rounded up,
    # or one less when y's fraction is below the approximation's (told by parity)
    dist = r - (delta >> _U(1)) + _U(50)
    d = dist // _U(100)
    f = np.where(big, q, q * _U(10) + d)
    check = np.flatnonzero((dist == d * _U(100)) & ~big)
    if check.size:
        parity, integer = _parity(two_fc[check], hi[check], lo[check], beta[check])
        s = f[check]
        f[check] = s - ((parity != (dist[check] & _U(1) == 1)) | (integer & (s & _U(1) == 1)))
    k = minus_k + 2 + big
    # powers of two above the first binade: the gap below is half the gap above
    shorter = np.flatnonzero((t == 0) & (bq > 1))
    if shorter.size:
        e = e[shorter]
        minus_k = _floor_log10_pow2_minus_log10_4_over_3(e)
        beta = (e + _floor_log2_pow10(-minus_k)).astype(np.uint64)
        hi = _HI[-minus_k - _K_MIN]
        # the least integer above the left end: Dragonbox includes the left end of
        # 2**54 and 2**55, which is an integer, but neither's digits depend on it
        xi = ((hi - (hi >> _U(54))) >> (_U(11) - beta)) + _U(1)
        zi = (hi + (hi >> _U(53))) >> (_U(11) - beta)
        s = zi // _U(10)
        short = s * _U(10) >= xi
        y = ((hi >> (_U(10) - beta)) + _U(1)) >> _U(1)  # y rounded up
        tie = (e == -77) & (y & _U(1) == 1)  # 2**-25 is the one halfway case
        y = np.where(tie, y - _U(1), y + (y < xi))
        f[shorter] = np.where(short, s, y)
        k[shorter] = minus_k + short
    return f, k


def _format(x: np.ndarray, width: int) -> np.ndarray:
    """A uint8 buffer of ``width`` columns, a multiple of 4, the repr of each float of
    ``x`` in its first _FIELD; the columns past them are left for the separators."""
    bits = x.view(np.uint64)
    t, bq = bits & _U((1 << 52) - 1), (bits >> _U(52)) & _U(0x7FF)
    f, k = _shortest(t, bq)
    special = bq == 0x7FF
    blank = ((bq == 0) & (t == 0)) | special
    f[blank] = 0  # 0.0 is written with one digit 0 before the point
    k[blank] = 1
    ndig = np.searchsorted(_POW10, f, side="right")  # digits of f (0 for 0.0)
    f *= _POW10[17 - ndig]  # 17 digits, zeros last
    decpt = k + ndig
    # 4-digit groups as indices: d_0, then d_1..d_4, d_5..d_8, d_9..d_12, d_13..d_16
    hi = f // _U(10**8)
    lo = (f - hi * _U(10**8)).astype(np.intp)
    hi = hi.astype(np.intp)
    a, b = hi // 10000, lo // 10000
    d0 = a // 10000
    groups = d0, a - d0 * 10000, hi - a * 10000, b, lo - b * 10000
    nd = _ENDS[0][d0]  # significant digits, at least one
    for group, ends in zip(groups[1:], _ENDS[1:]):
        np.maximum(nd, ends[group], out=nd)
    nd = nd.astype(np.intp)

    buf = np.empty((len(x), width), dtype=np.uint8)
    words = buf.view(np.uint32)
    negative = np.signbit(x)
    words[:, 0] = _HEAD[(negative * 10 + d0) * 2 + (nd > 1)]
    for i in range(1, 5):
        words[:, i] = _QUAD[groups[i]] & _KEEP[i][nd]
    e = decpt - (_E_MIN + 1)
    words[:, 5] = _E_WORD[e]
    buf[:, 24] = _E_LAST[e]

    rows = np.flatnonzero(((decpt > -4) & (decpt <= 16)) | special)
    if rows.size:
        _positional(buf, rows, groups, nd, decpt, negative, special, t)
    return buf


def _positional(buf, rows, groups, nd, decpt, negative, special, t):
    src = np.empty((rows.size, _SRC_WIDTH), dtype=np.uint8)
    src[:] = _LITERALS
    src_words = src.view(np.uint32)  # columns 4..23 are words 1..5: "000" and 17 digits
    decpt = decpt[rows]
    keep = np.maximum(nd[rows], decpt + 1)  # digits written
    for i, group in enumerate(groups):
        src_words[:, 1 + i] = _QUAD[group[rows]] & _KEEP[i][keep]
    src[:, _SIGN] = np.where(negative[rows], ord("-"), 0)
    key = decpt + 3
    special = special[rows]
    key[special] = np.where(t[rows][special] == 0, _INF, _NAN)
    for cls in np.flatnonzero(np.bincount(key, minlength=len(_TEMPLATES))):
        sel = np.flatnonzero(key == cls)
        buf[rows[sel], :_FIELD] = src.take(sel, axis=0)[:, _TEMPLATES[cls]]


def chunks(block: np.ndarray, sep: str, row_break: str):
    """``row_break.join(sep.join(map(float.__repr__, row)) for row in block)``,
    one str per CHUNK floats.

    ``block`` is 2-D float64; ``sep`` and ``row_break`` are ASCII without
    NUL.  Each chunk is formatted when it is asked for, so a consumer that
    writes each one out holds the text of one chunk at a time, whatever the
    shape of the block.  A block without rows yields nothing.
    """
    n_rows, n_cols = block.shape
    if n_rows == 0:
        return
    if n_cols == 0:
        yield row_break * (n_rows - 1)
        return
    flat = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    seps = sep.encode("ascii"), row_break.encode("ascii")
    width = -(-(_FIELD + max(map(len, seps))) // 4) * 4  # whole uint32 words
    sep_row, break_row = (
        np.frombuffer(s.ljust(width - _FIELD, b"\0"), dtype=np.uint8) for s in seps
    )
    for start in range(0, flat.size, CHUNK):
        buf = _format(flat[start:start + CHUNK], width)
        buf[:, _FIELD:] = sep_row
        buf[(n_cols - 1 - start) % n_cols::n_cols, _FIELD:] = break_row
        if start + CHUNK >= flat.size:  # nothing after the last float
            buf[-1, _FIELD:] = 0
        yield buf.tobytes().translate(None, b"\0").decode("ascii")
