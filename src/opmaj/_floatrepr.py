"""``float.__repr__`` over whole float64 arrays, byte for byte.

``chunks(block, sep, row_break)`` yields the text of a block CHUNK floats at
a time; their join is exactly
``row_break.join(sep.join(map(float.__repr__, row)) for row in block)``.

Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020), the shortest decimal that rounds back to the double and, of several,
the closest to it, with ties to an even last digit; this is what Python's
``repr`` prints (it is also what Ryu, U. Adams, PLDI 2018, computes).  The
126-bit products run on uint64 halves of 32 bits.  Java's two-digit minimum
is left out: no ``s >= 100`` guard before the one-digit-shorter candidates,
and no ``C_TINY`` scaling of the two smallest subnormals (with it, 5e-324
would print as Java's ``4.9e-324``); tests check every subnormal up to
50,000 ulps against ``repr``.

Layout: Python's ``'r'`` rules, exponent form iff the decimal point position
``decpt`` (value = 0.DIGITS x 10**decpt) is <= -4 or > 16, at least two
exponent digits and ``.0`` on integral values.  Each float gets a row of a
uint8 buffer: a fixed-width field filled from one template per layout class
(a list of source columns: sign, digits, point, exponent), then its
separator; the digits past the shortest form are zero bytes, as is the
padding, and one boolean mask compacts bodies and separators together.
"""
from __future__ import annotations

import numpy as np

CHUNK = 4096  # floats per pass: about 0.8 MB of temporaries; a pass has a fixed cost

_K_MIN, _K_MAX = -324, 292
_M32, _M63 = np.uint64(0xFFFFFFFF), np.uint64((1 << 63) - 1)
_U = np.uint64


def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """g(k) = floor(10**-k / 2**r) + 1 with 2**125 <= g < 2**126, as (g >> 63, g mod 2**63)."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        e = -k
        if e >= 0:  # r = floor(log2 10**e) - 125
            shift = 125 - ((10**e).bit_length() - 1)
            g = (10**e << shift if shift >= 0 else 10**e >> -shift) + 1
        else:
            g = (1 << (125 + (10**-e).bit_length())) // 10**-e + 1
        hi.append(g >> 63)
        lo.append(g & ((1 << 63) - 1))
    return np.array(hi, dtype=np.uint64), np.array(lo, dtype=np.uint64)


_G1, _G0 = _g_table()
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_V = np.arange(10000, dtype=np.uint16)
# 4-digit groups as packed ASCII: _QUAD[v] holds the bytes of f"{v:04d}"
_QUAD = (_V[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48).astype(np.uint8)
_QUAD = _QUAD.view(np.uint32)[:, 0]

# columns of the per-float source rows that templates read
_PAD, _SIGN, _ZERO, _DOT = 0, 1, 2, 3
_DIG = 7  # digits d_0..d_16 at columns 7..23 (4..6 are '0' from the first group)
_EDOT, _E, _ESIGN = 24, 25, 26
_EXP = 29  # exponent digits at 29..31 (hundreds blanked below 100)
_I, _N, _F, _A = 32, 33, 34, 35
_SRC_WIDTH = 36
_FIELD = 24  # len("-2.2250738585072014e-308"), the longest repr
_INF, _NAN = 21, 22  # keys 0..19 are decpt -3..16 in positional form, 20 exponent form


def _templates() -> np.ndarray:
    rows = []
    for decpt in range(-3, 17):
        if decpt > 0:
            cols = [_SIGN, *range(_DIG, _DIG + decpt), _DOT, *range(_DIG + decpt, _DIG + 17)]
        else:
            cols = [_SIGN, _ZERO, _DOT, *[_ZERO] * -decpt, *range(_DIG, _DIG + 17)]
        rows.append(cols)
    rows.append(
        [_SIGN, _DIG, _EDOT, *range(_DIG + 1, _DIG + 17), _E, _ESIGN, *range(_EXP, _EXP + 3)]
    )
    rows.append([_SIGN, _I, _N, _F])
    rows.append([_N, _A, _N])
    return np.array([cols + [_PAD] * (_FIELD - len(cols)) for cols in rows], dtype=np.intp)


_TEMPLATES = _templates()
# _ENDS[i][v]: 1 + the index of the last nonzero digit of 4-digit group i holding v
# (group 0 holds d_0 alone, group i > 0 digits 4i - 3 .. 4i), 0 if v is 0
_SIGNIFICANT = 4 - sum(_V % 10**j == 0 for j in range(1, 5))
_ENDS = [
    np.where(_V > 0, np.maximum(4 * i - 3 + _SIGNIFICANT, 0), 0).astype(np.uint8) for i in range(5)
]
# _KEEP[n]: the byte mask of words 1..5 that keeps digits d_0 .. d_{n-1}
_KEEP = np.where(np.arange(20) - 3 < np.arange(18)[:, None], 255, 0).astype(np.uint8)
_KEEP = _KEEP.view(np.uint32)
_LITERALS = np.zeros(_SRC_WIDTH, dtype=np.uint8)
for _col, _ch in ((_ZERO, "0"), (_DOT, "."), (_E, "e"), (_I, "i"), (_N, "n"), (_F, "f"), (_A, "a")):
    _LITERALS[_col] = ord(_ch)


def _mulhi(a1, a0, b):
    """High 64 bits of a * b, a = a1 * 2**32 + a0 < 2**63, b < 2**60 (wraps beyond)."""
    b1, b0 = b >> _U(32), b & _M32
    mid = a1 * b0 + a0 * b1 + ((a0 * b0) >> _U(32))
    return a1 * b1 + (mid >> _U(32))


def _rop(g1, g0, cp):
    """Round to odd of g * cp / 2**127, g = g1 * 2**63 + g0 (Schubfach's figure 8)."""
    x1 = _mulhi(g0[0], g0[1], cp)
    y0 = g1[2] * cp
    y1 = _mulhi(g1[0], g1[1], cp)
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _scaled_interval(t: np.ndarray, bq: np.ndarray):
    """(vb, vbl, vbr, out, k): each double v and the ends of its rounding interval
    as multiples of 10**k / 4, rounded to odd, from the fraction bits ``t``
    and biased exponent ``bq``; ``out`` is 1 where the ends are excluded.
    """
    bq = bq.astype(np.int64)
    normal = bq != 0
    c = np.where(normal, t | _U(1 << 52), t)
    q = np.where(normal, bq - 1075, -1074)
    irregular = (t == 0) & (bq > 1)  # c = 2**52 above a binade boundary: narrower below
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10(2**q)), or of 3/4 2**q
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)  # in 2..5
    g1, g0 = _G1[k - _K_MIN], _G0[k - _K_MIN]
    g1 = (g1 >> _U(32), g1 & _M32, g1)
    g0 = (g0 >> _U(32), g0 & _M32)
    cb = c << _U(2)
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - _U(2) + irregular.astype(np.uint64)) << h)
    vbr = _rop(g1, g0, (cb + _U(2)) << h)
    return vb, vbl, vbr, c & _U(1), k  # an odd significand excludes the ends


def _shortest(t: np.ndarray, bq: np.ndarray):
    """(f, k): the shortest closest decimal f * 10**k of each double from its fraction
    bits ``t`` and biased exponent ``bq``; meaningless for inf, nan and 0.0.
    """
    vb, vbl, vbr, out, k = _scaled_interval(t, bq)
    s = vb >> _U(2)
    # one digit shorter: at most one multiple of 10 * 10**k lies in the interval
    sp10 = s // _U(10) * _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = ((sp10 + _U(10)) << _U(2)) + out <= vbr
    # else the closer of s and s + 1 that lies in it, ties to even
    uin = vbl + out <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) + out <= vbr
    mid = (s << _U(2)) + _U(2)  # (s + 1/2) * 10**k in vb's units
    below = (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0))
    f = np.where(upin != wpin, sp10 + _U(10) * wpin, s + np.where(uin != win, win, ~below))
    return f, k


def _source_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(src, key): the columns that templates read for each float of ``x``, and its template."""
    bits = x.view(np.uint64)
    t, bq = bits & _U((1 << 52) - 1), (bits >> _U(52)) & _U(0x7FF)
    f, k = _shortest(t, bq)
    zero = (bq == 0) & (t == 0)
    f[zero] = 0  # written as "0.0": one digit 0 before the point
    k[zero] = 1
    ndig = np.searchsorted(_POW10, f, side="right")  # digits of f (0 for 0.0)
    f *= _POW10[17 - ndig]  # 17 digits, zeros last
    decpt = k + ndig
    hi = (f // _U(10**8)).astype(np.uint32)
    lo = (f - hi.astype(np.uint64) * _U(10**8)).astype(np.uint32)
    groups = hi // 100000000, hi // 10000 % 10000, hi % 10000, lo // 10000, lo % 10000
    src = np.empty((len(x), _SRC_WIDTH), dtype=np.uint8)
    src[:] = _LITERALS
    words = src.view(np.uint32)  # columns 4..23 are words 1..5: "000" and 17 digits
    nd = np.ones(len(x), dtype=np.uint8)  # significant digits, at least one
    for i, (group, ends) in enumerate(zip(groups, _ENDS)):
        words[:, 1 + i] = _QUAD[group]
        np.maximum(nd, ends[group], out=nd)
    exponent_form = (decpt <= -4) | (decpt > 16)
    keep = np.where(exponent_form, nd, np.maximum(nd, decpt + 1))  # digits written
    words[:, 1:6] &= _KEEP[keep]
    src[:, _SIGN] = np.where(bits >> _U(63) == 1, ord("-"), 0)
    src[:, _EDOT] = np.where(nd > 1, ord("."), 0)
    e = decpt - 1
    src[:, _ESIGN] = np.where(e < 0, ord("-"), ord("+"))
    words[:, 7] = _QUAD[np.abs(e)]  # columns 28..31: '0' and three exponent digits
    src[:, _EXP][np.abs(e) < 100] = 0
    key = np.where(exponent_form, 20, decpt + 3)
    special = bq == 0x7FF
    key[special] = np.where(t[special] == 0, _INF, _NAN)
    return src, key


def _format(x: np.ndarray, width: int) -> np.ndarray:
    """A zeroed uint8 buffer of ``width`` columns, the repr of each float of ``x`` in
    its first _FIELD; the temporaries of the digits are gone before it is allocated."""
    src, key = _source_rows(x)
    buf = np.zeros((len(x), width), dtype=np.uint8)
    for cls in np.flatnonzero(np.bincount(key, minlength=len(_TEMPLATES))):
        rows = np.flatnonzero(key == cls)
        buf[rows, :_FIELD] = src[rows].take(_TEMPLATES[cls], axis=1)
    return buf


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
    width = _FIELD + max(map(len, seps))
    sep_row, break_row = (
        np.frombuffer(s.ljust(width - _FIELD, b"\0"), dtype=np.uint8) for s in seps
    )
    for start in range(0, flat.size, CHUNK):
        buf = _format(flat[start:start + CHUNK], width)
        buf[:, _FIELD:] = sep_row
        buf[(n_cols - 1 - start) % n_cols::n_cols, _FIELD:] = break_row
        if start + CHUNK >= flat.size:  # nothing after the last float
            buf[-1, _FIELD:] = 0
        yield str(buf[buf != 0].data, "ascii")
