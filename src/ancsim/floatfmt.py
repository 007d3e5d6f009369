"""Python's `repr` of float64 arrays, computed in numpy, byte for byte.

`format_floats(values)` returns a uint8 matrix with one row per value, of
at most `WIDTH` columns. Deleting the NUL bytes from row i leaves exactly
`repr(float(values[i]))`. `format_ints` does the same for non-negative
integers and `str`. Callers lay such matrices side by side and delete the
NULs of a whole block at once (`bytes.translate(None, b"\\0")`), so no
Python string is made per value.

Digits. `repr` prints the shortest decimal that reads back as the same
double; among several of that length, the one nearest the double, and
the even one on a tie. Schubfach finds it with fixed-width integer
arithmetic (R. Giulietti, "The Schubfach way to render doubles", 2020):
for v = c * 2**q and k = floor(log10(2**q)), the round-to-odd value of
4 * v / 10**k and of both ends of v's rounding interval, each a 126-bit
table value g(k) (built from Python integers on first use) times an
integer below 2**60, carried in 32-bit limbs in uint64 lanes. Then a
multiple of ten in the interval (one digit fewer), or the integer floor
or ceiling nearest v. Only integer numpy operations run: no BLAS call and
no float rounding enters the text, and there is no fallback to `repr`.

Lanes. A chunk of `CHUNK` values takes 174 whole-array passes, many in
place, so that few uint64 lanes (about 20 a value) are alive at once and
they stay in cache. Zeros, subnormals, infinities and nan share one test;
only a chunk that holds some takes the 15 passes that fix them.

Layout, as Python's 'r' format: fixed notation when the decimal point
position `decpt` (value = 0.d1d2... * 10**decpt) is in -3..16, else
d1.d2...e+XX with at least two exponent digits (`1e-05`, `1e+16`); an
integral fixed value gets `.0`; `-0.0`, `inf`, `-inf`, `nan`. A row is
four little-endian words, 32 bytes:

    bytes 0-5    the sign and, below 1, the "0." and zeros before the digits
    bytes 6-23   D, the 17 digits with a 0 opened for the point after the
                 integer digits (fixed, 1 or more) or the first digit
    bytes 24-28  "e", the exponent's sign and 2 or 3 digits

D is one integer below 10**18, made digit bytes by multiply-and-shift
division (SWAR). A table row picked by decpt, the sign and the last
nonzero digit ORs in the ASCII of the printed digits, the point, the "0."
and the sign; later digits stay NUL. `format_floats` returns the span of
columns that some row uses.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 32                       # four words: sign and lead, 18 digit slots, exponent
CHUNK = 8192                     # values formatted per pass, to bound temporaries
_K_MIN, _K_MAX = -324, 292
_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_INF = 0x7FF << 52               # magnitude bits of inf; above it, nan
_P10 = 10 ** np.arange(18, dtype=np.uint64)
_NOT3 = np.uint64((1 << 64) - 4)
_RARE_D = np.array([0, 5 * 10 ** 16, 10 ** 16, 0], np.uint64)   # 0.0, 5e-324, 1e-323,
_RARE_DECPT = np.array([1, -323, -322, 1])                       # inf and nan


@functools.cache
def _g_table():
    """(2, 617) uint64: g(k) = floor(10**-k * 2**(125 - floor(log2(10**-k))))
    + 1 for k = -324..292, that is 10**-k to 126 bits, rounded up, as its
    low and high 63-bit halves g0 and g1."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        e = 125 - (-k * 913_124_641_741 >> 38)
        if k <= 0:
            g = 10 ** -k << e if e >= 0 else 10 ** -k >> -e
        else:
            g = (1 << e) // 10 ** k
        rows.append(divmod(g + 1, 1 << 63)[::-1])
    return np.array(rows, dtype=np.uint64).T.copy()


@functools.cache
def _layout_tables():
    """by_decpt (3, 633), for decpt = -323..309: D's split power 10**(17 -
    point) (1 when D has no point), the base of the mask index and the
    exponent word. masks (3, 22 * 19 * 2): words 0-2 to OR into a row, by
    clipped decpt, printed digits up to the last nonzero one (0-18) and
    sign. special (3, 4): the rows of nan, inf and -inf."""
    masks = np.zeros((22, 19, 2, 24), np.uint8)
    slot, nz = np.arange(18), np.arange(19)[:, None]
    for col in range(22):
        decpt = col - 4                     # D's slot opened for the point, if any:
        point = decpt if 0 < decpt < 17 else None if -4 < decpt < 1 else 1
        hi = np.maximum(nz, point + 2) if 0 < decpt < 17 else nz   # "1.0", "100.0"
        masks[col, :, :, 6:] = (np.where(slot == point, 46, 48) * (slot < hi))[:, None]
        lead = 6 if point else 4 + decpt                           # "0.", "0.000"
        masks[col, :, :, lead:6] = [48, 46, 48, 48, 48][:6 - lead]
        masks[col, :, 1, lead - 1] = 45
    decpt = np.arange(-323, 310)
    sci = (decpt < -3) | (decpt > 16)
    point = np.where(sci, 1, decpt)
    m = np.abs(decpt - 1)
    exp = np.zeros((633, 8), np.uint8)
    exp[:, 0], exp[:, 1] = 101, np.where(decpt < 1, 45, 43)
    exp[:, 2] = np.where(m >= 100, m // 100 + 48, 0)
    exp[:, 3], exp[:, 4] = m // 10 % 10 + 48, m % 10 + 48
    exp[~sci] = 0
    by_decpt = np.array([np.where(point > 0, 10 ** (17 - np.clip(point, 1, 16)), 1),
                         (np.clip(decpt, -4, 17) + 4) * 38, exp.view("<u8")[:, 0]], np.uint64)
    special = np.zeros((3, WIDTH), np.uint8)
    special[:, 6:9] = np.frombuffer(b"naninfinf", np.uint8).reshape(3, 3)
    special[2, 5] = 45
    return (by_decpt, masks.view("<u8").reshape(-1, 3).T.astype(np.uint64),
            special.view("<u8").astype(np.uint64))


def _interval(g, c, H, irregular):
    """Schubfach's vbl, vb and vbr: rop(g, cp) for cp = cbl << h, cb << h
    and cbr << h, where cb = 4c, cbl = cb - 2 (cb - 1 where the spacing is
    irregular), cbr = cb + 2 and H = h + 2.

    rop is about g * cp / 2**127 rounded to odd, as the reference computes
    it: with g = g1 * 2**63 + g0, w = floor(g1 * cp / 2) + floor(g0 * cp /
    2**64); bits 63 up of w, the lowest set if any lower bit is. What the
    floors drop is below the error of g's rounding up, so a tie stays a
    tie. The products' high words come from 32-bit limbs, for cb << h only
    (cp < 2**60 and g1, g0 < 2**63: each middle sum fits a word); the ends
    add or subtract g1 and g0 shifted left by h + 1 (h for an irregular
    cbl)."""
    cp = c << H
    c0 = cp & _M32
    c1 = cp >> 32

    def high(a0, a1):
        """The high word of (a1 * 2**32 + a0) * cp."""
        w = (a0 * c0 >> 32) + a0 * c1 + a1 * c0
        return a1 * c1 + (w >> 32)

    hi1, lo1 = high(g[1] & _M32, g[1] >> 32), g[1] * cp
    hi0, lo0 = high(g[0] & _M32, g[0] >> 32), g[0] * cp
    del c0, c1, cp                          # spent: few lanes alive stay in cache

    def rop(h1, l1, h0):
        """w's bits from 63 up, from g1 * cp's words and g0 * cp's high word."""
        z = l1 >> 1
        z += h0
        h1 += z >> 63
        z <<= 1
        h1 |= z != 0
        return h1

    def moved(s, up):
        """rop at cp + 2**s (up) or cp - 2**s: each product plus or minus
        its half of g shifted left by s, with carry or borrow."""
        t = 64 - s

        def add(i, hi, lo):
            d = g[i] << s
            if up:
                lo = lo + d
                return hi + (g[i] >> t) + (lo < d), lo
            return hi - (g[i] >> t) - (lo < d), lo - d

        h0 = add(0, hi0, lo0)[0]
        return rop(*add(1, hi1, lo1), h0)

    H -= 1                                  # H is spent: now h + 1
    vbl, vbr = moved(H - irregular, False), moved(H, True)
    return vbl, rop(hi1, lo1, hi0), vbr


def _decimal(ab):
    """Schubfach: (d, k) with d * 10**k the shortest nearest decimal of
    each double of magnitude bits ab, exact for normal values and for
    subnormals from 3 * 2**-1074; other lanes hold garbage."""
    e = np.maximum(ab >> 52, 1)             # subnormals: q = -1074, no hidden bit
    c = ab - (e - 1 << 52)
    irregular = (c == 1 << 52) & (e > 1)    # the gap below v is half the gap above
    e -= 1075
    q = e.view(np.int64)
    k = q * 661_971_961_083 - irregular * 274_743_187_321 >> 41
    H = (k * -913_124_641_741 >> 38) + q + 4
    del e, q
    vbl, vb, vbr = _interval(_g_table().take(k - _K_MIN, axis=1), c, H.view(np.uint64),
                             irregular)
    del H, irregular
    out = c & 1                             # interval ends excluded for odd c
    vbl += out
    vbr -= out
    s, s4 = vb >> 2, vb & _NOT3
    uin, win = vbl <= s4, s4 + 4 <= vbr
    sp10 = s // 10 * 10
    upin, wpin = vbl <= sp10 << 2, (sp10 << 2) + 40 <= vbr
    # s + 1 above the midpoint, and on an odd s's tie: (vb + 1 + s % 2) // 4
    d = np.where(uin != win, s + win, (s & 1) + vb + 1 >> 2)
    return np.where(upin != wpin, sp10 + wpin * np.uint64(10), d), k


def _bcd8(w):
    """In place: each word < 10**8 becomes 8 decimal digit bytes (values
    0..9), the most significant first in memory. Division, then
    multiply-and-shift division, splits it into 4-digit, 2-digit and
    1-digit lanes: each step leaves the quotient q of a lane x in its low
    half and x - q * t in its high half, as (x << j) - q * ((t << j) - 1)."""
    for t, j, mul, shift, mask in ((10000, 32, 0, 0, 0), (100, 16, 10486, 20, 0x7F0000007F),
                                   (10, 8, 103, 10, 0xF000F000F000F)):
        q = w // t if mul == 0 else w * mul
        if mul:
            q >>= shift
            q &= mask
        w <<= j
        q *= (t << j) - 1
        w -= q


def _rare(a, d, k):
    """(17-digit d, decpt) of zeros, subnormals, infinities and nan, from
    their magnitude bits a and what `_decimal` made of them: subnormals from
    3 * 2**-1074 keep their digits, however few; 0.0, 5e-324, 1e-323 and
    the non-finite values (whose text is written later) take fixed ones."""
    nd = np.searchsorted(_P10, d, side="right")
    sub = (a > 2) & (a < 1 << 52)
    kind = np.minimum(a, 3)
    return (np.where(sub, d * _P10[17 - nd], _RARE_D[kind]),
            np.where(sub, nd + k, _RARE_DECPT[kind]))


def _format(x):
    """The text of the doubles x as (len(x), 4) words, and each word OR-ed
    over the rows (the bytes that rows use)."""
    bits = x.view(np.uint64)
    neg = bits >> 63
    ab = bits & _M63
    d, k = _decimal(ab)
    rare = ab - (1 << 52) >= _INF - (1 << 52)
    i = np.flatnonzero(rare) if rare.any() else None
    if i is not None:
        fix = _rare(ab[i], d[i], k[i])
    small = d < 10 ** 16                    # normal values: 16 or 17 digits
    d *= small.view(np.uint8) * np.uint8(9) + np.uint8(1)
    decpt = k + 17 - small
    if i is not None:
        d[i], decpt[i] = fix
    by_decpt, masks, special = _layout_tables()
    decpt += 323
    split, code, exp = by_decpt.take(decpt, axis=1)
    d = d * 10 - d % split * 9              # D: a 0 opened after the point's digits
    words = np.empty((3, len(x)), np.uint64)
    q = d // 10 ** 8
    np.floor_divide(q, 10 ** 8, out=words[0])
    np.subtract(q, words[0] * 10 ** 8, out=words[1])
    np.subtract(d, q * 10 ** 8, out=words[2])
    del d, q, split
    _bcd8(words)
    # the last nonzero digit: a word's exponent as a double gives its top
    # byte, offsets by word make the max pick the highest nonzero word, and
    # last = 128 + byte + 8 * word (16 if all are 0) = 133 + D's digits to it
    top = words.astype(np.float64).view(np.uint64)
    top[1] += 64 << 52
    top[2] += 128 << 52
    last = np.maximum(np.maximum(top[0], top[1]), top[2]) + (1 << 52) >> 55
    code = code.view(np.int64) + np.maximum(last, 133).view(np.int64) * 2
    code += neg.view(np.int64) - 266
    del top, last
    m = masks.take(code, axis=1)
    del code
    out = np.empty((len(x), 4), "<u8")
    np.bitwise_or(words, m, out=out.T[:3])
    np.copyto(out.T[3], exp)
    if i is not None:
        nonfinite = ab[i] >= _INF
        j = i[nonfinite]
        out[j] = special[np.where(ab[j] > _INF, 0, 1 + neg[j])]
    return out, np.append(np.bitwise_or.reduce(m, axis=1), np.bitwise_or.reduce(exp))


def format_floats(values) -> np.ndarray:
    """(n, w) uint8, w <= WIDTH: row i with its NULs deleted is
    repr(float(values[i])). Only the span of columns that rows use is
    kept; the result is a view of the rows' words."""
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    chunks = [_format(x[start:start + CHUNK]) for start in range(0, len(x), CHUNK)]
    out = (chunks[0][0] if len(chunks) == 1 else
           np.concatenate([words for words, _ in chunks] or [np.empty((0, 4), "<u8")]))
    used = np.bitwise_or.reduce(np.array([u for _, u in chunks], np.uint64).reshape(-1, 4))
    cols = np.flatnonzero(used.astype("<u8").view(np.uint8))
    text = out.view(np.uint8)
    return text[:, cols[0]:cols[-1] + 1] if len(cols) else text[:, :0]


def format_ints(values) -> np.ndarray:
    """(n, w) uint8: row i with its NULs deleted is str(values[i]), for
    integers in 0 .. 10**16 - 1; w is the longest row's length."""
    v = np.asarray(values).astype(np.uint64).reshape(-1)
    nd = np.maximum(np.searchsorted(_P10, v, side="right"), 1)
    width = int(nd.max(initial=1))
    words = np.empty((len(v), 2), "<u8")
    np.floor_divide(v, 10 ** 8, out=words[:, 0])
    np.subtract(v, words[:, 0] * 10 ** 8, out=words[:, 1])
    _bcd8(words)
    words |= 0x3030303030303030
    text = words.view(np.uint8)
    return np.where(np.arange(width) < (width - nd)[:, None], 0, text[:, 16 - width:])
