"""Python's `repr` of float64 arrays, computed in numpy, byte for byte.

`format_floats(values)` returns a uint8 matrix with one row per value, of
`WIDTH` columns. Deleting the NUL bytes from row i leaves exactly
`repr(float(values[i]))`. `format_ints` does the same for non-negative
integers and `str`. Callers lay such matrices side by side and delete the
NULs of a whole block at once (`bytes.translate(None, b"\\0")`), so no
Python string is made per value.

Digits. `repr` prints the shortest decimal that reads back as the same
double; among several of that length it prints the one nearest the
double, and the even one on a tie. Schubfach finds that decimal with
fixed-width integer arithmetic (R. Giulietti, "The Schubfach way to
render doubles", 2020). Take a double v = c * 2**q. For k =
floor(log10(2**q)), it computes the round-to-odd value of
4 * v / 10**k, and the same for both ends of v's rounding interval.
Each product is a 126-bit table value g(k) times an integer below 2**60. It
then picks the decimal: a multiple of ten in the interval (one digit
fewer), or the integer floor or ceiling nearest v. The sums are carried
in 32-bit limbs held in uint64 lanes. So the formatter uses only integer
numpy operations; no BLAS call and no float rounding enters the text,
and there is no fallback to `repr`. The 617 table entries, for k = -324
to 292, are built from Python integers on first use.

Layout, as Python's 'r' format: fixed notation when the decimal point
position `decpt` (value = 0.d1d2... * 10**decpt) is in -3..16, else
d1.d2...e+XX with at least two exponent digits (`1e-05`, `1e+16`); an
integral fixed value gets `.0`; `-0.0`, `inf`, `-inf`, `nan`. The
digits become ASCII with SWAR steps, eight to a uint64 word. Each row
holds the sign, then four '0' bytes and the 17 digits, each digit slot
followed by a slot for the decimal point, then the exponent. Slots a
value does not print hold NUL.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 48                       # sign, 21 digit and 21 point slots, e, sign, 3 digits
CHUNK = 8192                     # values formatted per pass, to bound temporaries
_K_MIN, _K_MAX = -324, 292
_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_P10 = 10 ** np.arange(18, dtype=np.uint64)
_LEADS = np.array([[48 if c % 2 == 0 and c >= 2 * lo else 46 if c == 2 * lo + 1 else 0
                    for c in range(8)] for lo in range(5)],
                  np.uint8)              # columns 1-8 by lo: 0.000, 0.00, 0.0, 0. and none
_ASCII = np.array([0x3030303030303030 >> 8 * (8 - i) if i else 0 for i in range(9)],
                  dtype=np.uint64)                         # '0' added to the first i bytes


@functools.cache
def _g_table():
    """(6, 617) uint64: g(k) = floor(10**-k * 2**(125 - floor(log2(10**-k))))
    + 1 for k = -324..292, that is 10**-k to 126 bits, rounded up. Rows:
    the 32-bit limbs of its low and high 63-bit halves g0 and g1, then g0
    and g1 themselves."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        e = 125 - (-k * 913_124_641_741 >> 38)
        if k <= 0:
            g = 10 ** -k << e if e >= 0 else 10 ** -k >> -e
        else:
            g = (1 << e) // 10 ** k
        g1, g0 = divmod(g + 1, 1 << 63)
        rows.append([g0 & _M32, g0 >> 32, g1 & _M32, g1 >> 32, g0, g1])
    return np.array(rows, dtype=np.uint64).T.copy()


def _interval(g, cb, h, irregular):
    """Schubfach's vbl, vb and vbr: rop(g, cp) for cp = cbl << h, cb << h
    and cbr << h, where cbl = cb - 2 (cb - 1 where the spacing is
    irregular) and cbr = cb + 2.

    rop is about g * cp / 2**127 rounded to odd, computed as the reference
    does: with g = g1 * 2**63 + g0, w = floor(g1 * cp / 2) + floor(g0 * cp
    / 2**64); bits 63 up of w are the result, and any of its lower 63 bits
    set the lowest. What the floors drop is below the error that g's
    rounding up adds, so an exact tie stays a tie. The products g1 * cp and
    g0 * cp are formed exactly, as 128-bit (high, low) word pairs from
    32-bit halves, once for cb << h; the interval ends add or subtract g1
    and g0 shifted left by h + 1 (h for cbl where irregular)."""
    cp = cb << h
    c0, c1 = cp & _M32, cp >> 32

    def mul(a0, a1):
        """(high, low) words of (a1 * 2**32 + a0) * cp."""
        p00, p01, p10 = a0 * c0, a0 * c1, a1 * c0
        mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
        return a1 * c1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), mid << 32 | p00 & _M32

    def rop(a_hi, a_lo, b_hi):
        """w's bits from 63 up, from g1 * cp's words and g0 * cp's high word."""
        z = (a_lo >> 1) + b_hi
        return a_hi + (z >> 63) | (z & _M63 != 0)

    def moved(s, down):
        """rop at cp - 2**s (down) or cp + 2**s: g1 and g0 shifted left by
        s, taken from or added to the products with borrow or carry."""
        d1_hi, d1_lo = g[5] >> 64 - s, g[5] << s
        d0_hi, d0_lo = g[4] >> 64 - s, g[4] << s
        if down:
            lo, b = a_lo - d1_lo, b_lo - d0_lo
            return rop(a_hi - d1_hi - (lo > a_lo), lo, b_hi - d0_hi - (b > b_lo))
        lo, b = a_lo + d1_lo, b_lo + d0_lo
        return rop(a_hi + d1_hi + (lo < a_lo), lo, b_hi + d0_hi + (b < b_lo))

    b_hi, b_lo = mul(g[0], g[1])
    a_hi, a_lo = mul(g[2], g[3])
    del cp, c0, c1              # spent: a block's temporaries peak below
    return moved(h + 1 - irregular, True), rop(a_hi, a_lo, b_hi), moved(h + 1, False)


def _bcd8(w):
    """Each uint64 word < 10**8 as 8 decimal digit bytes (values 0..9), the
    most significant first in memory: split into 4-digit, 2-digit and
    1-digit lanes by multiply-and-shift division."""
    z = w // 10000
    z = z | (w - z * 10000) << 32
    q = z * 10486 >> 20 & 0x7F0000007F
    z = q | (z - q * 100) << 16
    q = z * 103 >> 10 & 0xF000F000F000F
    return (q | (z - q * 10) << 8).astype("<u8", copy=False)


def _bcd16(v):
    """(n, 2) words: `_bcd8` of the high and low 8 of 16 digits of v < 10**16."""
    high = v // 10 ** 8
    return _bcd8(np.stack([high, v - high * 10 ** 8], axis=1))


def _decimal(bits):
    """Schubfach: (d, k) with d * 10**k the shortest nearest decimal of
    each finite nonzero double; other lanes hold garbage."""
    be = bits >> 52 & 0x7FF
    t = bits & (1 << 52) - 1
    normal = be != 0
    c = np.where(normal, t | 1 << 52, t)
    q = np.where(normal, be.astype(np.int64) - 1075, -1074)
    irregular = (t == 0) & (be > 1)          # the gap below v is half the gap above
    tiny = c < 3                             # subnormals 1 and 2: scale c by 10
    c = np.where(tiny, c * 10, c)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + (-k * 913_124_641_741 >> 38) + 2).astype(np.uint64)
    del be, t, q                # spent before the interval's temporaries
    g = _g_table().take(k - _K_MIN, axis=1)
    vbl, vb, vbr = _interval(g, c << 2, h, irregular)
    out = c & 1                              # interval ends excluded for odd c
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl + out <= sp10 << 2
    wpin = (sp10 + 10 << 2) + out <= vbr
    uin = vbl + out <= s << 2
    win = (s + 1 << 2) + out <= vbr
    above = (vb > (s << 2) + 2) | ((vb == (s << 2) + 2) & (s & 1 == 1))
    d = s + np.where(uin != win, win, above)
    d = np.where(upin != wpin, np.where(wpin, sp10 + 10, sp10), d)
    return d, k - tiny


def _format(x):
    """(text, used): the (n, WIDTH) text of the doubles x and a mask of
    the columns any row uses (a superset will do: NULs are deleted)."""
    n = len(x)
    bits = x.view(np.uint64)
    neg = bits >> 63
    zero = bits << 1 == 0
    d, k = _decimal(bits)
    d[zero] = 0
    nd = np.searchsorted(_P10, d, side="right")
    d17 = d * _P10[17 - nd]
    first = d17 // 10 ** 16
    words = _bcd16(d17 - first * 10 ** 16)
    # n_sig: digits up to the last nonzero one, from the zero high bytes of
    # each word (its last digits); decpt: value = 0.d1d2... * 10**decpt
    tail = (64 - np.frexp(words.astype(np.float64))[1]) // 8
    n_sig = 17 - np.where(tail[:, 1] == 8, 8 + tail[:, 0], tail[:, 1])
    decpt = np.where(zero, 1, nd + k)
    fixed = (decpt > -4) & (decpt < 17)
    pos = decpt > 0
    # print digit slots lo..hi-1 (slots 0-3 are '0's, 4 the first digit)
    # and a point after slot `dot` (none when 20: that slot is never used)
    lo = np.where(fixed & ~pos, 3 + decpt, 4)
    dot = np.where(fixed, np.where(pos, 3 + decpt, lo), np.where(n_sig > 1, 4, 20))
    hi = 4 + np.where(fixed & pos, np.maximum(n_sig, decpt + 1), n_sig)
    text = np.zeros((n, WIDTH), np.uint8)
    text[:, 0] = neg.astype(np.uint8) * np.uint8(45)
    text[:, 1:9] = _LEADS[lo]
    text[:, 9] = first + 48
    ascii = np.stack([_ASCII[np.minimum(hi - 5, 8)], _ASCII[np.maximum(hi - 13, 0)]], axis=1)
    text[:, 11:43:2] = (words | ascii).view(np.uint8).reshape(n, 16)
    text.reshape(-1)[np.arange(2, n * WIDTH, WIDTH) + 2 * dot] = np.where(dot < 20, 46, 0)
    used = np.zeros(WIDTH, bool)
    used[0] = neg.any()
    used[1 + 2 * lo.min(initial=4):1 + 2 * hi.max(initial=5):2] = True
    used[2 + 2 * dot.min(initial=20):3 + 2 * dot.max(initial=0):2] = True
    sci = np.flatnonzero(~fixed)
    if len(sci):
        exp = decpt[sci] - 1
        mag = np.abs(exp)
        text[sci, 43] = 101
        text[sci, 44] = np.where(exp < 0, 45, 43)
        text[sci, 45] = np.where(mag >= 100, mag // 100 + 48, 0)
        text[sci, 46] = mag // 10 % 10 + 48
        text[sci, 47] = mag % 10 + 48
        used[43:] = True
    special = bits >> 52 & 0x7FF == 0x7FF
    if special.any():
        nan = special & (bits << 12 != 0)
        text[special] = 0
        for rows, word in ((nan, b"nan"), (special & ~nan & (neg == 0), b"inf"),
                           (special & ~nan & (neg == 1), b"-inf")):
            text[rows, :len(word)] = np.frombuffer(word, np.uint8)
        used[:4] = True
    return text, used


def format_floats(values) -> np.ndarray:
    """(n, w) uint8, w <= WIDTH: row i with its NULs deleted is
    repr(float(values[i])). Columns that no row uses are left out."""
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    if len(x) <= CHUNK:
        text, used = _format(x)
    else:
        text, used = np.empty((len(x), WIDTH), np.uint8), np.zeros(WIDTH, bool)
        for start in range(0, len(x), CHUNK):
            text[start:start + CHUNK], part = _format(x[start:start + CHUNK])
            used |= part
    return text[:, used]


def format_ints(values) -> np.ndarray:
    """(n, w) uint8: row i with its NULs deleted is str(values[i]), for
    integers in 0 .. 10**16 - 1; w is the longest row's length."""
    v = np.asarray(values).astype(np.uint64).reshape(-1)
    nd = np.maximum(np.searchsorted(_P10, v, side="right"), 1)
    width = int(nd.max(initial=1))
    text = (_bcd16(v) | 0x3030303030303030).view(np.uint8).reshape(len(v), 16)
    return np.where(np.arange(width) < (width - nd)[:, None], 0, text[:, 16 - width:])
