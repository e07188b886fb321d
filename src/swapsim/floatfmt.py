"""Text of computed values, the same bytes as ``repr``.

``format_values`` is the one place where a computed column becomes text.
Its array kernel, ``format_floats``, runs most values through Ryū's common
path (U. Adams, "Ryū: fast float-to-string conversion", PLDI 2018) in
numpy ``uint64`` arithmetic and lays them out by ``repr``'s rules: fixed
notation when ``-4 < decpt <= 16``, otherwise ``d.ddde±XX``, where
``x = 0.<digits> * 10**decpt``. Row ``k`` of either's ``(a.size, WIDTH)``
uint8 result holds the ASCII text of value ``k`` padded with NULs (24
characters fit every float64, ``-2.2250738585072014e-308``, and every
64-bit integer).

The others are handed to ``repr`` itself, and its text is written into
their rows. An integer test on the bits picks them out: zero, subnormal,
infinite or NaN, ``|x| >= 2**54`` (Ryū's ``e2 >= 0`` branch, which would
need the inverse table) and Ryū's general case, where a scaled interval
end may be exact and trailing zeros decide the rounding (``q <= 1``, or
``4 * m2`` a multiple of ``2**q``). In what is left no interval end is
exact, so the last digit dropped alone decides the rounding.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = ["FLOATFMT_MIN", "WIDTH", "format_floats", "format_values"]

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_FRACTION = _U64((1 << 52) - 1)
_HIDDEN = _U64(1 << 52)
_POW5_BITS = 125


def _pow5_table():
    """The leading 125 bits of 5**i as four 32-bit limbs (low limb first),
    and the bit length of 5**i, for every i the fast path reaches (<= 325)."""
    limbs = np.empty((4, 326), dtype=np.uint64)
    lengths = np.empty(326, dtype=np.int64)
    for i in range(326):
        p = 5 ** i
        n = lengths[i] = p.bit_length()
        top = p >> (n - _POW5_BITS) if n > _POW5_BITS else p << (_POW5_BITS - n)
        for k in range(4):
            limbs[k, i] = (top >> (32 * k)) & 0xFFFFFFFF
    return limbs, lengths


_POW5, _POW5_LENGTH = _pow5_table()
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
# the ASCII text of "0000" .. "9999", one row each
_QUADS = (np.arange(10_000, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1]) % 10
          + ord("0")).astype(np.uint8)
# a row of text: 20 bytes that take digits spilled left, then the text,
# at most WIDTH characters
WIDTH = 24
_GAP = 20
_ROW = _GAP + WIDTH

# the fewest floats in a block for which format_floats (about 0.3 ms fixed
# cost, then about 0.2 us a value) beats repr into WIDTH slots (about 0.7 us
# a value), timed block by block: 512 went either way, 576 was never slower
FLOATFMT_MIN = 576


def _plan(biased):
    """Ryū's ``(q, i, j)`` for biased exponents 1..1076 (``e2 = biased - 1077 < 0``).

    The scaled interval ends are ``floor(m * 5**i / 2**q)`` for
    ``m = 4 * m2 + (-1 - mmShift, 0, 2)``: ``q`` decimal digits are dropped
    at once, ``i = -e2 - q`` indexes the power-of-5 table, and ``j`` is the
    right shift of ``m`` times the table entry.
    """
    ne2 = 1077 - biased
    q = ((ne2 * 732923) >> 20) - (ne2 > 1)  # floor(-e2 * log10(5)), less 1 past -e2 = 1
    i = ne2 - q
    return q, i, q + _POW5_BITS - _POW5_LENGTH[i]


def _scaled(mv, mm_shift, b, j):
    """Ryū's ``(vr, vp, vm)``: ``floor((mv + k) * b / 2**j)`` for ``k = 0, 2,
    -1 - mm_shift``, where ``mv < 2**55``, ``b`` is four 32-bit limbs and
    ``96 <= j <= 128``.

    ``mv * b`` is formed once, in 32-bit limbs so that no ``uint64`` product
    overflows; ``k * b`` is then added limb by limb in ``int64``, where an
    arithmetic shift carries or borrows.
    """
    s32 = _U64(32)
    col = [np.zeros_like(mv) for _ in range(6)]  # 32-bit columns, low first
    for t, a in enumerate((mv & _MASK32, mv >> s32)):
        for k, bk in enumerate(b):
            p = a * bk
            col[t + k] += p & _MASK32
            col[t + k + 1] += p >> s32
    for t in range(4):
        col[t + 1] += col[t] >> s32
        col[t] &= _MASK32
    limbs = [c.view(np.int64) for c in col[:4]]
    high = ((col[5] << s32) + col[4]).view(np.int64)  # the product >> 128
    del col
    b = [bk.view(np.int64) for bk in b]
    left, right = 128 - j, j - 96
    out = [(high << left) | (limbs[3] >> right)]
    for k in (2, -1 - mm_shift):
        r = limbs[0] + k * b[0]
        for limb, bk in zip(limbs[1:], b[1:]):
            r = (r >> 32) + limb + k * bk
        out.append(((high + (r >> 32)) << left) | ((r & 0xFFFFFFFF) >> right))
    return [v.view(np.uint64) for v in out]


def _shortest(mv, mm_shift, b, j, e10):
    """Ryū's common path: the digits ``d``, their count and the exponent ``e``
    of ``x = d * 10**e``."""
    vr, vp, vm = _scaled(mv, mm_shift, b, j)
    # drop the most digits r for which a multiple of 10**r lies in (vm, vp],
    # that is vp % 10**r < vp - vm. At every exponent the fast path takes,
    # the width vp - vm is 30..399 and vr has 18 or 19 digits (see the
    # tests): r is at least the width's digits less one, and one more digit
    # goes wherever vp has a zero above them.
    width = vp - vm
    r = 1 + (width >= _U64(100)).astype(np.intp)
    more = np.where(r == 1, vp % _U64(100), vp % _U64(1000)) < width
    r += more
    rows = np.flatnonzero(more)
    while rows.size:
        rows = rows[vp[rows] % _POW10[r[rows] + 1] < width[rows]]
        r[rows] += 1
    t = vr // _POW10[r - 1]
    d = t // _U64(10)
    # round up past a dropped 5 or more, or off vm (outside the interval).
    # Rounding up never gains a digit, as 10**k with k >= 1 ends in a zero
    # the loop would have dropped, except from 0 (every digit of vr dropped)
    # to 1
    d += (t % _U64(10) >= _U64(5)) | (vm >= d * _POW10[r])
    return d, np.maximum(18 + (vr >= _POW10[18]) - r, 1), e10 + r


def _layout(size, rows, d, nd, e, sign):
    """``size`` rows of text, ``d * 10**e`` (``nd`` digits) by ``repr``'s
    rules at ``rows``; the other rows are empty."""
    text = np.zeros((size, _ROW), dtype=np.uint8)
    flat = text.reshape(-1)
    n = d.size
    dp = nd + e  # decpt
    sci = (dp <= -4) | (dp > 16)
    lead = ~sci & (dp <= 0)  # 0.000ddd
    wide = ~sci & (dp >= nd)  # ddd000.0: the zeros are digits of d * 10**(dp - nd)
    point = np.where(sci, 1, dp)  # digits before the point
    inside = (point > 0) & (point < nd)  # the point falls between two digits
    digits = np.where(wide, d * _POW10[np.maximum(dp - nd, 0)], d)
    count = np.where(wide, dp, nd)
    base = rows * _ROW + _GAP + sign  # the first character after any sign
    first = base + np.where(lead, 2 - dp, 0)  # the first digit
    # all digits as one block of 20, zero-padded, ending at the last digit
    # (one further right where the point falls inside); its padding spills
    # left, where it is either the zeros of 0.000ddd or overwritten below
    groups = np.empty((n, 5), dtype=np.intp)
    rest = digits
    for g in range(4, 0, -1):
        high = rest // _U64(10_000)
        groups[:, g] = rest - high * _U64(10_000)
        rest = high
    groups[:, 0] = rest
    block = np.take(_QUADS, groups, axis=0).reshape(n, 20)
    as_strided(flat, (flat.size - 19, 20), (1, 1))[first + inside + count - 20] = block
    # the digits before an inside point move one to the left
    if inside.any():
        window = as_strided(flat, (flat.size - 15, 16), (1, 1))
        src = (first + point - 15)[inside]
        window[src - 1] = window[src]
    dot = np.where(lead, base + 1, first + point)
    flat[dot[~sci | (nd > 1)]] = ord(".")
    flat[np.where(lead, base, dot + 1)[lead | wide]] = ord("0")  # 0.ddd, ddd.0
    flat[base[sign == 1] - 1] = ord("-")
    if sci.any():
        at = (first + inside + nd)[sci]
        x = dp[sci] - 1
        flat[at] = ord("e")
        flat[at + 1] = np.where(x < 0, ord("-"), ord("+"))
        x = np.abs(x)
        three = x >= 100
        chars = _QUADS[x]
        flat[at[three] + 2] = chars[three, 1]
        at = at + three
        flat[at + 2] = chars[:, 2]
        flat[at + 3] = chars[:, 3]
    return text


def _fast_digits(bits):
    """The rows of ``bits`` that take the fast path, with their digits, digit
    counts, exponents and signs."""
    biased = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64)
    fraction = bits & _FRACTION
    q, i, j = _plan(np.clip(biased, 1, 1076))
    mv = (fraction | _HIDDEN) << _U64(2)
    low_bits = (_U64(1) << np.minimum(q, 63).astype(np.uint64)) - _U64(1)
    fast = (biased >= 1) & (biased <= 1076) & (q >= 2) & ((mv & low_bits) != 0)
    rows = np.flatnonzero(fast)
    if rows.size < bits.size:
        bits, biased, fraction, q, i, j, mv = (
            v[rows] for v in (bits, biased, fraction, q, i, j, mv))
    mm_shift = ((fraction != 0) | (biased <= 1)).astype(np.int64)
    d, nd, e = _shortest(mv, mm_shift, [limbs[i] for limbs in _POW5], j, q + biased - 1077)
    return rows, d, nd, e, (bits >> _U64(63)).astype(np.intp)


def _repr_rows(values) -> np.ndarray:
    """``repr`` of each Python number of ``values``, as NUL-padded rows."""
    texts = np.array(list(map(repr, values)), dtype=f"S{WIDTH}")
    return texts.view(np.uint8).reshape(-1, WIDTH)


def format_floats(a) -> np.ndarray:
    """The text of ``repr(x)`` for each ``x`` of a 1-D float64 array ``a``, one
    NUL-padded ASCII row each: an ``(a.size, WIDTH)`` uint8 array."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("format_floats takes a 1-D array")
    # each step's temporaries are freed before the next one allocates
    rows, *digits = _fast_digits(a.view(np.uint64))
    if rows.size:
        text = _layout(a.size, rows, *digits)[:, _GAP:]
    else:
        text = np.zeros((a.size, WIDTH), dtype=np.uint8)
    del digits
    if rows.size < a.size:
        slow = np.ones(a.size, dtype=bool)
        slow[rows] = False
        text[slow] = _repr_rows(a[slow].tolist())
    return text


def format_values(a: np.ndarray) -> np.ndarray:
    """``repr`` of each value of ``a.tolist()``, a 1-D integer or float64
    array, as NUL-padded rows. A float64 array of at least ``FLOATFMT_MIN``
    values goes through ``format_floats``, the rest through ``repr`` value
    by value; any other dtype is a ``TypeError``."""
    if a.dtype == np.float64 and a.size >= FLOATFMT_MIN:
        return format_floats(a)
    if a.dtype != np.float64 and a.dtype.kind not in "iu":
        raise TypeError(f"cannot write a {a.dtype} column: only integers and float64")
    return _repr_rows(a.tolist())
