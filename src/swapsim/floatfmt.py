"""Text of computed values, the same bytes as ``repr``.

``write_values`` is the one place where a computed column becomes text. Its
array kernel runs most positive float64 values through Ryū's common path
(U. Adams, "Ryū: fast float-to-string conversion", PLDI 2018) in numpy
``uint64`` arithmetic and lays out those that ``repr`` writes in fixed
notation, ``-4 < decpt <= 16`` where ``x = 0.<digits> * 10**decpt``. Each
value gets a row of ``WIDTH`` bytes (24 characters fit every float64,
``-2.2250738585072014e-308``, and every 64-bit integer) that holds its
characters in order and NULs elsewhere.

The kernel builds a row as three little-endian ``uint64`` words (``<u8``,
whatever the machine's byte order), so that one addition edits eight
bytes. The digits go in right-aligned, ``0``-padded, with a ``0`` where the
point goes; one word-wise addition per row, looked up by the row's layout
(where its text starts and where its point is), then turns the padding
left of the text into NULs and that ``0`` into the point.

The others are handed to ``repr`` itself, and its text is written into
their rows. An integer test on the bits picks them out: negative (``-0.0``
too), zero, subnormal, infinite or NaN, ``x >= 2**54`` (Ryū's ``e2 >= 0``
branch, which would need the inverse table), ``x < 2**-32`` (exponent form
all of it, whose ``5**i`` would not fit a word) and Ryū's general case,
where a scaled interval end may be exact and trailing zeros decide the
rounding (``q <= 1``, or ``4 * m2`` a multiple of ``2**q``; so every
``x >= 2**49``, where ``q <= 2``). In what is left no interval end is
exact, so the last digit dropped alone decides the rounding. The kernel
places the interval ends exactly, from one two-word product by ``5**i``
(``_ends``); the powers of two, whose interval is lopsided, and the values
that ``repr`` writes in exponent form go to ``repr`` as well.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FLOATFMT_MIN", "WIDTH", "write_values"]

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_FRACTION = _U64((1 << 52) - 1)
_HIDDEN = _U64(1 << 52)
WIDTH = 24
# 5**i for every i the fast path reaches; 2 * 5**27 is the largest that fits a word
_POW5 = np.array([5 ** i for i in range(28)], dtype=np.uint64)
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
# the ASCII text of "0000" .. "9999", one little-endian uint32 each
_QUADS = (np.arange(10_000, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1]) % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()

# the fewest floats in a block that go through the kernel (about 0.13 ms
# fixed cost, then 0.1 to 0.3 us a value) and not repr into WIDTH slots
# (0.6 to 1 us a value). Set where an earlier kernel began to win; timed
# block by block in 31 interleaved rounds, this one wins from 256 values,
# but the only column of the bundled configs in between has 404 rows, so a
# lower value waits for an end-to-end measurement (see ROADMAP)
FLOATFMT_MIN = 448


def _plan(biased):
    """Ryū's ``(q, i)`` for biased exponents 1..1076 (``e2 = biased - 1077 < 0``).

    The scaled interval ends are ``floor(m * 5**i / 2**q)`` for
    ``m = 4 * m2 + (-1 - mmShift, 0, 2)``: ``q`` decimal digits are dropped
    at once, and ``i = -e2 - q`` indexes ``_POW5``.
    """
    ne2 = 1077 - biased
    q = ((ne2 * 732923) >> 20) - (ne2 > 1)  # floor(-e2 * log10(5)), less 1 past -e2 = 1
    return q, ne2 - q


def _exponent_table():
    """Ryū's plan for each top 12 bits of a float64 (sign, biased exponent):
    ``5**i``, ``q``, the decimal exponent ``q + e2`` of the scaled ends, the
    mask ``2**q - 1`` of the product's bits below ``q`` (zero off the fast
    path, so that its overlap with ``mv`` marks the fast path), and
    ``_ends``' ``step`` and ``frac``.

    The sign bit is taken as part of the exponent, so every negative value
    is off the fast path, as is every ``e2 >= 0`` (clipped to ``q = 0``) and
    every ``i`` past ``_POW5`` (``x < 2**-32``, zero and subnormals too).
    Exponents off it borrow the plan of a fast one (biased 1000), so the
    rows the kernel computes only to discard stay in its bounds.
    """
    biased = np.arange(4096)
    q, i = _plan(np.clip(biased, 1, 1076))
    fast = (q >= 2) & (i < _POW5.size)
    biased = np.where(fast, biased, 1000)
    q, i = _plan(biased)
    e10 = (q + biased - 1077).astype(np.int16)
    p, q = _POW5[i], q.astype(np.uint64)
    two_p, mask = p << _U64(1), (_U64(1) << q) - _U64(1)
    # 2 * p = step * 2**q + frac (see _ends)
    return p, q, e10, np.where(fast, mask, _U64(0)), two_p >> q, two_p & mask


_EXP_POW5, _EXP_Q, _EXP_E10, _EXP_MASK, _EXP_STEP, _EXP_FRAC = _exponent_table()


def _shapes():
    """The word-wise addition for each row shape ``first * WIDTH + point``,
    as one ``V24`` item each.

    ``first`` is the column of the text's first digit and ``point`` that of
    the point; the digits are ``0``-padded and hold a ``0`` at the point.
    The addition turns the padding into NULs and the point's ``0`` into
    ``.``. No byte borrows from its neighbour, so the words add on their own.
    """
    first, point = (v[:, None] for v in np.divmod(np.arange(WIDTH * WIDTH), WIDTH))
    col = np.arange(WIDTH)
    delta = np.where(col < first, -ord("0"), 0)
    delta += np.where(col == point, ord(".") - ord("0"), 0)
    # sum delta[b] * 256**b word by word, modulo 2**64
    weights = _U64(1) << (np.arange(8, dtype=np.uint64) * _U64(8))
    words = (delta.reshape(-1, 3, 8).view(np.uint64) * weights).sum(axis=2, dtype=np.uint64)
    return words.astype("<u8").view(f"V{WIDTH}").ravel()


_SHAPES = _shapes()


def _notations():
    """Each row's layout in fixed notation by ``(decpt + 3) * 19 + nd``, for
    ``decpt`` -3..16: the power of 10 that gives ``ddd000.0`` its zeros, the
    one at the point, and the row's shape (see ``_shapes``)."""
    dp, nd = np.divmod(np.arange(20 * 19), 19)
    dp, nd = dp - 3, np.maximum(nd, 1)
    after = np.maximum(nd - dp, 1)  # digits after the point
    point = WIDTH - 1 - after
    zeros = _POW10[np.maximum(dp - nd + 1, 0)]
    return zeros, _POW10[np.minimum(after, 19)], (point - np.maximum(dp, 1)) * WIDTH + point


_ZEROS, _POINT, _SHAPE = _notations()


def _ends(mv, p, q, mask, step, frac):
    """Ryū's ``(vr, vp, vm)``, exactly ``floor((mv + k) * p / 2**q)`` for
    ``k = 0, 2, -2``, for ``mv < 2**55``, ``p < 2**63`` and ``2 <= q < 64``.

    ``mv * p`` is formed from 32-bit halves as a high and a low word, which
    give ``vr``. With ``2 * p = step * 2**q + frac``, ``vp`` and ``vm`` are
    ``vr`` plus and minus ``step``, and one more where the product's bits
    below bit ``q`` (``rest``, under ``mask = 2**q - 1``) and ``frac`` carry
    past it (``vp``) or borrow (``vm``).
    """
    s32 = _U64(32)
    a0, a1, b0, b1 = mv & _MASK32, mv >> s32, p & _MASK32, p >> s32
    low = a0 * b0
    mid = a0 * b1 + a1 * b0  # below 2**63 + 2**55
    col = (low >> s32) + (mid & _MASK32)
    low = (col << s32) | (low & _MASK32)
    vr = ((a1 * b1 + (mid >> s32) + (col >> s32)) << (_U64(64) - q)) | (low >> q)
    rest = low & mask
    return vr, vr + step + (rest > mask - frac), vr - step - (rest < frac)


def _shortest(vr, vp, vm, e10):
    """Ryū's common path: the digits ``d``, their count and the exponent ``e``
    of ``x = d * 10**e``, from the scaled interval ``(vm, vp]`` around ``vr``
    and its decimal exponent ``e10``."""
    # drop the most digits r for which a multiple of 10**r lies in (vm, vp],
    # that is floor(vp / 10**r) > floor(vm / 10**r). At every exponent the
    # fast path takes, the width vp - vm is 30..399 and vr has 18 or 19
    # digits (see the tests): one digit always goes, and a further one only
    # where the one before went
    r = np.ones(vr.size, dtype=np.int8)
    for k in (2, 3):
        r += vp // _POW10[k] > vm // _POW10[k]
    rows, k = np.flatnonzero(r == 3), 4
    while rows.size:
        rows = rows[vp[rows] // _POW10[k] > vm[rows] // _POW10[k]]
        r[rows] = k
        k += 1
    unit = _POW10[r]
    d = vr // unit
    kept = d * unit
    # round up past a dropped 5 or more (vr at least kept + unit / 2), or off
    # vm (outside the interval). Rounding up never gains a digit, as 10**k
    # with k >= 1 ends in a zero the loop would have dropped, except from 0
    # (every digit of vr dropped) to 1
    d += (vr - kept >= unit >> _U64(1)) | (vm >= kept)
    return d, np.maximum((vr >= _POW10[18]) + (18 - r), 1), e10 + r


def _layout(d, nd, dp):
    """Rows of text, three ``<u8`` words each, of ``0.<digits> * 10**dp``
    (the ``nd`` digits of ``d``) in fixed notation; a row with ``dp`` outside
    -3..16 gets text of no use."""
    key = (np.clip(dp, -3, 16) + 3) * 19 + nd
    # ddd000.0 gets its zeros, then a 0 goes in at the point: the digits
    # before it move one place up (in 0.000ddd no digit is before it)
    x = d * np.take(_ZEROS, key)
    unit = np.take(_POINT, key)
    x += x // unit * _U64(9) * unit
    groups = np.zeros((x.size, 6), dtype=np.intp)  # "0000" and five groups of four digits
    for g in range(5, 1, -1):
        high = x // _U64(10_000)
        groups[:, g] = x - high * _U64(10_000)
        x = high
    groups[:, 1] = x
    words = np.take(_QUADS, groups).view("<u8")
    words += np.take(_SHAPES, np.take(_SHAPE, key)).view("<u8").reshape(-1, 3)
    return words


def _fast_digits(bits):
    """Each value's digits, digit count and ``decpt``, and whether they are
    right and ``repr`` writes them in fixed notation (the fast path, which
    takes positive values only); the other rows hold digits of no use."""
    top = (bits >> _U64(52)).astype(np.intp)
    mv = ((bits & _FRACTION) | _HIDDEN) << _U64(2)
    mask = np.take(_EXP_MASK, top)
    ends = _ends(mv, np.take(_EXP_POW5, top), np.take(_EXP_Q, top), mask,
                 np.take(_EXP_STEP, top), np.take(_EXP_FRAC, top))
    d, nd, e = _shortest(*ends, np.take(_EXP_E10, top))
    dp = nd + e
    # the powers of two (mv == 2**54) have their lower end at mv - 1
    fast = ((mv & mask) != 0) & (mv != _U64(1 << 54))
    return fast & (dp > -4) & (dp <= 16), d, nd, dp


def _repr_rows(values) -> np.ndarray:
    """``repr`` of each Python number of ``values``, as NUL-padded rows."""
    texts = np.array(list(map(repr, values)), dtype=f"S{WIDTH}")
    return texts.view(np.uint8).reshape(-1, WIDTH)


def _write_floats(out, a):
    """The text of ``repr(x)`` for each ``x`` of a 1-D float64 array ``a``
    into the rows of ``out`` (see ``write_values``)."""
    # each step's temporaries are freed before the next one allocates
    fast, *digits = _fast_digits(a.view(np.uint64))
    out.view(f"V{WIDTH}")[...] = _layout(*digits).view(f"V{WIDTH}")
    del digits
    if not fast.all():
        slow = ~fast
        out[slow] = _repr_rows(a[slow].tolist())


def write_values(out, a):
    """Write ``repr`` of each value of ``a.tolist()``, a 1-D integer or
    float64 array, into the rows of ``out``, an ``(a.size, WIDTH)`` uint8
    array whose rows may lie apart: each row gets its value's characters in
    order and NULs in every other byte.

    A float64 array of at least ``FLOATFMT_MIN`` values goes through the
    kernel, the rest through ``repr`` value by value; any other dtype is a
    ``TypeError``, and any other number of dimensions a ``ValueError``.
    """
    if a.ndim != 1:
        raise ValueError("write_values takes a 1-D array")
    if a.dtype == np.float64 and a.size >= FLOATFMT_MIN:
        _write_floats(out, a)
    elif a.dtype == np.float64 or a.dtype.kind in "iu":
        out[...] = _repr_rows(a.tolist())
    else:
        raise TypeError(f"cannot write a {a.dtype} column: only integers and float64")
