"""Rows of float64 columns as text, byte for byte as Python's ``%.17g`` and ``%.3f``.

``rows_text`` writes a table a chunk of rows at a time with numpy integer
arithmetic, with no Python call per value.  Each field of a row is a few
fixed 8-byte words of ASCII (sign, ``0.000`` prefix, leading digits, ``.``,
fraction digits, exponent, separator) and a mask of the bytes it shows,
looked up per row from the field's layout; one boolean compression per
chunk writes every row.

Digits.  For ``%.17g``, an error-free (Dekker) product of |x| with the
double-double 10^s gives y = |x| 10^s as p + t with y in [1e16, 1e17); the
17 correctly rounded digits are round-half-even(y), p an exact integer and
t carrying the rest to within about 1e-14, exactly where 10^s is a double
(0 <= s <= 22, which holds most exact ties; the others, at s = 23 and 24
such as 3 / 2^24, take the near-tie fallback below).  For
``%.3f`` the product |x| * 1000 = p + t is exact.  A value this path does
not decide exactly -- nan, inf, a nonzero |x| outside [1e-270, 1e288] for
``%.17g`` or at least 2^40 for ``%.3f``, or an inexact remainder within
1e-9 of a tie -- is written by Python's own ``%`` formatting in place of
its field.
"""

from __future__ import annotations

import functools

import numpy as np

from .numerics import _split, _two_product

_CHUNK = 1 << 12  # rows per chunk: about 1 MB of work arrays, reused rather than mapped afresh
_G_MIN, _G_MAX = 1e-270, 1e288  # no product of the %.17g path under- or overflows here
_F_MAX = 2.0**40
_TIE_BAND = 1e-9  # far above the 1e-14 error of an inexact remainder
_THOUSAND = _split(np.float64(1000.0))
_WORD = np.dtype("<u8")  # byte k of a word is its bits 8k .. 8k+7
_U = np.uint64


def _word(text: bytes) -> np.uint64:
    return np.frombuffer(text.ljust(8, b"\0"), _WORD)[0]


@functools.cache  # at most one entry per decade of [_G_MIN, _G_MAX]
def _power(s: int) -> tuple[float, float]:
    """10^s as a double-double hi + lo, each correctly rounded."""
    if s >= 0:
        exact = 10**s
        hi = float(exact)
        return hi, float(exact - int(hi))
    hi = 1 / 10**-s  # int / int rounds correctly
    num, den = hi.as_integer_ratio()
    return hi, (den - num * 10**-s) / (den * 10**-s)


def _scaled(a, s):
    """a * 10^s as p + t for each entry, p = fl(a * hi) and t the rest."""
    first = int(s.min())
    hi, lo = np.array([_power(k) for k in range(first, int(s.max()) + 1)]).T
    hi, lo = hi.take(s - first), lo.take(s - first)
    p, e = _two_product(_split(a), _split(hi))
    return p, e + a * lo


def _eight(v):
    """Each 0 <= v < 10^8 as a word of its eight ASCII digits, most significant first.

    Two 4-digit halves in 32-bit lanes, then four 2-digit quarters in 16-bit
    lanes, then eight digits in bytes; x * 5243 >> 19 is x // 100 below
    10^4 and x * 103 >> 10 is x // 10 below 100.
    """
    v = v.astype(_U)
    hi = v // _U(10000)
    x = hi | (v - hi * _U(10000)) << _U(32)
    hi = (x * _U(5243)) >> _U(19) & _U(0x0000007F0000007F)
    x = hi | (x - hi * _U(100)) << _U(16)
    hi = (x * _U(103)) >> _U(10) & _U(0x000F000F000F000F)
    x = hi | (x - hi * _U(10)) << _U(8)
    return x | _U(0x3030303030303030)


def _shown(start, stop, width: int):
    """Mask of the positions [start, stop) of a block ``width`` wide, a row per entry."""
    pos = np.arange(width)
    return (pos >= np.reshape(start, (-1, 1))) & (pos < np.reshape(stop, (-1, 1)))


def _words(masks: list) -> np.ndarray:
    """Boolean blocks side by side, as rows of words."""
    rows = max(len(m) for m in masks)
    return np.hstack([np.broadcast_to(m, (rows, m.shape[1])) for m in masks]).view(_WORD)


# a %.17g field, 7 words: " -0.000" d0 | d1..d8 | d9..d16 | "      ." d0 | d1..d8 |
# d9..d16 | "e+ddd" or " e+dd", separator
_G_CLASSES = np.array([*range(-4, 17), 17, 100])  # the 21 fixed decades, then e+dd and e+ddd


@functools.cache
def _g17_masks():
    """Bytes shown by a %.17g field, per (sign, decade class, digits kept)."""
    neg, cls, kept = (a.ravel() for a in np.indices((2, _G_CLASSES.size, 17)))
    exp10, kept = _G_CLASSES[cls], kept + 1
    fixed = cls < 21
    small = fixed & (exp10 < 0)
    lead = np.where(fixed, np.maximum(exp10 + 1, 0), 1)
    start = np.where(cls == 22, 0, 1)
    off, on = np.zeros((1, 1), bool), np.ones((1, 1), bool)
    return _words([
        off, _shown(0, neg, 1), _shown(0, np.where(small, 1 - exp10, 0), 5),
        _shown(0, lead, 17), np.zeros((1, 6), bool), _shown(0, (kept > lead) & ~small, 1),
        _shown(lead, kept, 17), _shown(start, np.where(fixed, start, 5), 5), on, off, off,
    ])


def _g17(x, sep: int):
    """'%.17g' % x as rows of words and masks, and the rows they write exactly."""
    a = np.abs(x)
    zero = a == 0.0  # written as 1, then its digit set to 0
    exact = zero | ((a >= _G_MIN) & (a <= _G_MAX))  # False on nan
    a[zero | ~exact] = 1.0
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, s)
    # np.log10 can miss the decade by one next to a power of ten
    shift = ((p < 1e16) | ((p == 1e16) & (t < 0))).astype(np.int64)
    shift -= (p > 1e17) | ((p == 1e17) & (t >= 0))
    if shift.any():
        s += shift
        p, t = _scaled(a, s)
    whole = np.floor(t)
    rest = t - whole
    d = p.astype(np.int64) + whole.astype(np.int64)  # floor(|x| 10^s)
    ties_exact = (s >= 0) & (s <= 22)  # 10^s is a double: p + t is exact
    exact &= ties_exact | (np.abs(rest - 0.5) > _TIE_BAND)
    d += (rest > 0.5) | ((rest == 0.5) & ((d & 1) == 1))
    carry = d == 10**17
    d[carry] = 10**16
    exp10 = 16 - s + carry

    u = d.astype(_U)
    first = u // _U(10**16)
    mid = u // _U(10**8) - first * _U(10**8)
    chars = np.empty((x.size, 7), _WORD)
    first = (first - zero + _U(0x30)) << _U(56)
    chars[:, 0] = _word(b" -0.000") | first
    chars[:, 1] = chars[:, 4] = _eight(mid)
    chars[:, 2] = chars[:, 5] = _eight(u - u // _U(10**8) * _U(10**8))
    chars[:, 3] = _word(b"      .") | first
    # exponent: "e" sign h t o, or "ee" sign t o shown from its second byte
    e = np.abs(exp10).astype(_U)
    three = e >= 100
    sign = _U(ord("+")) + _U(2) * (exp10 < 0).astype(_U)  # "+" or "-"
    ddd = _eight(e)  # its last three bytes: h t o
    two_pair = _U(ord("e")) | sign << _U(8)
    three_pair = sign | (ddd >> _U(40) & _U(0xFF)) << _U(8)
    pair = two_pair + three * (three_pair - two_pair)  # wraps mod 2^64 either way
    chars[:, 6] = _word(b"e") | pair << _U(8) | (ddd >> _U(48)) << _U(24) | _U(sep) << _U(40)

    # digits kept: 17 less the trailing zeros, counted 16, 8, 4, 2, 1 at a time
    kept = np.full(x.size, 17)
    for k in (16, 8, 4, 2, 1):
        q = d // 10**k
        zeros = q * 10**k == d
        kept -= k * zeros
        d += zeros * (q - d)
    fixed = (exp10 >= -4) & (exp10 < 17)
    cls = fixed * (exp10 + 4) + ~fixed * (21 + three)
    code = (np.signbit(x) * _G_CLASSES.size + cls) * 17 + kept - 1
    return chars, _g17_masks().take(code, axis=0), exact


# a %.3f field, 3 words: "  -" and 13 integer digits (2^40 has 13) | ".ddd", separator
@functools.cache
def _f3_masks():
    """Bytes shown by a %.3f field, per (sign, integer digits less one)."""
    neg, count = (a.ravel() for a in np.indices((2, 13)))
    return _words([
        np.zeros((1, 2), bool), _shown(0, neg, 1), _shown(12 - count, 13, 13),
        np.ones((1, 5), bool), np.zeros((1, 3), bool),
    ])


def _f3(x, sep: int):
    """'%.3f' % x as rows of words and masks, and the rows they write exactly."""
    a = np.abs(x)
    exact = a < _F_MAX  # False on nan and inf
    a[~exact] = 0.0
    p, t = _two_product(_split(a), _THOUSAND)  # a * 1000 == p + t exactly
    whole = np.floor(p)
    rest = p - whole  # exact, and a multiple of ulp(p) > 2 |t|: only rest == 0.5 needs t
    r = whole.astype(np.int64)
    r += (rest > 0.5) | ((rest == 0.5) & ((t > 0) | ((t == 0) & ((r & 1) == 1))))
    integer = r // 1000
    fraction = r - integer * 1000

    chars = np.empty((x.size, 3), _WORD)
    high = integer // 10**8
    chars[:, 0] = _eight(high) & ~_U(0xFF0000) | _word(b"  -")
    chars[:, 1] = _eight(integer - high * 10**8)
    chars[:, 2] = (_eight(fraction) >> _U(32)) & _U(0xFFFFFF00) | _word(b".") | _U(sep) << _U(32)
    count = sum(integer >= 10**k for k in range(1, 13))
    return chars, _f3_masks().take(np.signbit(x) * 13 + count, axis=0), exact


_FORMATS = {"%.17g": _g17, "%.3f": _f3}


def _strings(strings, sep: int):
    """UTF-8 strings, each followed by ``sep``, as rows of words and masks."""
    data = [s.encode() for s in strings]
    lengths = np.fromiter(map(len, data), np.int64, len(data))
    width = 8 * (int(lengths.max(initial=0)) // 8 + 1)
    chars = np.array(data, dtype=f"S{width}").view(np.uint8).reshape(len(data), width)
    chars[np.arange(len(data)), lengths] = sep
    return chars.view(_WORD), _shown(0, lengths + 1, width).view(_WORD)


def _field(template: str, values, sep: int):
    """Words and masks of one column of a chunk: a float64 array as ``template``, or strings."""
    if template == "%s":
        return _strings(values, sep)
    x = np.asarray(values, dtype=float)
    chars, mask, exact = _FORMATS[template](x, sep)
    slow = np.flatnonzero(~exact)
    if slow.size:  # Python's own formatting, in place of the row's field
        text, shown = _strings([template % v for v in x[slow].tolist()], sep)
        width = max(chars.shape[1], text.shape[1])
        chars = np.pad(chars, ((0, 0), (0, width - chars.shape[1])))
        mask = np.pad(mask, ((0, 0), (0, width - mask.shape[1])))
        chars[slow, :text.shape[1]] = text
        mask[slow] = 0
        mask[slow, :text.shape[1]] = shown
    return chars, mask


def rows_text(columns, sep: str, end: str) -> str:
    """Rows of ``columns``, fields joined by ``sep`` and each row ended by ``end``.

    ``columns`` is a list of (template, values) of equal length: "%.17g" or
    "%.3f" with a float64 array, written byte for byte as ``template %
    value``, or "%s" with a list of strings, written as they are.  ``sep``
    and ``end`` are single ASCII characters.
    """
    rows = len(columns[0][1]) if columns else 0
    marks = [ord(sep)] * (len(columns) - 1) + [ord(end)]
    out = []
    for lo in range(0, rows, _CHUNK):
        fields = [
            _field(template, values[lo:lo + _CHUNK], mark)
            for (template, values), mark in zip(columns, marks)
        ]
        chars = np.hstack([c for c, _ in fields]).view(np.uint8)
        mask = np.hstack([m for _, m in fields]).view(bool)
        out.append(str(np.compress(mask.ravel(), chars.ravel()), "utf-8"))
    return "".join(out)
