"""Rows of float64 columns as text, byte for byte as Python's ``%.17g`` and ``%.3f``.

``rows_text`` writes a table a chunk of about ``_CHUNK`` float values at a
time with numpy integer arithmetic, with no Python call per value.  One call
per run of adjacent float columns of a template writes each field as a few
8-byte ASCII words (sign, ``0.000`` prefix, leading digits, ``.``, fraction
digits, exponent from a per-decade table, a per-value separator byte) and
the mask of the bytes they show, straight into the chunk's buffer, row-major
in column order; one boolean extraction writes the chunk.

Digits.  For ``%.17g``, an error-free (Dekker) product of |x| with the
double-double 10^s gives y = |x| 10^s as p + t with y in [1e16, 1e17); the
17 correctly rounded digits are round-half-even(y), p an exact integer and
t carrying the rest to within about 1e-14, exactly where 10^s is a double
(0 <= s <= 22, which holds most exact ties; the others, at s = 23 and 24
such as 3 / 2^24, take the near-tie fallback below).  For ``%.3f`` the
product |x| * 1000 = p + t is exact.  A value this path does not decide
exactly -- nan, inf, a nonzero |x| outside [1e-270, 1e288] for ``%.17g`` or
at least 2^40 for ``%.3f``, or an inexact remainder within 1e-9 of a tie --
shows no byte, and Python's own ``%`` text of it goes in at its place.
"""

from __future__ import annotations

import functools

import numpy as np

from .numerics import _split, _two_product

_CHUNK = 1 << 12  # float values per chunk: about 0.5 MB of words and masks
_G_MIN, _G_MAX = 1e-270, 1e288  # no product of the %.17g path under- or overflows here
_F_MAX = 2.0**40
_TIE_BAND = 1e-9  # far above the 1e-14 error of an inexact remainder
_THOUSAND = _split(np.float64(1000.0))
_WORD = np.dtype("<u8")  # byte k of a word is its bits 8k .. 8k+7
_U = np.uint64
_ZEROS = 0x3030303030303030  # eight ASCII "0"


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
    hi, lo = np.array([_power(k) for k in range(first, int(s.max()) + 1)]).T.take(s - first, axis=1)
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
    return x | _U(_ZEROS)


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
def _g17_tables():
    """Bytes shown by a %.17g field, per (sign, decade class, digits kept); and the
    exponent word ("e-ddd", or "ee-dd" shown from byte 1) and class of each decade -270 .. 288."""
    e = np.arange(-270, 289)
    text = b"".join(b"e%+04d\0\0\0" % k if abs(k) >= 100 else b"ee%+03d\0\0\0" % k for k in e.tolist())
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
    ]), np.frombuffer(text, _WORD), np.where((e >= -4) & (e < 17), e + 4, 21 + (abs(e) >= 100))


def _g17(x, sep, chars, mask):
    """Write each '%.17g' % x and its ``sep`` byte into its field, the last axis
    of ``chars`` and ``mask`` (7 words); returns where the field holds it exactly."""
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
    exact &= ((s >= 0) & (s <= 22)) | (np.abs(rest - 0.5) > _TIE_BAND)  # p + t exact where 10^s is a double
    d += (rest > 0.5) | ((rest == 0.5) & ((d & 1) == 1))
    carry = d == 10**17
    d[carry] = 10**16
    decade = 286 - s + carry  # exp10 + 270

    u = d.astype(_U)
    high = u // _U(10**8)
    first = high // _U(10**8)
    mid, low = _eight(high - first * _U(10**8)), _eight(u - high * _U(10**8))
    first = (first - zero + _U(0x30)) << _U(56)
    masks, exponent, cls = _g17_tables()
    chars[..., 0] = _word(b" -0.000") | first
    chars[..., 1] = chars[..., 4] = mid
    chars[..., 2] = chars[..., 5] = low
    chars[..., 3] = _word(b"      .") | first
    chars[..., 6] = exponent.take(decade) | sep << _U(40)

    # digits kept: 17 less the trailing zeros of d1..d16, the high zero bytes of
    # the digit words less "0"; as each byte is at most 9, frexp's exponent of a
    # word as a float is its exact bit length
    zeros = 7 - ((np.frexp((np.stack([low, mid]) ^ _U(_ZEROS)).astype(float))[1] - 1) >> 3)
    kept = 17 - zeros[0] - (zeros[0] == 8) * zeros[1]
    mask[...] = masks.take((np.signbit(x) * _G_CLASSES.size + cls.take(decade)) * 17 + kept - 1, axis=0)
    return exact


# a %.3f field, 3 words: "  -" and 13 integer digits (2^40 has 13) | ".ddd", separator
@functools.cache
def _f3_masks():
    """Bytes shown by a %.3f field, per (sign, integer digits less one)."""
    neg, count = (a.ravel() for a in np.indices((2, 13)))
    return _words([
        np.zeros((1, 2), bool), _shown(0, neg, 1), _shown(12 - count, 13, 13),
        np.ones((1, 5), bool), np.zeros((1, 3), bool),
    ])


def _f3(x, sep, chars, mask):
    """Write each '%.3f' % x and its ``sep`` byte into its field, the last axis
    of ``chars`` and ``mask`` (3 words); returns where the field holds it exactly."""
    a = np.abs(x)
    exact = a < _F_MAX  # False on nan and inf
    a[~exact] = 0.0
    p, t = _two_product(_split(a), _THOUSAND)  # a * 1000 == p + t exactly
    whole = np.floor(p)
    rest = p - whole  # exact, and a multiple of ulp(p) > 2 |t|: only rest == 0.5 needs t
    r = whole.astype(np.int64)
    r += (rest > 0.5) | ((rest == 0.5) & ((t > 0) | ((t == 0) & ((r & 1) == 1))))
    integer, fraction = np.divmod(r, 1000)

    high = integer // 10**8
    chars[..., 0] = _eight(high) & ~_U(0xFF0000) | _word(b"  -")
    chars[..., 1] = _eight(integer - high * 10**8)
    chars[..., 2] = (_eight(fraction) >> _U(32)) & _U(0xFFFFFF00) | _word(b".") | sep << _U(32)
    count = np.searchsorted(10 ** np.arange(1, 13), integer, side="right")  # digits less one
    mask[...] = _f3_masks().take(np.signbit(x) * 13 + count, axis=0)
    return exact


_FORMATS = {"%.17g": (_g17, 7), "%.3f": (_f3, 3)}  # writer and field width in words


def _strings(strings, sep: int):
    """UTF-8 strings, each followed by ``sep``, as rows of words and masks."""
    data = [s.encode() for s in strings]
    lengths = np.fromiter(map(len, data), np.int64, len(data))
    width = 8 * (int(lengths.max(initial=0)) // 8 + 1)
    chars = np.array(data, dtype=f"S{width}").view(np.uint8).reshape(len(data), width)
    chars[np.arange(len(data)), lengths] = sep
    return chars.view(_WORD), _shown(0, lengths + 1, width).view(_WORD)


def _chunk(columns, marks) -> str:
    """The rows of one chunk, each run of float columns written by one call."""
    rows = len(columns[0][1])
    # (template, first, stop): a string column, or adjacent float columns of one template
    firsts = [j for j, (t, _) in enumerate(columns) if t == "%s" or j == 0 or columns[j - 1][0] != t]
    runs = [(columns[j][0], j, stop) for j, stop in zip(firsts, firsts[1:] + [len(columns)])]
    strings = {j: _strings(columns[j][1], marks[j]) for t, j, _ in runs if t == "%s"}
    starts = np.cumsum([0] + [strings[j][0].shape[1] if t == "%s" else _FORMATS[t][1] * (stop - j)
                              for t, j, stop in runs]).tolist()
    chars, mask = np.empty((2, rows, starts[-1]), _WORD)
    slow = []
    for (template, j, stop), lo, hi in zip(runs, starts, starts[1:]):
        if template == "%s":
            chars[:, lo:hi], mask[:, lo:hi] = strings[j]
            continue
        write, width = _FORMATS[template]
        x = np.stack([values for _, values in columns[j:stop]], axis=1, dtype=float)
        words, shown = (a[:, lo:hi].reshape(rows, stop - j, width) for a in (chars, mask))  # views
        exact = write(x, marks[j:stop], words, shown)
        if exact.all():
            continue
        shown[~exact] = 0
        for (r, i), value in zip(np.argwhere(~exact).tolist(), x[~exact].tolist()):
            slow.append((8 * (r * starts[-1] + lo + i * width), template % value + chr(marks[j + i])))
    text = chars.view(np.uint8).ravel()[mask.view(bool).ravel()]
    if slow:  # a field Python writes shows no byte: its ASCII text goes after the bytes before it
        at, fields = zip(*sorted(slow))
        at = np.cumsum(mask.view(np.uint8).ravel(), dtype=np.int64)[list(at)].repeat(list(map(len, fields)))
        text = np.insert(text, at, np.frombuffer("".join(fields).encode(), np.uint8))
    return str(text, "utf-8")


def rows_text(columns, end: str, head: str = "") -> str:
    """``head``, then the rows of ``columns``, fields joined by "," and each
    row ended by ``end``, in one join.

    ``columns`` is a list of (template, values) of equal length: "%.17g" or
    "%.3f" with a float64 array, written byte for byte as ``template %
    value``, or "%s" with a list of strings, written as they are.  ``end``
    is a single ASCII character.
    """
    rows = len(columns[0][1]) if columns else 0
    marks = np.array([ord(",")] * (len(columns) - 1) + [ord(end)], _U)
    step = max(_CHUNK // max(sum(t != "%s" for t, _ in columns), 1), 1)
    return "".join([head] + [_chunk([(t, v[lo:lo + step]) for t, v in columns], marks)
                             for lo in range(0, rows, step)])
