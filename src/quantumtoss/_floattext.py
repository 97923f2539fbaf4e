"""Rows of float64 columns as text, byte for byte as Python's ``%.17g`` and ``%.3f``.

``rows_text`` writes a table a chunk of ``_CHUNK`` float values at a time with
numpy integer arithmetic, with no Python call per value.  Each field is a slot
of 8-byte words in the chunk's buffer, row-major in column order: 4 words for
``%.17g``, 2 for ``%.3f``.  A slot holds the field's text and separator byte
as one unbroken run of bytes, and a byte mask of that run comes from a table,
so one boolean extraction copies one run per field.  One call per run of
adjacent float columns of a template writes all their fields.

Digits come four at a time from a cached table of the ASCII words "0000" ..
"9999" and their trailing zeros.  A ``%.17g`` slot holds the sign and
"0.000" prefix, the first digit, then the other 16 digits; those after the
decimal point move one byte up (a word plus 255 times its bytes to move),
and the exponent and separator are shifted in right after the digits kept.

For ``%.17g``, an error-free (Dekker) product of |x| with the double-double
10^s of a cached table gives y = |x| 10^s as p + t with y in [1e16, 1e17);
s comes from the binary exponent of x and one comparison with the least
double at or above a power of ten.  The 17 correctly rounded digits are
round-half-even(y), p an exact integer and t carrying the rest to within
about 1e-14, exactly where 10^s is a double (0 <= s <= 22, which holds most
exact ties; the others, at s = 23 and 24 such as 3 / 2^24, take the near-tie
fallback below).  For ``%.3f`` the product |x| * 1000 = p + t is exact.  A
value this path does not decide exactly -- nan, inf, a nonzero |x| outside
[_G_MIN, _G_MAX) for ``%.17g`` or at least _F_MAX for ``%.3f``, or an inexact
remainder within 1e-9 of a tie -- shows no byte, and Python's own ``%`` text
of it goes in at its place.  The tables are built at the first call.
"""

from __future__ import annotations

import functools
import itertools
import math
from types import SimpleNamespace

import numpy as np

from .numerics import _SPLIT, _split, _two_product

_CHUNK = 8192  # float values per chunk: 0.5 MB of %.17g words and masks
_G_MIN, _G_MAX = 2.0**-896, 2.0**956  # 1.9e-270, 6.1e287: no product of the %.17g path under- or overflows
_F_MAX = 2.0**33  # a %.3f integer part of at most 10 digits
_TIE_BAND = 1e-9  # far above the 1e-14 error of an inexact remainder
_THOUSAND = _split(np.float64(1000.0))
_P_MIN, _P_MAX = -272, 288  # the powers of ten 10^k of the tables
_U = np.uint64


def _words(blocks) -> np.ndarray:
    """Byte blocks (..., 8 w) as rows of ``w`` little-endian words."""
    blocks = np.ascontiguousarray(blocks, dtype=np.uint8)
    return blocks.view("<u8").reshape(-1, blocks.shape[-1] // 8)


@functools.cache
def _digits():
    """The 10^4 words "0000" .. "9999" (first digit in the low byte), and the
    trailing zeros of each (4 for "0000")."""
    pairs = np.array([int.from_bytes(b"%02d" % k, "little") for k in range(100)], _U)
    zeros = np.array([2] + [0] * 9 + ([1] + [0] * 9) * 9, np.uint8)
    return (pairs[:, None] | pairs << _U(16)).ravel(), (zeros + (zeros == 2) * zeros[:, None]).ravel()


def _power(s: int) -> tuple[float, float]:
    """10^s as a double-double hi + lo, each correctly rounded."""
    if s >= 0:
        exact = 10**s
        hi = float(exact)
        return hi, float(exact - int(hi))
    hi = 1 / 10**-s  # int / int rounds correctly
    num, den = hi.as_integer_ratio()
    return hi, (den - num * 10**-s) / (den * 10**-s)


@functools.cache
def _powers():
    """10^k for k = _P_MIN .. _P_MAX as a double-double (hi, lo): the product
    of those of 10^(32 q) and 10^r, r = k mod 32, exact for 0 <= k <= 22."""
    k = np.arange(_P_MIN, _P_MAX + 1)
    q = k >> 5
    big = np.array([_power(32 * j) for j in range(_P_MIN >> 5, (_P_MAX >> 5) + 1)]).T[:, q - (_P_MIN >> 5)]
    small = np.array([_power(r) for r in range(32)]).T[:, k - (q << 5)]
    p, e = _two_product(_split(big[0]), _split(small[0]))
    e += big[0] * small[1] + big[1] * small[0]
    hi = p + e
    return hi, e - (hi - p)


# a %.17g field, 4 words: the sign and "0.000" prefix ending at byte 6, the
# first digit at byte 7 and the other 16 at bytes 8 .. 23; the digits after
# the point move one byte up, and the exponent and separator follow the
# digits kept.  The class of a field is its decade -4 .. 16 (fixed notation),
# or an exponent of 2 or 3 digits.
_CLASSES = 23


@functools.cache
def _g17_tables():
    """The cached tables of ``_g17``, built with numpy arithmetic at the first call."""
    hi, lo = _powers()
    text, zeros = _digits()

    # by the biased binary exponent of |x|: whether the fast path takes it, the
    # power index of 10^s for s = 16 - floor(log10 2^e), and the least double
    # at or above the next power of ten, where the decade goes up by one
    ok = np.zeros(2048, bool)
    ok[1023 + int(math.log2(_G_MIN)):1023 + int(math.log2(_G_MAX))] = True
    low = (np.arange(-1023, 1025) * 78913 >> 18) * ok  # floor(e log10 2) for |e| < 1650
    up = low + (1 - _P_MIN)
    threshold = (hi[up].view(np.int64) + (lo[up] > 0)).view(float)

    # by class: the point after digit P (17: none), the length of the prefix
    # "0.00.." and of the exponent, and the bytes of the digit words 1 and 2
    # that move up; by power index, from the decade 16 - _P_MIN down: the class
    # and its exponent text
    point = [17] * 4 + list(range(1, 18)) + [1, 1]
    prefix = [5, 4, 3, 2] + [0] * 19
    elen = [0] * 21 + [4, 5]
    ones = (1 << 64) - 1
    moves = [[ones << 8 * p - 8 & ones, ones << 8 * max(p - 9, 0) & ones] for p in point]
    # the decades 16 - _P_MIN .. 100 have 3 exponent digits, 99 .. 17 two, 16 .. -4
    # are the fixed classes 20 .. 0, -5 .. -99 have two and -100 .. 16 - _P_MAX three
    cls = np.array([22] * (16 - _P_MIN - 99) + [21] * 83 + [*range(20, -1, -1)] + [21] * 95 + [22] * (_P_MAX - 115))
    dec = np.arange(16 - _P_MIN, 15 - _P_MAX, -1)
    wide = (dec >= 100) | (dec <= -100)
    exponent = text[dec * (1 - 2 * (dec < 0))] >> (_U(16) - _U(8) * wide) << _U(16)
    exponent |= _U(ord("e")) | (_U(ord("+")) + _U(2) * (dec < 0)) << _U(8)
    exponent *= cls >= 21

    # by (class c, digits kept K), an entry 17 c + K - 1: the XOR of words 1 .. 3
    # that puts in the point where it shows and clears the digits from byte r
    # on, where the exponent and separator go; by (sign, class, K), the run of
    # bytes shown, and with the first digit, word 0
    c = np.arange(_CLASSES * 17) // 17
    kept = np.arange(_CLASSES * 17) - 17 * c + 1
    P, z = np.array(point)[c], np.array(prefix)[c]
    shows = kept > P
    r = 7 + kept + (P - kept) * (~shows & (z == 0)) + shows
    pos = np.arange(8, 32)
    dot = pos == (7 + P)[:, None]
    cleared = (pos >= r[:, None]) & (pos <= (24 - (P == 17))[:, None]) & ~dot  # digits not kept
    xor = (dot & shows[:, None]) * np.uint8(ord(".")) + cleared * np.uint8(ord("0"))
    start = 7 - z - np.arange(2)[:, None]
    pos = np.arange(32)
    masks = _words((pos >= start[..., None]) & (pos < (r + np.array(elen)[c] + 1)[:, None]))
    word0 = [int.from_bytes((sign + "0.000"[:n]).encode().rjust(7, b"\0"), "little")
             for sign in ("", "-") for n in prefix]
    word0 = np.array(word0, _U).repeat(17)[:, None] | np.arange(ord("0"), ord(":"), dtype=_U) << _U(56)

    # by digit group j and its value: the place of its last nonzero digit
    # among d1 .. d16, 0 if none
    last = np.uint8(4) - zeros
    last = ((last + np.arange(0, 16, 4, dtype=np.uint8)[:, None]) * (last != 0)).ravel()
    return SimpleNamespace(
        ok=ok, index=16 - low - _P_MIN, threshold=threshold, power=(*_split(hi), lo),
        exponent=exponent, shift=np.array(elen, _U)[cls] * _U(8), row=17 * cls, moves=np.array(moves, _U)[cls].T,
        xor=_words(xor).T, at=(8 * r).astype(_U), masks=masks, word0=word0.ravel(),
        last=last, offsets=np.arange(4)[:, None] * 10**4,
    )


def _scaled(x, t):
    """|x| 10^s in [1e16, 1e17) as p + rest, by the error-free product of
    ``_two_product`` done in place; the power index of s, and where the fast
    path takes x."""
    a = np.abs(x)
    e = a.view(np.int64) >> 52
    ok = t.ok.take(e)
    a[~ok] = 1.0
    ip = t.index.take(e)
    ip -= a >= t.threshold.take(e)
    del e
    ah = a * _SPLIT  # a = ah + al, as _split
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    p, hh, hl = (h.take(ip) for h in t.power[:3])
    p *= a
    rest = ah * hh
    rest -= p
    ah *= hl
    rest += ah
    hh *= al
    rest += hh
    al *= hl
    rest += al
    del ah, al, hh, hl
    lo = t.power[3].take(ip)
    lo *= a
    rest += lo
    return p, rest, ip, ok


def _rounded17(x, t):
    """The 17 digits of each |x| rounded as an integer d, the power index of
    the 10^s that scaled it, and where the fast path holds it exactly."""
    p, rest, ip, exact = _scaled(x, t)
    exact |= x == 0.0  # 0 is written as 1, then its digit set to 0
    whole = np.floor(rest)
    rest -= whole
    d = p.astype(np.int64)
    d += whole.astype(np.int64)  # floor(|x| 10^s)
    d += rest > 0.5
    near = np.abs(rest - 0.5) <= _TIE_BAND
    if near.any():  # p + rest is exact where 10^s is a double
        exact &= ~near | (t.power[3].take(ip) == 0.0)
        d += (rest == 0.5) & ((d & 1) == 1)
    carry = d == 10**17
    if carry.any():
        d[carry] = 10**16
        ip -= carry
    return d, ip, exact


def _g17(x, sep, chars, mask):
    """Write each '%.17g' % x and its ``sep`` byte into its field, the last axis
    of ``chars`` and ``mask`` (4 words); returns where the field holds it exactly.

    Each array is dropped once used, as the chunk's working set sets the
    peak memory of the largest tables.
    """
    t = _g17_tables()
    shape, x = x.shape, x.ravel()
    d, ip, exact = _rounded17(x, t)

    # d0, then d1 .. d16 as four 4-digit groups, a row each: the ASCII words of
    # d1 .. d16, and how many of them are kept (up to the last nonzero one)
    first = d // 10**16
    d -= first * 10**16
    groups = np.empty((4, x.size), np.int64)
    np.floor_divide(d, 10**8, out=groups[1])
    np.subtract(d, groups[1] * 10**8, out=groups[3])
    del d
    np.floor_divide(groups[1::2], 10**4, out=groups[::2])
    groups[1::2] -= groups[::2] * 10**4
    text, _ = _digits()
    w1, w2 = (text.take(g) for g in groups[1::2])
    w1 <<= _U(32)
    w1 |= text.take(groups[0])
    w2 <<= _U(32)
    w2 |= text.take(groups[2])
    groups += t.offsets
    c = t.last.take(groups).max(axis=0)
    del groups
    c = t.row.take(ip) + c  # (class, digits kept less one)
    index = np.signbit(x) * (_CLASSES * 17) + c
    np.take(t.masks, index.reshape(shape), axis=0, out=mask, mode="clip")  # "clip" fills a contiguous out in place
    index *= 10
    index += first
    index -= x == 0.0
    chars[..., 0] = t.word0.take(index).reshape(shape)
    del x, index, first

    # words 1 .. 3: the digits after the point one byte up, the point put in and
    # the digits not kept cleared, then the exponent and separator at byte r
    tail = (t.exponent.take(ip).reshape(shape) | sep << t.shift.take(ip).reshape(shape)).ravel()
    move, up = (m.take(ip) for m in t.moves)
    del ip
    at = t.at.take(c)
    move &= w1
    w1 += move * _U(255)
    w1 ^= t.xor[0].take(c)
    np.bitwise_or(w1.reshape(shape), (tail << (at - _U(64))).reshape(shape), out=chars[..., 1])
    del w1
    move >>= _U(56)
    up &= w2
    w2 += up * _U(255)
    w2 += move
    w2 ^= t.xor[1].take(c)
    w2 |= tail << (at - _U(128))
    np.bitwise_or(w2.reshape(shape), (tail >> (_U(128) - at)).reshape(shape), out=chars[..., 2])
    del w2
    up >>= _U(56)
    up ^= t.xor[2].take(c)
    up |= tail << (at - _U(192))
    np.bitwise_or(up.reshape(shape), (tail >> (_U(192) - at)).reshape(shape), out=chars[..., 3])
    return exact.reshape(shape)


# a %.3f field, 2 words: a pad digit, 10 integer digits | ".ddd", separator;
# the pad digit before the first shown one becomes "-"
@functools.cache
def _f3_tables():
    """By (sign, integer digits less one): the "-" as a difference of word 0
    and of word 1, and the bytes shown; by the binary exponent of the integer
    part: its digits less one were it below the next power of ten, and that
    power; and ".000" .. ".999" at bytes 3 .. 6."""
    neg, count = np.arange(2)[:, None, None], np.arange(1, 11)[None, :, None]
    pos = np.arange(16)[None, None, :]
    minus = _words(np.where((neg == 1) & (pos == 10 - count), ord("0") - ord("-"), 0)).T.copy()
    shown = _words(np.broadcast_to(pos >= 11 - count - neg, (2, 10, 16)))
    low = np.arange(-1023, 1025).clip(0, 40) * 78913 >> 18  # floor(e log10 2)
    text, _ = _digits()
    return minus, shown, low, 10 ** (low + 1), (text[:1000] & _U(0xFFFFFF00) | _U(ord("."))) << _U(24)


def _f3(x, sep, chars, mask):
    """Write each '%.3f' % x and its ``sep`` byte into its field, the last axis
    of ``chars`` and ``mask`` (2 words); returns where the field holds it exactly."""
    shape, x = x.shape, x.ravel()
    a = np.abs(x)
    exact = a < _F_MAX  # False on nan and inf
    a = np.where(exact, a, 0.0)
    p = a * 1000.0
    whole = np.floor(p)
    p -= whole  # exact, and a multiple of ulp(p) > 2 |t| for a * 1000 == p + t
    r = whole.astype(np.int64)
    r += p > 0.5
    tie = p == 0.5
    if tie.any():  # the sign of t decides, and the even digit where t == 0
        _, t = _two_product(_split(a[tie]), _THOUSAND)
        r[tie] += (t > 0) | ((t == 0) & ((r[tie] & 1) == 1))
    integer = r // 1000
    r -= integer * 1000
    top = integer // 10**8
    low = integer - top * 10**8
    mid = low // 10**4
    low -= mid * 10**4
    text, _ = _digits()
    minus, shown, digits, limit, dot = _f3_tables()
    low = text.take(low)
    w0 = text.take(top) >> _U(8)
    w0 |= text.take(mid) << _U(24)
    w0 |= low << _U(56)
    low >>= _U(8)
    low |= dot.take(r)
    e = integer.astype(float).view(np.int64) >> 52
    i = digits.take(e) + (integer >= limit.take(e)) + np.signbit(x) * 10
    w0 -= minus[0].take(i)
    low -= minus[1].take(i)
    chars[..., 0] = w0.reshape(shape)
    np.bitwise_or(low.reshape(shape), sep << _U(56), out=chars[..., 1])
    mask[...] = shown.take(i, axis=0).reshape(mask.shape)
    return exact.reshape(shape)


_FORMATS = {"%.17g": (_g17, 4), "%.3f": (_f3, 2)}  # writer and field width in words


def _shown(start, stop, width: int):
    """Mask of the positions [start, stop) of a block ``width`` wide, a row per entry."""
    pos = np.arange(width)
    return (pos >= np.reshape(start, (-1, 1))) & (pos < np.reshape(stop, (-1, 1)))


def _strings(strings, sep: int):
    """UTF-8 strings, each followed by ``sep``, as rows of words and masks."""
    data = [s.encode() for s in strings]
    lengths = np.fromiter(map(len, data), np.int64, len(data))
    width = 8 * (int(lengths.max(initial=0)) // 8 + 1)
    chars = np.array(data, dtype=f"S{width}").view(np.uint8).reshape(len(data), width)
    chars[np.arange(len(data)), lengths] = sep
    return chars.view("<u8"), _shown(0, lengths + 1, width).view("<u8")


def _chunk(columns, marks) -> str:
    """The rows of one chunk, each run of float columns written by one call."""
    rows = len(columns[0][1])
    # (template, first, stop): a string column, or adjacent float columns of one template
    firsts = [j for j, (t, _) in enumerate(columns) if t == "%s" or j == 0 or columns[j - 1][0] != t]
    runs = [(columns[j][0], j, stop) for j, stop in zip(firsts, firsts[1:] + [len(columns)])]
    strings = {j: _strings(columns[j][1], marks[j]) for t, j, _ in runs if t == "%s"}
    starts = list(itertools.accumulate([strings[j][0].shape[1] if t == "%s" else _FORMATS[t][1] * (stop - j)
                                        for t, j, stop in runs], initial=0))
    chars, mask = np.empty((2, rows, starts[-1]), "<u8")
    slow = []
    for (template, j, stop), lo, hi in zip(runs, starts, starts[1:]):
        if template == "%s":
            chars[:, lo:hi], mask[:, lo:hi] = strings[j]
            continue
        write, width = _FORMATS[template]
        words, shown = (a[:, lo:hi].reshape(rows, stop - j, width) for a in (chars, mask))  # views
        exact = write(np.stack([v for _, v in columns[j:stop]], axis=1, dtype=float), marks[j:stop], words, shown)
        if exact.all():
            continue
        shown[~exact] = 0
        values = np.stack([v for _, v in columns[j:stop]], axis=1, dtype=float)[~exact]
        for (r, i), value in zip(np.argwhere(~exact).tolist(), values.tolist()):
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
