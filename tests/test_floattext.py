"""The chunked float writer against Python's own '%.17g' and '%.3f'."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantumtoss
from quantumtoss import svgplot
from quantumtoss._floattext import (
    _CHUNK, _F_MAX, _G_MAX, _G_MIN, _P_MAX, _P_MIN, _digits, _g17, _g17_tables, _powers, rows_text,
)
from quantumtoss.reports import write_csv
from quantumtoss.svgplot import render_svg

from oracles import csv_reference, polyline_reference

TEMPLATES = ("%.17g", "%.3f")


def same_lines(got, want):
    """First differing line of two texts, or None (a cheap failure report)."""
    got, want = got.split("\n"), want.split("\n")
    bad = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w), None)
    if bad is None and len(got) != len(want):
        bad = min(len(got), len(want))
    return None if bad is None else (bad, got[bad:bad + 1], want[bad:bad + 1])


def check(x):
    x = np.asarray(x, dtype=float)
    for template in TEMPLATES:
        want = "".join(template % v + "\n" for v in x.tolist())
        assert same_lines(rows_text([(template, x)], "\n"), want) is None, template


def neighbours(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # the neighbour of the largest double is inf
        return np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf), -x])


bit_patterns = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64)
)
any_floats = st.lists(st.floats(width=64), min_size=1, max_size=64)


@settings(max_examples=300, deadline=None)
@given(bit_patterns)
def test_every_bit_pattern_as_python_writes_it(x):
    check(x)


@settings(max_examples=300, deadline=None)
@given(any_floats)
def test_every_float_as_python_writes_it(x):
    check(x)


def test_specials_and_fallback_bounds():
    specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, _G_MIN, _G_MAX, _F_MAX, 1e300]
    check(neighbours(specials))


def test_powers_of_ten_and_their_neighbours():
    check(neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_decade_carries():
    # 17 nines round up to the next power of ten, in fixed and exponent notation
    check(neighbours([np.nextafter(float(f"1e{k}"), 0.0) for k in range(-30, 30)]))
    check([9.99999999999999999e16, 99999999999999999.0, 0.000099999999999999999])


def test_exact_eighteenth_digit_ties():
    rng = np.random.default_rng(1601)
    k = np.concatenate([[1e15, 2.0**51 - 1], rng.integers(10**15, 2**51, 20000)]).astype(float)
    ties = np.concatenate([k + 0.25, k + 0.75])
    assert np.all(ties - np.tile(k, 2) == np.repeat([0.25, 0.75], k.size))  # exact
    check(ties)


def test_exact_ties_where_the_power_of_ten_is_inexact():
    # k / 2^24 and k / 2^25 (k odd) have 18 significant digits ending in 5 at
    # scales 10^23 and 10^24, which no double holds: the tie band sends them
    # to Python's formatting
    k = np.arange(1, 64, 2)
    x = np.concatenate([k / 2.0**24, k / 2.0**25])
    exact = _g17(x, ord(","), *np.empty((2, x.size, 4), np.uint64))
    assert not exact.all()
    check(x)


def test_three_decimal_ties():
    m = np.arange(-40000, 40000) / 16.0  # every sixteenth is a tie of x * 1000
    check(m)
    check(m * 2.0**20)


def test_eight_digit_words():
    # two words of the digit table, the second a half-word up, spell eight digits
    v = np.concatenate([np.arange(0, 10**8, 9973), [10**8 - 1, 9999, 10000, 99, 100]])
    text, _ = _digits()
    words = text.take(v // 10**4) | text.take(v % 10**4) << np.uint64(32)
    assert words.astype("<u8").view("S8").astype(str).tolist() == [f"{k:08d}" for k in v.tolist()]


def test_digit_table_spells_and_counts_trailing_zeros():
    text, zeros = _digits()
    k = range(10**4)
    assert text.astype("<u4").view("S4").astype(str).tolist() == [f"{i:04d}" for i in k]
    assert zeros.tolist() == [len(f"{i:04d}") - len(f"{i:04d}".rstrip("0")) for i in k]


def test_power_table_and_decade_thresholds():
    # each 10^k a double-double within 2^-104 of it, the high part correctly
    # rounded, exact where 10^k is a double; each threshold the least double at
    # or above the power of ten that ends the decade of its binary exponent
    hi, lo = _powers()
    for i, k in enumerate(range(_P_MIN, _P_MAX + 1)):
        power = Fraction(10) ** k
        assert hi[i] == float(power)
        assert abs(Fraction(hi[i]) + Fraction(lo[i]) - power) <= power / 2**104
        assert (lo[i] == 0) == (0 <= k <= 22)
    t = _g17_tables()
    for e in np.flatnonzero(t.ok).tolist():
        k = 17 - _P_MIN - int(t.index[e])  # the next power of ten
        power = Fraction(10) ** k
        assert Fraction(2) ** (e - 1023) * 10 >= power > Fraction(2) ** (e - 1023)
        assert Fraction(t.threshold[e]) >= power > Fraction(np.nextafter(t.threshold[e], 0.0))


def test_no_runtime_warning_on_any_input():
    x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e308, -1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check(x)


def test_table_longer_than_a_chunk_with_fallback_rows_at_the_boundary():
    n = 2 * _CHUNK + 7
    x = np.linspace(-3.0, 5.0, n)
    for i in (0, _CHUNK - 1, _CHUNK, 2 * _CHUNK, n - 1):
        x[i] = (np.nan, -0.0, np.inf, 1e-300, 0.0)[i % 5]
    x[_CHUNK - 2] = 2.0**41  # a %.3f fallback longer than its field
    table = {"x": x, "label": [f"r{i % 7}" if i % 3 else "a,b" for i in range(n)], "y": -x}
    assert same_lines(write_csv(table), csv_reference(table)) is None
    for template in TEMPLATES:
        pairs = "".join(f"{template % a},{template % b}\n" for a, b in zip(x.tolist(), (-x).tolist()))
        assert same_lines(rows_text([(template, x), (template, -x)], "\n"), pairs) is None


STRINGS = ["", "a", "café", "q,r", "x" * 20, '"quoted"']


def mixed_column(rng, template, rows):
    """Random bit patterns, plain decimals, %.3f ties and specials, or strings."""
    if template == "%s":
        return [STRINGS[k] for k in rng.integers(len(STRINGS), size=rows)]
    bits = rng.integers(0, 2**64, size=rows, dtype=np.uint64).view(np.float64)
    plain = rng.normal(size=rows) * 10.0 ** rng.integers(-6, 9, size=rows)
    ties = np.round(rng.normal(size=rows) * 1e5) / 16.0
    specials = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -2.0**41, 5e-324], size=rows)
    return np.choose(rng.choice(4, size=rows, p=[0.3, 0.4, 0.25, 0.05]), [bits, plain, ties, specials])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(("%.17g", "%.3f", "%s")), min_size=2, max_size=10),
       st.integers(0, 2**32 - 1), st.floats(0.0, 2.5), st.sampled_from(["\n", " "]))
def test_mixed_tables_as_python_writes_them_row_by_row(templates, seed, chunks, end):
    # lengths up to two and a half chunks, so chunk boundaries fall inside the table
    rows = 1 + int(chunks * _CHUNK / max(sum(t != "%s" for t in templates), 1))
    rng = np.random.default_rng(seed)
    columns = [(t, mixed_column(rng, t, rows)) for t in templates]
    want = "".join(
        ",".join(t % v if t != "%s" else v for t, v in zip(templates, row)) + end
        for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for _, c in columns))
    )
    assert same_lines(rows_text(columns, end), want) is None


def test_one_chunk_of_a_four_column_table_stays_within_its_working_set():
    # the corr-eigen shape, one full chunk: the peak of the arrays a chunk
    # holds, which sets the workload's peak RSS
    rng = np.random.default_rng(28)
    rows = _CHUNK // 4
    columns = [("%.17g", rng.normal(size=rows) * 10.0 ** rng.integers(-30, 5, rows)) for _ in range(4)]
    rows_text(columns, "\n")  # the cached tables
    tracemalloc.start()
    try:
        rows_text(columns, "\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20, peak


def test_render_svg_polyline_bytes_match_the_pair_join():
    xs = np.linspace(-7.3, 9.1, 4001)
    ys = np.exp(-xs * xs) * np.cos(5.0 * xs)
    doc = render_svg([("w", xs, ys)])
    line = next(line for line in doc.splitlines() if line.startswith("<polyline"))
    points = line.split('"')[1]
    plot_w = svgplot.WIDTH - svgplot.MARGIN_LEFT - svgplot.MARGIN_RIGHT
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_TOP - svgplot.MARGIN_BOTTOM
    pad = 0.05 * (ys.max() - ys.min())
    y_lo, y_hi = ys.min() - pad, ys.max() + pad
    px = svgplot.MARGIN_LEFT + (xs - xs.min()) / (xs.max() - xs.min()) * plot_w
    py = svgplot.MARGIN_TOP + (y_hi - ys) / (y_hi - y_lo) * plot_h
    assert points == polyline_reference(px, py)


@pytest.mark.parametrize("end", [",", " ", "\n"])
def test_strings_and_empty_tables(end):
    assert rows_text([], end) == ""
    assert rows_text([("%s", ["", "café", "x" * 20])], end) == end + "café" + end + "x" * 20 + end
    assert rows_text([("%.17g", np.array([]))], end) == ""


def test_import_loads_no_fractions_decimal_or_url_request():
    # numpy itself imports urllib.parse (through pathlib); urllib.request is
    # what xml.sax.saxutils would add
    code = (
        "import sys, quantumtoss.cli; "
        "print(sorted(m for m in ('fractions', 'decimal', 'urllib.request') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quantumtoss.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"
