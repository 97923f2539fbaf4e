import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quantumtoss
from quantumtoss import cli
from quantumtoss.cli import run_cli
from quantumtoss.errors import InputError
from quantumtoss.correlation import correlation_spectrum
from quantumtoss.gamespace import GameSpace, audit_commutators, build_operators, payoff_variance
from quantumtoss.numerics import hermitian_eigen
from quantumtoss.reports import format_field, record_rows, write_csv, write_json
from quantumtoss.roundwaves import compare_quantum_classical, density_peaks, divergence_scan
from quantumtoss.svgplot import render_svg

from golden import GOLDEN_OUTPUTS
from oracles import csv_reference


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    return rows[0], rows[1:]


def test_write_csv_header_only_for_empty_rows():
    assert write_csv({"a": [], "b": np.array([])}) == "a,b\n"


def test_write_csv_quotes_list_fields():
    text = write_csv({"n": [1], "maxima": [[-1.0, 1.0]]})
    assert text == 'n,maxima\n1,"-1,1"\n'


def test_format_field_rules():
    assert format_field(None) == ""
    assert format_field(True) == "true"
    assert format_field(False) == "false"
    assert format_field(14.0) == "14"
    assert format_field(1 / 3) == "0.33333333333333331"


def test_write_json_round_trip():
    config = {"subcommand": "spectrum", "rounds": 2}
    rows = {"eigenvalue": np.array([-math.sqrt(0.5)]), "pearson": [None], "sign_class": [-1]}
    parsed = json.loads(write_json(config, rows))
    assert list(parsed.keys()) == ["config", "rows"]
    assert parsed["rows"][0]["eigenvalue"] == -math.sqrt(0.5)  # exact double
    assert parsed["rows"][0]["pearson"] is None


# Edge values shared by the writer byte-identity tests below.
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 1 / 3, -2.5, 1e-7]
EDGE_PLAIN = [
    None, True, False, np.bool_(True), np.int64(-7), np.float64(0.1), 3, 2.0,
    'say "hi", then\nleave', "caf\u00e9\t\\", [], [1.0, math.nan, -0.0], [np.float64(2.5), 4],
]


def _plain(value):
    """Reference conversion of numpy scalars and arrays for json.dumps."""
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _json_reference(config, table, audit=None):
    n = len(next(iter(table.values()))) if table else 0
    rows = [{h: col[i] for h, col in table.items()} for i in range(n)]
    payload = {"config": config, "rows": rows}
    if audit is not None:
        payload["audit"] = audit
    return json.dumps(_plain(payload), indent=2) + "\n"


def test_write_json_matches_json_dumps():
    n = len(EDGE_PLAIN)
    floats = np.array((EDGE_FLOATS * 2)[:n])
    table = {
        "x": floats, "mixed": EDGE_PLAIN, "tab\t%s": list(range(n)), "s": ["a\"b"] * n,
        # columns of one kind each: floats, ints and bools, then strings that
        # are all distinct, repeated, or non-ASCII with quotes and control characters
        "float_list": (EDGE_FLOATS * 2)[:n],
        "int_list": [-7, 2**53 + 1, -(2**63)] + list(range(n - 3)),
        "flags": np.arange(n) % 3 == 0,
        "distinct": [f"row {i}" for i in range(n)],
        "quoted": (["caf\u00e9 \"q\"\x01\n", "\u2603\\\t", "\x7f\u00e9"] * n)[:n],
        "unique_quoted": [f"\u2603{i}\"\x1f" for i in range(n)],
    }
    config = {
        "subcommand": "edge", "empty_list": [], "empty_dict": {}, "none": None,
        "nested": {"deep": [[1.0, -math.inf], [], [{"k": np.int64(2)}]], "b": np.bool_(False)},
        "floats": np.array(EDGE_FLOATS), "esc\"key\u00e9": "\u2603\x00",
    }
    audit = {"metrics": {"m": np.float64(math.nan)}, "matrix": np.eye(2).tolist(), "e": {}}
    assert write_json(config, table, audit) == _json_reference(config, table, audit)
    assert write_json(config, table) == _json_reference(config, table)
    empty = {"x": np.array([]), "y": []}
    assert write_json({}, empty) == _json_reference({}, empty)
    with pytest.raises(TypeError):
        write_json({"bad": {1, 2}}, empty)
    # every value repeats, so each spelling is gathered for several entries
    repeated = np.array(EDGE_FLOATS * 3).reshape(6, 5)
    matrix = np.array([[1.0 - 2.0j, -0.0 + 1j], [math.nan - 0.0j, 1.0 + 5e-324j]])
    audit = {
        "m": repeated,
        "re": matrix.real,  # a strided view of the complex array
        "im": matrix.imag,
        "ints": np.array([[3, -1], [3, 0]]),
        "empty": np.zeros((2, 0)),
        "none": np.zeros((0, 3)),
    }
    table = {
        "x": np.array([0.25, -0.0, 0.25, 0.0, math.nan, 0.25, math.inf, -math.inf, 5e-324, 0.0]),
        "k": np.array([7, 7, -2, 7, 0, 0, 7, 1, 1, 7]),
        "pattern": [-0.0, 0.0, 0.5] * 3 + [math.nan],
    }
    config = {"strided": matrix.real[:, 1], "m": repeated[::2, ::-2]}
    assert write_json(config, table, audit) == _json_reference(config, table, audit)
    for name in table:  # one-column tables
        assert write_json({}, {name: table[name]}) == _json_reference({}, {name: table[name]})


_POOL = [0.0, -0.0, 0.5, 1 / 3, -2.5, 5e-324, 1e300, math.nan, math.inf, -math.inf]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_write_json_matches_json_dumps_on_repeating_tables(data):
    rows = data.draw(st.integers(0, 12))
    pool = st.sampled_from(_POOL)
    column = st.one_of(
        st.lists(pool, min_size=rows, max_size=rows).map(np.array),
        st.lists(st.integers(-3, 3), min_size=rows, max_size=rows).map(np.array),
        st.lists(st.one_of(pool, st.none(), st.sampled_from(["a", "b,c"])), min_size=rows, max_size=rows),
    )
    table = data.draw(st.dictionaries(st.sampled_from(["x", "y", "z", 'q"%s']), column, max_size=3))
    side = data.draw(st.integers(0, 4))
    audit = {"m": np.array(data.draw(st.lists(pool, min_size=side * side, max_size=side * side))).reshape(side, side)}
    assert write_json({"rows": rows}, table, audit) == _json_reference({"rows": rows}, table, audit)


def test_write_csv_matches_row_reference():
    n = len(EDGE_PLAIN)
    table = {
        "x": np.array((EDGE_FLOATS * 2)[:n]),
        "mixed": EDGE_PLAIN,
        "text": ["plain", "a,b", 'q"q', "line\nbreak", ""] * 2 + ["x", "y", "z"],
        "y": -np.array((EDGE_FLOATS * 2)[:n]),
    }
    assert write_csv(table) == csv_reference(table)
    small = {'h,"1"': [1, 2], "x": np.array([0.5, -0.0])}
    assert write_csv(small) == csv_reference(small)
    with pytest.raises(ValueError, match="length"):
        write_csv({"a": [1], "b": np.array([1.0, 2.0])})


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--n", "5", "--samples", "2001"),
        ("classical", "--n", "3", "--samples", "2001"),
        ("corr-eigen", "--lambda", "0.238", "--samples", "2001"),
        ("corr-eigen", "--lambda", "-1.7", "--ordering", "printed", "--samples", "2001"),
    ],
)
def test_bulk_csv_matches_row_reference(capsys, argv):
    from quantumtoss.roundwaves import (
        classical_mixture_density, correlation_eigenfunction, psi, uniform_grid,
    )

    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if argv[0] == "density":
        xi = uniform_grid(-8.0, 8.0, 2001)
        wave = psi(5, xi)
        header = ["xi", "psi", "density"]
        columns = [xi, wave, wave * wave]
    elif argv[0] == "classical":
        xi = np.linspace(-8.0, 8.0, 2001)
        header = ["xi", "density"]
        columns = [xi, classical_mixture_density(3, xi)]
    else:
        xi = np.linspace(0.01, 8.0, 2001)
        ordering = "printed" if "printed" in argv else "weyl"
        values = correlation_eigenfunction(float(argv[2]), ordering, xi)
        header = ["xi", "re", "im", "abs"]
        # Python's abs of each complex sample, the scalar rule of the output
        columns = [xi, [v.real for v in values], [v.imag for v in values],
                   [abs(complex(v)) for v in values]]
    table = {h: [float(x) for x in col] for h, col in zip(header, columns)}
    assert out == csv_reference(table)


def test_operators_json_matches_json_dumps(capsys):
    from quantumtoss.gamespace import audit_commutators, build_operators

    code, out, err = run(
        capsys, "operators", "--rounds", "5", "--mode", "periodic", "--kappa1", "0.3",
        "--format", "json",
    )
    assert code == 0, err
    gs = GameSpace(5, "periodic", 0.3, 1.0)
    ops = build_operators(gs)
    audit = audit_commutators(gs, ops)
    rows = []
    for name in ("a_plus", "a_minus", "number", "pi1", "pi2", "precorrelation"):
        m = getattr(ops, name)
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                rows.append({"matrix": name, "row": i, "col": j,
                             "re": float(m[i, j].real), "im": float(m[i, j].imag)})
    metrics = {"ladder_trace_re": audit.ladder_trace.real,
               "ladder_trace_im": audit.ladder_trace.imag}
    for name in sorted(audit.pattern_max_deviation):
        metrics[f"ladder_pattern_{name}_max_deviation"] = audit.pattern_max_deviation[name]
    metrics.update({
        "payoff_interior_max_deviation": audit.interior_max_deviation,
        "payoff_sign": audit.payoff_sign,
        "zero_sector_re": audit.zero_sector_value.real,
        "zero_sector_im": audit.zero_sector_value.imag,
    })
    detail = {
        "metrics": metrics,
        "ladder_commutator": {"re": audit.ladder_commutator.real,
                              "im": audit.ladder_commutator.imag},
        "payoff_commutator": {"re": audit.payoff_commutator.real,
                              "im": audit.payoff_commutator.imag},
        "pattern_entry_deviation": dict(sorted(audit.pattern_entry_deviation.items())),
    }
    config = {"subcommand": "operators", "rounds": 5, "mode": "periodic",
              "kappa1": 0.3, "kappa2": 1.0, "format": "json"}
    payload = {"config": config, "rows": rows, "audit": detail}
    assert out == json.dumps(_plain(payload), indent=2) + "\n"
    # a larger document, against the layout of its own re-parse
    code, out, err = run(capsys, "operators", "--rounds", "12", "--mode", "periodic", "--format", "json")
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _polyline_reference(series, markers):
    """Each polyline's points, mapped and formatted one point at a time."""
    from quantumtoss import svgplot

    x_lo = min(min(float(x) for x in xs) for _, xs, _ in series)
    x_hi = max(max(float(x) for x in xs) for _, xs, _ in series)
    y_lo = min(min(float(y) for y in ys) for _, _, ys in series)
    y_hi = max(max(float(y) for y in ys) for _, _, ys in series)
    for _, marks in markers:
        x_lo, x_hi = min([x_lo, *marks]), max([x_hi, *marks])
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = svgplot.WIDTH - svgplot.MARGIN_LEFT - svgplot.MARGIN_RIGHT
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_TOP - svgplot.MARGIN_BOTTOM
    out = []
    for _, xs, ys in series:
        points = []
        for x, y in zip(xs, ys):
            px = svgplot.MARGIN_LEFT + (float(x) - x_lo) / (x_hi - x_lo) * plot_w
            py = svgplot.MARGIN_TOP + (y_hi - float(y)) / (y_hi - y_lo) * plot_h
            points.append(f"{format(px, '.3f')},{format(py, '.3f')}")
        out.append(" ".join(points))
    return out


def test_render_svg_polyline_matches_scalar_reference():
    xs = np.linspace(-7.3, 9.1, 2001)
    wave = ("wave", xs, np.sin(3.0 * xs) * np.exp(-0.1 * xs * xs))
    flat = ("flat", xs, np.full(xs.size, 0.125))
    markers = [("refs", (-9.5, 0.0, 2.25))]
    for series, marks in (([wave, flat], markers), ([flat], []), ([wave], markers)):
        doc = render_svg(series, marks)
        polylines = [line.split('"')[1] for line in doc.splitlines()
                     if line.startswith("<polyline")]
        assert polylines == _polyline_reference(series, marks)


def test_spectrum_csv_values(capsys):
    code, out, _ = run(capsys, "spectrum", "--rounds", "2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "index", "eigenvalue", "parity", "exp_pi1", "exp_pi2",
        "sigma1", "sigma2", "correlation", "pearson", "sign_class",
    ]
    eigenvalues = [float(r[1]) for r in rows]
    np.testing.assert_allclose(
        eigenvalues, [-math.sqrt(0.5), 0.0, math.sqrt(0.5)], atol=1e-10
    )
    assert [r[9] for r in rows] == ["-1", "0", "1"]


def test_spectrum_dim2_sign_classes_zero(capsys):
    code, out, _ = run(capsys, "spectrum", "--rounds", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2
    assert all(r[9] == "0" for r in rows)


def test_spectrum_json_round_trip(capsys):
    code, out, _ = run(capsys, "spectrum", "--rounds", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc.keys()) == ["config", "rows"]
    assert doc["config"]["rounds"] == 2
    assert len(doc["rows"]) == 3
    lams = [row["eigenvalue"] for row in doc["rows"]]
    assert lams == sorted(lams)
    from quantumtoss.correlation import correlation_spectrum
    from quantumtoss.gamespace import GameSpace

    report = correlation_spectrum(GameSpace(2))
    for row, ref in zip(doc["rows"], report.rows):
        assert row["eigenvalue"] == ref.eigenvalue  # bit-exact after re-parse
        assert row["sigma1"] == ref.sigma1


def test_operators_dim1_all_zero(capsys):
    code, out, _ = run(capsys, "operators", "--rounds", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 6  # six 1x1 matrices
    assert all(r[3] == "0" and r[4] in ("0", "-0") for r in rows)


def test_operators_json_includes_audit(capsys):
    code, out, _ = run(
        capsys, "operators", "--rounds", "2", "--mode", "periodic", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc.keys()) == ["config", "rows", "audit"]
    assert doc["audit"]["metrics"]["ladder_pattern_wrap_max_deviation"] <= 1e-14
    assert doc["audit"]["metrics"]["payoff_sign"] == -1
    ladder = doc["audit"]["ladder_commutator"]
    assert np.allclose(ladder["re"], np.diag([0.0, 1.0, -1.0]), atol=1e-14)


def test_audit_csv_metrics(capsys):
    code, out, _ = run(capsys, "audit", "--rounds", "9")
    assert code == 0
    _, rows = parse_csv(out)
    metrics = {r[0]: r[1] for r in rows}
    assert float(metrics["ladder_pattern_trace_zero_max_deviation"]) <= 1e-14
    assert float(metrics["ladder_pattern_unit_trace_max_deviation"]) == pytest.approx(1.0)
    assert float(metrics["payoff_interior_max_deviation"]) <= 1e-12
    assert metrics["payoff_sign"] == "-1"


def test_audit_periodic_zero_sector(capsys):
    code, out, _ = run(capsys, "audit", "--rounds", "4", "--mode", "periodic")
    assert code == 0
    _, rows = parse_csv(out)
    metrics = {r[0]: float(r[1]) for r in rows}
    assert abs(metrics["zero_sector_re"]) <= 1e-14
    assert abs(metrics["zero_sector_im"]) <= 1e-14


def test_variance_row(capsys):
    code, out, _ = run(
        capsys, "variance", "--rounds", "5", "--n", "3", "--player", "2", "--kappa2", "2"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["rounds", "n", "player", "kappa", "value", "interior"]
    assert float(rows[0][4]) == pytest.approx(14.0, rel=1e-12)
    assert rows[0][5] == "true"


def test_peaks_row_quoted_lists(capsys):
    code, out, _ = run(capsys, "peaks", "--n", "1")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "maxima", "classical_centers"]
    maxima = [float(tok) for tok in rows[0][1].split(",")]
    np.testing.assert_allclose(maxima, [-1.0, 1.0], atol=1e-9)
    assert rows[0][2] == "-1,1"


def test_sweep_blocks_ordered(capsys):
    code, out, _ = run(capsys, "sweep", "--rounds-max", "4")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "rounds"
    rounds = [int(r[0]) for r in rows]
    assert rounds == sorted(rounds)
    assert len(rows) == 2 + 3 + 4 + 5


def test_density_rows_and_svg(tmp_path, capsys):
    svg_path = tmp_path / "density.svg"
    code, out, _ = run(
        capsys, "density", "--n", "0", "--xi-min", "-4", "--xi-max", "4",
        "--samples", "101", "--svg", str(svg_path),
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["xi", "psi", "density"]
    assert len(rows) == 101
    doc = svg_path.read_text()
    assert doc.count("<polyline") == 1
    assert doc.startswith("<?xml")


def test_classical_rows(capsys):
    code, out, _ = run(
        capsys, "classical", "--n", "1", "--xi-min", "-4", "--xi-max", "4", "--samples", "81"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["xi", "density"]
    center = rows[40]
    assert float(center[0]) == 0.0
    assert float(center[1]) == pytest.approx(math.exp(-1.0) / math.sqrt(math.pi), abs=1e-12)


def test_compare_row_and_markers(tmp_path, capsys):
    svg_path = tmp_path / "compare.svg"
    code, out, _ = run(capsys, "compare", "--n", "2", "--svg", str(svg_path))
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "n", "quantum_peaks", "classical_centers", "quantum_center_density",
        "classical_center_density", "quantum_minimum_deeper", "quantum_variance",
        "classical_variance", "outermost_quantum_peak", "outermost_classical_center",
    ]
    quantum_peaks = [float(tok) for tok in rows[0][1].split(",")]
    np.testing.assert_allclose(
        quantum_peaks, [-math.sqrt(2.5), 0.0, math.sqrt(2.5)], atol=1e-9
    )
    assert rows[0][2] == "-2,0,2"
    doc = svg_path.read_text()
    assert doc.count("<polyline") == 2
    assert doc.count('stroke-dasharray="5,4"') >= 6  # marker lines plus legend keys


def test_corr_eigen_phase_overflow_exits_2(capsys):
    # gave RuntimeWarnings and nan rows with exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "corr-eigen", "--lambda", "-5e307", "--ordering", "printed",
                             "--samples", "5", "--xi-min", "0.001", "--xi-max", "100")
    assert (code, out) == (2, "")
    assert err == "quantumtoss: error: lambda * ln(xi) overflows at the grid end xi = 0.001: lambda = -5e+307\n"


@pytest.mark.parametrize("ordering", ["printed", "weyl"])
def test_corr_eigen_modulus_overflow_at_a_subnormal_grid_start(capsys, ordering):
    # |xi^s| = xi^-c at xi = 1e-320: 1e320 (printed) overflows, 1e160 (weyl) does not
    code, out, err = run(capsys, "corr-eigen", "--lambda", "0", "--ordering", ordering,
                         "--samples", "3", "--xi-min", "1e-320", "--xi-max", "1")
    if ordering == "printed":
        assert (code, out) == (2, "")
        assert err == ("quantumtoss: error: |xi^s| = xi^-1 of the printed ordering overflows "
                       "at the grid start xi = 1e-320\n")
    else:
        assert (code, err) == (0, "")
        assert float(parse_csv(out)[1][0][3]) == pytest.approx(1e160, rel=1e-5)


def test_corr_eigen_rows(capsys):
    code, out, _ = run(
        capsys, "corr-eigen", "--lambda", "0", "--ordering", "printed",
        "--xi-min", "0.5", "--xi-max", "2", "--samples", "4",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["xi", "re", "im", "abs"]
    assert float(rows[0][1]) == pytest.approx(2.0, abs=1e-12)  # 1/0.5
    assert float(rows[0][2]) == 0.0


def test_diverge_row(capsys):
    code, out, _ = run(
        capsys, "diverge", "--kind", "plane", "--cutoffs", "2,4,8,16,32"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "kind", "classification", "linear_residual", "log_residual", "cutoffs", "integrals",
    ]
    assert rows[0][0] == "plane"
    assert rows[0][1] == "linear"
    integrals = [float(tok) for tok in rows[0][5].split(",")]
    np.testing.assert_allclose(integrals, [4.0, 8.0, 16.0, 32.0, 64.0], rtol=1e-12)


def test_diverge_overflowing_cutoffs_exit_2(capsys):
    for kind, cutoffs in (("plane", "2,4,8,1e+160"), ("weyl", "0.1,0.01,0.001,1e-310")):
        code, out, err = run(capsys, "diverge", "--kind", kind, "--cutoffs", cutoffs)
        assert code == 2 and out == ""
        assert f"cutoffs {cutoffs} overflow" in err


@pytest.mark.parametrize("argv, named", [
    (("diverge", "--kind", "weyl", "--cutoffs", "0.5,0.1,0.01"),
     "need at least 4 cutoffs, got 3: 0.5,0.1,0.01"),
    (("diverge", "--kind", "plane", "--cutoffs", "2,4,inf,8"),
     "cutoffs must be finite, got 2,4,inf,8"),
    (("diverge", "--kind", "plane", "--cutoffs", "2,4,3,8"),
     "plane-wave cutoffs must be increasing and > 1, got 2,4,3,8"),
    (("diverge", "--kind", "printed", "--cutoffs", "0.5,2,0.1,0.01"),
     "cutoffs must be a decreasing sequence in (0, 1), got 0.5,2,0.1,0.01"),
    (("corr-eigen", "--lambda", "1", "--xi-min", "-1", "--xi-max", "2"),
     "grid must be strictly positive, got xi = -1.0"),
    (("spectrum", "--rounds", "0", "--mode", "periodic"),
     "periodic mode is degenerate with a single state: rounds 0"),
])
def test_rejected_input_is_named_in_the_error(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"quantumtoss: error: {named}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("operators", "--rounds", "2"),
        ("audit", "--rounds", "3", "--mode", "periodic"),
        ("spectrum", "--rounds", "3"),
        ("sweep", "--rounds-max", "3"),
    ],
)
def test_json_row_keys_equal_csv_header(capsys, argv):
    code, csv_text, err = run(capsys, *argv)
    assert code == 0, err
    code, json_text, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    header, _ = parse_csv(csv_text)
    rows = json.loads(json_text)["rows"]
    assert rows and all(list(row) == header for row in rows)


def test_records_refuse_attribute_assignment():
    gs = GameSpace(3)
    ops = build_operators(gs)
    report = correlation_spectrum(gs)
    records = [
        gs, ops, audit_commutators(gs, ops), payoff_variance(gs, 1, 1), hermitian_eigen(ops.pi1),
        report, report.rows[0], density_peaks(2), compare_quantum_classical(2),
        divergence_scan("weyl", (0.1, 0.03, 0.01, 0.003)),
    ]
    assert len({type(record) for record in records}) == 10
    for record in records:
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


@pytest.mark.parametrize("argv, result", [
    (("variance", "--rounds", "5", "--n", "3", "--player", "2"),
     lambda: payoff_variance(GameSpace(5), 3, 2)),
    (("peaks", "--n", "2"), lambda: density_peaks(2)),
    (("compare", "--n", "2"), lambda: compare_quantum_classical(2)),
    (("diverge", "--kind", "plane", "--cutoffs", "2,4,8,16"),
     lambda: divergence_scan("plane", (2.0, 4.0, 8.0, 16.0))),
])
def test_one_row_keys_are_the_csv_header(capsys, argv, result):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    header, _ = parse_csv(out)
    assert list(record_rows([result()])) == header


def test_spectrum_rows_makes_arrays_of_the_numeric_fields(monkeypatch):
    # read from the values: a column of Python floats or ints is an array,
    # any other a list, which would write the same bytes, only field by field;
    # pearson is a list only where a row withholds it (rounds 0)
    kinds = {"index": "i", "eigenvalue": "f", "parity": "list", "exp_pi1": "f", "exp_pi2": "f",
             "sigma1": "f", "sigma2": "f", "correlation": "f", "pearson": "f",
             "sign_class": "i"}
    tables = []
    monkeypatch.setattr(cli, "_emit", lambda args, table, **kw: tables.append(table))
    for argv in (["spectrum", "--rounds", "4"], ["sweep", "--rounds-max", "4"],
                 ["spectrum", "--rounds", "0"]):
        assert run_cli(argv) == 0
    assert [list(t) for t in tables] == [list(kinds), ["rounds", *kinds], list(kinds)]
    for table, expected in zip(tables, (kinds, {"rounds": "i", **kinds},
                                        {**kinds, "pearson": "list"})):
        assert {name: col.dtype.kind if isinstance(col, np.ndarray) else "list"
                for name, col in table.items()} == expected
    assert tables[1]["rounds"].tolist() == [n for n in range(1, 5) for _ in range(n + 1)]


CSV_ONLY = {
    "variance": ("--rounds", "3", "--n", "1", "--player", "1"),
    "density": ("--n", "1"),
    "peaks": ("--n", "1"),
    "classical": ("--n", "1"),
    "compare": ("--n", "1"),
    "corr-eigen": ("--lambda", "1"),
    "diverge": ("--kind", "plane", "--cutoffs", "2,4,8,16"),
}


@pytest.mark.parametrize("command", sorted(CSV_ONLY))
def test_csv_only_subcommands_reject_format_and_out(tmp_path, capsys, command):
    argv = (command, *CSV_ONLY[command])
    assert run(capsys, *argv)[0] == 0
    out_path = tmp_path / "x"
    for extra in (("--format", "json"), ("--out", str(out_path))):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err
    assert not out_path.exists()


def test_out_flag_redirects_output(tmp_path, capsys):
    out_path = tmp_path / "spectrum.csv"
    code, out, err = run(
        capsys, "spectrum", "--rounds", "2", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""  # nothing on stdout when --out is given
    text = out_path.read_text()
    assert text.startswith("index,eigenvalue")


def test_unwritable_out_path_is_io_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "spectrum", "--rounds", "2", "--out", str(tmp_path / "no" / "dir.csv")
    )
    assert code == 1
    assert "error" in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "spectrum")[0] == 2  # missing --rounds
    assert run(capsys, "spectrum", "--rounds", "-1")[0] == 2
    assert run(capsys, "spectrum", "--rounds", "2", "--badflag")[0] == 2
    assert run(capsys, "spectrum", "--rounds", "0", "--mode", "periodic")[0] == 2
    assert run(capsys, "density", "--n", "1", "--xi-min", "4", "--xi-max", "-4")[0] == 2
    assert run(capsys, "corr-eigen", "--lambda", "1", "--xi-min", "-2")[0] == 2
    assert run(capsys, "diverge", "--kind", "weyl", "--cutoffs", "0.1,0.01")[0] == 2
    assert run(capsys, "variance", "--rounds", "3", "--n", "7", "--player", "1")[0] == 2
    assert run(capsys, "compare", "--n", "0")[0] == 2
    assert run(capsys, "peaks", "--n", "500")[0] == 2
    for argv in (("classical", "--n", "1"), ("corr-eigen", "--lambda", "1")):
        code, out, err = run(capsys, *argv, "--samples", "1")
        assert code == 2 and out == "" and "samples must be an integer in 2..1000000, got 1" in err
    for argv in (("density", "--n", "1"), ("classical", "--n", "1"), ("corr-eigen", "--lambda", "1")):
        for samples in ("1000001", "1000000000000"):
            code, out, err = run(capsys, *argv, "--samples", samples)
            assert code == 2 and out == "" and "1000000" in err


# the command line only parses these values; the library call each one
# reaches rejects it, naming the value
@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (("operators",), "--rounds", "-1"),
        (("audit",), "--rounds", "-1"),
        (("spectrum",), "--rounds", "-1"),
        (("variance", "--n", "0", "--player", "1"), "--rounds", "-1"),
        (("sweep",), "--rounds-max", "0"),
        (("sweep",), "--rounds-max", "-3"),
        (("variance", "--rounds", "3", "--player", "1"), "--n", "-1"),
        (("density",), "--n", "-1"),
        (("peaks",), "--n", "-1"),
        (("classical",), "--n", "-1"),
        (("compare",), "--n", "0"),
        (("density", "--n", "1"), "--samples", "0"),
        (("classical", "--n", "1"), "--samples", "0"),
        (("corr-eigen", "--lambda", "1"), "--samples", "0"),
        *(
            (argv, "--kappa1", value)
            for argv in (
                ("spectrum", "--rounds", "3"),
                ("variance", "--rounds", "3", "--n", "0", "--player", "1"),
            )
            for value in ("0", "-1", "nan")
        ),
    ],
)
def test_library_rejects_each_value_once(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 2 and out == ""
    assert err.startswith("quantumtoss: error: ")
    assert flag.lstrip("-") in err and f"got {value}" in err, err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (("corr-eigen", "--samples", "3"), "--lambda", "-1e-3"),
        (("density", "--n", "3", "--samples", "3"), "--xi-min", "-1e2"),
        (("classical", "--n", "2", "--samples", "3"), "--xi-min", "-1.5E+2"),
    ],
)
def test_negative_exponent_value_after_a_flag(capsys, argv, flag, value):
    joined = run(capsys, *argv, f"{flag}={value}")
    assert joined[0] == 0, joined[2]
    assert run(capsys, *argv, flag, value) == joined


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (("corr-eigen", "--samples", "3"), "--lambda", "-inf"),
        (("density", "--n", "3"), "--xi-min", "-inf"),
        (("density", "--n", "3"), "--xi-max", "-Infinity"),
        (("classical", "--n", "2", "--samples", "3"), "--xi-min", "-NaN"),
    ],
)
def test_negative_non_finite_value_after_a_flag(capsys, argv, flag, value):
    # rejected for its value, not read as an option that leaves the flag empty
    joined = run(capsys, *argv, f"{flag}={value}")
    assert joined[0] == 2 and "expected one argument" not in joined[2], joined[2]
    assert run(capsys, *argv, flag, value) == joined


@pytest.mark.parametrize("command", ["density", "classical"])
def test_huge_grid_prints_zeros_without_warnings(capsys, command):
    code, out, err = run(
        capsys, command, "--n", "3", "--xi-min=-1e300", "--xi-max", "1e300", "--samples", "5"
    )
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert float(rows[0][-1]) == float(rows[-1][-1]) == 0.0


@pytest.mark.parametrize("n", [1, 2, 168])
def test_psi_past_dbl_max_over_sqrt2_is_zero_without_warnings(capsys, n):
    # sqrt(2) * xi overflows there, and inf times the underflowed Gaussian was nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "density", "--n", str(n), "--xi-min", "0",
                             "--xi-max", "1.7976931348623157e308", "--samples", "3")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "1.7976931348623157e+308,0,0"


@pytest.mark.parametrize("argv", [
    ("density", "--n", "4", "--xi-min", "-1.7976931348623157e308", "--xi-max", "3",
     "--samples", "227"),
    ("classical", "--n", "3", "--xi-min", "0", "--xi-max", "1.7976931348623157e308",
     "--samples", "128"),
    ("corr-eigen", "--lambda", "0", "--ordering", "weyl", "--xi-min", "1",
     "--xi-max", "1.7976931348623157e308", "--samples", "4"),
])
def test_grid_reaching_dbl_max_exits_without_warnings(capsys, argv):
    # linspace's last product (samples - 1) * step rounded past DBL_MAX and
    # warned, though the grid it returned was valid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    xi = [float(row[0]) for row in rows]
    assert all(map(math.isfinite, xi)) and all(a < b for a, b in zip(xi, xi[1:]))


@pytest.mark.parametrize(
    "argv",
    [("density", "--n", "3"), ("classical", "--n", "3"), ("corr-eigen", "--lambda", "1")],
)
def test_overflowing_grid_width_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--xi-min=-1e308", "--xi-max", "1.7e308")
    assert code == 2 and out == ""
    assert "invalid range [-1e+308, 1.7e+308]" in err


def test_spectrum_huge_kappa_exits_zero_with_finite_values(capsys):
    code, out, err = run(capsys, "spectrum", "--rounds", "3", "--kappa1", "1e200")
    assert code == 0, err
    header, rows = parse_csv(out)
    assert len(rows) == 4
    for name in ("eigenvalue", "sigma1", "sigma2", "correlation"):
        col = header.index(name)
        assert all(math.isfinite(float(r[col])) for r in rows), name
    assert sorted(r[9] for r in rows) == ["-1", "-1", "1", "1"]


def test_spectrum_tiny_kappa_keeps_sign_classes(capsys):
    code, out, err = run(capsys, "spectrum", "--rounds", "3", "--kappa1", "1e-6", "--kappa2", "1e-6")
    assert code == 0, err
    _, rows = parse_csv(out)
    assert [r[9] for r in rows] == ["-1", "-1", "1", "1"]
    assert all(0 < abs(float(r[1])) < 1e-11 for r in rows)


def test_spectrum_kappa_product_overflow_exit_2(capsys):
    code, _, err = run(
        capsys, "spectrum", "--rounds", "3", "--kappa1", "1e200", "--kappa2", "1e200"
    )
    assert code == 2
    assert "overflow" in err
    # at rounds 1, the first round of every sweep, PC is zero and inf * 0 would warn
    for argv in (("spectrum", "--rounds", "1"), ("sweep", "--rounds-max", "3")):
        code, out, err = run(capsys, *argv, "--kappa1", "1e300", "--kappa2", "1e300")
        assert code == 2 and out == ""
        assert "overflow" in err and "Warning" not in err


@pytest.mark.parametrize("command", ["operators", "audit"])
def test_operator_kappa_overflow_exit_2(capsys, command):
    code, out, err = run(
        capsys, command, "--rounds", "3", "--kappa1", "1e200", "--kappa2", "1e200",
        "--format", "json",
    )
    assert code == 2 and out == ""
    assert "kappa1 = 1.000e+200" in err and "kappa2 = 1.000e+200" in err


@pytest.mark.parametrize("kappa, product", [("1e-200", "0.000e+00"), ("1e-160", "1.000e-320")])
@pytest.mark.parametrize("command", ["spectrum", "audit", "operators", "sweep", "variance"])
def test_kappa_product_underflow_exit_2(capsys, command, kappa, product):
    size = ("--rounds-max",) if command == "sweep" else ("--rounds",)
    extra = ("--n", "1", "--player", "1") if command == "variance" else ()
    code, out, err = run(capsys, command, *size, "3", *extra, "--kappa1", kappa, "--kappa2", kappa)
    assert code == 2 and out == ""
    if command == "variance":  # kappa1 squared; kappa2 does not enter
        assert f"kappa1 = {float(kappa):.3e} underflows its square {product}" in err
    else:
        assert f"kappa1 = {float(kappa):.3e}, kappa2 = {float(kappa):.3e} underflow" in err
        assert f"their product {product} below the smallest normal double 2.225e-308" in err


def test_kappa_product_just_above_the_smallest_normal_runs(capsys):
    kappa = "1.5e-154"  # squared: 2.25e-308, just above 2.2250738585072014e-308
    code, out, err = run(capsys, "spectrum", "--rounds", "3", "--kappa1", kappa, "--kappa2", kappa)
    assert code == 0, err
    _, rows = parse_csv(out)
    eigenvalues = sorted(abs(float(r[1])) for r in rows)
    assert eigenvalues[0] > 0 and [int(r[-1]) for r in rows] == [-1, -1, 1, 1]
    code, out, err = run(capsys, "audit", "--rounds", "3", "--kappa1", kappa, "--kappa2", kappa)
    assert code == 0, err
    assert dict(parse_csv(out)[1])["payoff_sign"] == "-1"
    code, out, err = run(capsys, "variance", "--rounds", "3", "--n", "1", "--player", "1",
                         "--kappa1", kappa)
    assert code == 0, err
    assert float(parse_csv(out)[1][0][4]) == pytest.approx(1.5 * 1.5e-154**2, rel=1e-12)
    # variance of player 2 does not depend on kappa1
    code, out, err = run(capsys, "variance", "--rounds", "3", "--n", "1", "--player", "2",
                         "--kappa1", "1e-200")
    assert code == 0 and parse_csv(out)[1][0][4] == "1.5", err


def test_audit_opposite_extreme_kappas_stay_finite(capsys):
    code, out, err = run(capsys, "audit", "--rounds", "3", "--kappa1", "1e300", "--kappa2", "1e-300")
    assert code == 0, err
    _, rows = parse_csv(out)
    assert all(math.isfinite(float(r[1])) for r in rows)
    code, _, err = run(capsys, "audit", "--rounds", "10", "--kappa1", "1e300", "--kappa2", "1e-300")
    assert code == 2 and "commutator" in err


def test_operators_csv_skips_the_audit_json_runs(capsys):
    # every operator is finite, but the Dekker pay-off commutator of the audit overflows
    argv = ("operators", "--rounds", "10", "--kappa1", "1e300", "--kappa2", "1e-300")
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    header, rows = parse_csv(out)
    assert header == ["matrix", "row", "col", "re", "im"] and len(rows) == 6 * 11**2
    assert all(math.isfinite(float(r[3])) and math.isfinite(float(r[4])) for r in rows)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 2 and out == ""
    assert err == (
        "quantumtoss: error: kappa1 = 1.000e+300, kappa2 = 1.000e-300 overflow the "
        "pay-off commutator at rounds 10\n"
    )


def test_rounds_ceilings_exit_2(capsys):
    from quantumtoss.cli import SWEEP_ROUNDS_MAX
    from quantumtoss.numerics import EIGEN_DIM_MAX

    too_many = str(EIGEN_DIM_MAX)  # dimension EIGEN_DIM_MAX + 1
    for mode in ("finite", "periodic"):
        code, _, err = run(capsys, "spectrum", "--rounds", too_many, "--mode", mode)
        assert code == 2 and str(EIGEN_DIM_MAX) in err
        code, _, err = run(capsys, "spectrum", "--rounds", "600", "--mode", mode)
        assert code == 2 and str(EIGEN_DIM_MAX) in err
        code, _, err = run(
            capsys, "sweep", "--rounds-max", str(SWEEP_ROUNDS_MAX + 1), "--mode", mode
        )
        assert code == 2 and str(SWEEP_ROUNDS_MAX) in err
    assert run(capsys, "sweep", "--rounds-max", "600")[0] == 2
    for argv in (("operators",), ("audit",), ("variance", "--n", "0", "--player", "1")):
        code, out, err = run(capsys, *argv, "--rounds", too_many)
        assert code == 2 and out == "" and str(EIGEN_DIM_MAX) in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_render_svg_rejects_bad_series():
    with pytest.raises(InputError):
        render_svg([])
    with pytest.raises(InputError):
        render_svg([("short", np.array([0.0]), np.array([1.0]))])


def test_render_svg_deterministic_and_standalone():
    xs = np.linspace(0, 1, 20)
    series = [("a", xs, np.sin(xs)), ("b", xs, np.cos(xs))]
    markers = [("refs", (0.25, 0.75))]
    first = render_svg(series, markers)
    second = render_svg(series, markers)
    assert first == second
    assert first.startswith("<?xml")
    assert 'version="1.1"' in first
    assert first.count("<polyline") == 2


@pytest.mark.parametrize("argv", [
    ("density", "--n", "1", "--samples", "3"),
    ("classical", "--n", "1", "--samples", "3"),
    ("compare", "--n", "1"),
])
def test_unwritable_svg_path_leaves_stdout_empty(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--svg", str(tmp_path / "no" / "x.svg"))
    assert code == 1 and out == ""
    assert "No such file or directory" in err


_GAME_FLAGS = [
    (("--mode",), "mode", None, "finite", ("finite", "periodic"), False),
    (("--kappa1",), "kappa1", float, 1.0, None, False),
    (("--kappa2",), "kappa2", float, 1.0, None, False),
    (("--format",), "format", None, "csv", ("csv", "json"), False),
    (("--out",), "out", None, None, None, False),
]
_ROUNDS = (("--rounds",), "rounds", int, None, None, True)
_N = (("--n",), "n", int, None, None, True)
_SVG = (("--svg",), "svg", None, None, None, False)


def _grid_flags(xi_min):
    return [
        (("--xi-min",), "xi_min", float, xi_min, None, False),
        (("--xi-max",), "xi_max", float, 8.0, None, False),
        (("--samples",), "samples", int, 1601, None, False),
    ]


# every subcommand in --help order, with each flag's
# (option strings, dest, type, default, choices, required)
FLAG_SURFACE = {
    "operators": [_ROUNDS, *_GAME_FLAGS],
    "audit": [_ROUNDS, *_GAME_FLAGS],
    "spectrum": [_ROUNDS, *_GAME_FLAGS],
    "sweep": [(("--rounds-max",), "rounds_max", int, None, None, True), *_GAME_FLAGS],
    "variance": [
        _ROUNDS, _N, (("--player",), "player", int, None, (1, 2), True), *_GAME_FLAGS[1:3],
    ],
    "density": [_N, *_grid_flags(-8.0), _SVG],
    "peaks": [_N],
    "classical": [_N, *_grid_flags(-8.0), _SVG],
    "compare": [_N, _SVG],
    "corr-eigen": [
        (("--lambda",), "lam", float, None, None, True),
        (("--ordering",), "ordering", None, "weyl", ("printed", "weyl"), False),
        *_grid_flags(0.01),
    ],
    "diverge": [
        (("--kind",), "kind", None, None, ("plane", "printed", "weyl"), True),
        (("--cutoffs",), "cutoffs", cli._cutoff_list, None, None, True),
    ],
}


def test_flag_surface_is_pinned():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("subcommand", True)
    assert list(sub.choices) == list(FLAG_SURFACE)
    for name, expected in FLAG_SURFACE.items():
        got = [
            (tuple(a.option_strings), a.dest, a.type, a.default,
             None if a.choices is None else tuple(a.choices), a.required)
            for a in sub.choices[name]._actions if not isinstance(a, argparse._HelpAction)
        ]
        assert got == expected, name


@pytest.mark.parametrize("argv, expected_code", [
    (("peaks", "--n", "2"), 0),
    (("spectrum", "--rounds", "3", "--format", "json"), 0),
    (("spectrum", "--rounds", "-1"), 2),
    (("compare", "--n", "3", "--svg", "{file}"), 0),
    (("sweep", "--rounds-max", "3", "--format", "json", "--out", "{file}"), 0),
])
def test_module_entry_point_matches_run_cli(tmp_path, capsys, argv, expected_code):
    # the entry ends with os._exit: every byte of stdout, stderr and the
    # written file must be out by then
    inner, outer = tmp_path / "inner", tmp_path / "outer"
    code, out, err = run(capsys, *(a.format(file=inner) for a in argv))
    src = os.path.dirname(os.path.dirname(quantumtoss.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "quantumtoss", *(a.format(file=outer) for a in argv)],
        env=env, capture_output=True, timeout=120,
    )
    assert code == proc.returncode == expected_code
    assert proc.stdout == out.encode("utf-8")
    assert proc.stderr.decode("utf-8") == err
    if expected_code:
        assert proc.stdout == b""
    if "{file}" in argv:
        assert outer.read_bytes() == inner.read_bytes() != b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_full_stdout_is_an_io_error(unbuffered):
    # buffered, the write succeeds and only the final flush fails: before the
    # entry flushed itself, the interpreter reported it as "Exception ignored"
    # and exited 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(quantumtoss.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "quantumtoss", "spectrum", "--rounds", "4"],
            env=env, stdout=full, stderr=subprocess.PIPE, timeout=120,
        )
    assert proc.returncode == 1
    assert proc.stderr.decode().startswith("quantumtoss: error: [Errno 28]"), proc.stderr


def test_stdout_closed_early_is_an_io_error_when_unbuffered():
    # unbuffered, sys.stdout ignores the short write of a closed pipe: the
    # entry writes through a buffered stream whatever PYTHONUNBUFFERED says
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(quantumtoss.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "quantumtoss", "operators", "--rounds", "60"],  # 395 kB
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert err.splitlines() == ["quantumtoss: error: [Errno 32] Broken pipe"], err


@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_closed_during_a_document_of_several_slices_is_an_io_error(unbuffered):
    # the density of 200 000 samples is 11 MB, written in slices of 2^20
    # characters; the reader closes the pipe during the first of them
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(quantumtoss.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "quantumtoss", "density", "--n", "1", "--samples", "200000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert err.splitlines() == ["quantumtoss: error: [Errno 32] Broken pipe"], err


def imported_modules(*args):
    """Names of the modules a fresh ``python -X importtime *args`` imports."""
    src = os.path.dirname(os.path.dirname(quantumtoss.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120, check=True,
    )
    # each "import time:" line ends with "| <module name>"
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()}


@pytest.mark.parametrize("argv, svg", [
    (("spectrum", "--rounds", "3"), False),
    (("density", "--n", "1", "--samples", "3", "--svg", os.devnull), True),
])
def test_entry_loads_svgplot_only_under_svg(argv, svg):
    names = imported_modules("-m", "quantumtoss", *argv)
    assert "quantumtoss.cli" in names
    assert ("quantumtoss.svgplot" in names) == svg


@pytest.fixture(scope="module")
def startup_modules():
    """What the interpreter imports before any quantumtoss code runs."""
    return imported_modules("-c", "pass")


@pytest.mark.parametrize("argv, loads", [
    (("spectrum", "--rounds", "3"), set()),
    (("peaks", "--n", "2"), set()),
    (("density", "--n", "1", "--samples", "3"), set()),
    (("operators", "--rounds", "2"), set()),
    (("spectrum", "--rounds", "3", "--format", "json"), {"json"}),
    (("compare", "--n", "2", "--svg", os.devnull), set()),
])
def test_entry_loads_json_only_for_json_output(startup_modules, argv, loads):
    # records are named tuples, JSON strings are spelled by json only in a
    # JSON document, and SVG text is escaped without html
    names = imported_modules("-m", "quantumtoss", *argv) - startup_modules
    assert "quantumtoss.cli" in names
    assert names & {"dataclasses", "json", "html"} == loads - startup_modules


def test_package_modules_import_no_dataclasses(startup_modules):
    # __import__, since -X importtime does not report importlib.import_module
    code = (
        "import os, quantumtoss\n"
        "for name in os.listdir(quantumtoss.__path__[0]):\n"
        "    if name.endswith('.py') and name != '__init__.py':\n"
        "        __import__('quantumtoss.' + name[:-3])\n"
    )
    names = imported_modules("-c", code) - startup_modules
    assert {"quantumtoss.cli", "quantumtoss.svgplot", "quantumtoss.__main__"} <= names
    assert "dataclasses" not in names


def fresh_process(*args, threads=None):
    """stdout of ``python *args`` with OPENBLAS_NUM_THREADS set to ``threads`` (None: unset)."""
    src = os.path.dirname(os.path.dirname(quantumtoss.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, timeout=120, check=True)
    return proc.stdout


# the smallest spectrum found whose bytes differed between one and two
# OpenBLAS threads while the pool followed the core count
SPECTRUM_128 = ("spectrum", "--rounds", "128")


def test_cli_bytes_do_not_depend_on_blas_threads():
    outputs = {t: fresh_process("-m", "quantumtoss", *SPECTRUM_128, threads=t) for t in (None, "1", "2")}
    assert outputs[None] == outputs["1"] == outputs["2"]


def test_installed_script_is_the_pinning_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["quantumtoss"]
    module, function = target.split(":")
    code = f"from {module} import {function}; {function}()"
    pinned = fresh_process("-m", "quantumtoss", *SPECTRUM_128, threads="1")
    assert fresh_process("-c", code, *SPECTRUM_128, threads="2") == pinned


def test_import_loads_no_numpy():
    # python -m quantumtoss imports the package before __main__ pins OpenBLAS
    code = "import sys, quantumtoss; print('numpy' in sys.modules)"
    assert fresh_process("-c", code) == b"False\n"


EXPORTS = (
    "CorrelationReport", "CorrelationRow", "correlation_spectrum", "ConvergenceError",
    "InputError", "CommutatorAudit", "GameSpace", "OperatorSet", "audit_commutators",
    "build_ladder", "build_operators", "payoff_variance", "SpectralDecomposition", "adjoint",
    "commutator", "hermitian_eigen", "ComparisonReport", "DivergenceReport", "PeakSet",
    "classical_mixture_density", "compare_quantum_classical", "correlation_eigenfunction",
    "density_peaks", "divergence_scan", "psi",
)


def test_every_export_resolves_and_is_listed():
    assert sorted(quantumtoss.__all__) == sorted(EXPORTS)
    for name in EXPORTS:
        assert name in dir(quantumtoss)
        value = getattr(quantumtoss, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


# captured from the renderer before its elements went through one writer each
GOLDEN_SVG = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" height="500" viewBox="0 0 800 500">
<rect x="0" y="0" width="800" height="500" fill="#ffffff"/>
<g font-family="sans-serif" font-size="12" fill="#000000">
<rect x="70.000" y="24.000" width="706.000" height="420.000" fill="none" stroke="#000000" stroke-width="1"/>
<line x1="70.000" y1="444.000" x2="70.000" y2="449.000" stroke="#000000" stroke-width="1"/>
<text x="70.000" y="462.000" text-anchor="middle">0</text>
<line x1="211.200" y1="444.000" x2="211.200" y2="449.000" stroke="#000000" stroke-width="1"/>
<text x="211.200" y="462.000" text-anchor="middle">2</text>
<line x1="352.400" y1="444.000" x2="352.400" y2="449.000" stroke="#000000" stroke-width="1"/>
<text x="352.400" y="462.000" text-anchor="middle">4</text>
<line x1="493.600" y1="444.000" x2="493.600" y2="449.000" stroke="#000000" stroke-width="1"/>
<text x="493.600" y="462.000" text-anchor="middle">6</text>
<line x1="634.800" y1="444.000" x2="634.800" y2="449.000" stroke="#000000" stroke-width="1"/>
<text x="634.800" y="462.000" text-anchor="middle">8</text>
<line x1="776.000" y1="444.000" x2="776.000" y2="449.000" stroke="#000000" stroke-width="1"/>
<text x="776.000" y="462.000" text-anchor="middle">10</text>
<line x1="65.000" y1="424.909" x2="70.000" y2="424.909" stroke="#000000" stroke-width="1"/>
<text x="62.000" y="428.909" text-anchor="end">0</text>
<line x1="65.000" y1="348.545" x2="70.000" y2="348.545" stroke="#000000" stroke-width="1"/>
<text x="62.000" y="352.545" text-anchor="end">0.2</text>
<line x1="65.000" y1="272.182" x2="70.000" y2="272.182" stroke="#000000" stroke-width="1"/>
<text x="62.000" y="276.182" text-anchor="end">0.4</text>
<line x1="65.000" y1="195.818" x2="70.000" y2="195.818" stroke="#000000" stroke-width="1"/>
<text x="62.000" y="199.818" text-anchor="end">0.6</text>
<line x1="65.000" y1="119.455" x2="70.000" y2="119.455" stroke="#000000" stroke-width="1"/>
<text x="62.000" y="123.455" text-anchor="end">0.8</text>
<line x1="65.000" y1="43.091" x2="70.000" y2="43.091" stroke="#000000" stroke-width="1"/>
<text x="62.000" y="47.091" text-anchor="end">1</text>
<text x="423.000" y="488.000" text-anchor="middle">xi</text>
<text x="18.000" y="234.000" text-anchor="middle" transform="rotate(-90 18.000 234.000)">density</text>
<polyline points="70.000,424.909 423.000,43.091 776.000,234.000" fill="none" stroke="#1f77b4" stroke-width="1.5"/>
<polyline points="70.000,43.091 423.000,329.455 776.000,424.909" fill="none" stroke="#d62728" stroke-width="1.5"/>
<line x1="246.500" y1="24.000" x2="246.500" y2="444.000" stroke="#2ca02c" stroke-width="1" stroke-dasharray="5,4"/>
<line x1="599.500" y1="24.000" x2="599.500" y2="444.000" stroke="#2ca02c" stroke-width="1" stroke-dasharray="5,4"/>
<line x1="596.000" y1="32.000" x2="622.000" y2="32.000" stroke="#1f77b4" stroke-width="2"/>
<text x="628.000" y="36.000">round 1 density</text>
<line x1="596.000" y1="50.000" x2="622.000" y2="50.000" stroke="#d62728" stroke-width="2"/>
<text x="628.000" y="54.000">classical walk n=1</text>
<line x1="596.000" y1="68.000" x2="622.000" y2="68.000" stroke="#2ca02c" stroke-width="2" stroke-dasharray="5,4"/>
<text x="628.000" y="72.000">quantum peaks</text>
</g>
</svg>
"""


def test_render_svg_golden_figure():
    xs = np.array([0.0, 5.0, 10.0])
    series = [
        ("round 1 density", xs, np.array([0.0, 1.0, 0.5])),
        ("classical walk n=1", xs, np.array([1.0, 0.25, 0.0])),
    ]
    markers = [("quantum peaks", (2.5, 7.5))]
    assert render_svg(series, markers) == GOLDEN_SVG


def test_render_svg_escapes_names_and_labels():
    xs = np.linspace(0.0, 1.0, 5)
    names = ["P & Q", "<a> b", "x > y && z"]
    doc = render_svg(
        [(names[0], xs, xs), (names[1], xs, 1.0 - xs)],
        [(names[2], (0.5,))],
    )
    svg = "{http://www.w3.org/2000/svg}"
    texts = [t.text for t in ElementTree.fromstring(doc.encode()).iter(f"{svg}text")]
    assert texts[-5:] == ["xi", "density", *names]


@pytest.mark.parametrize("command", ["density", "classical"])
def test_axis_two_ulps_wide_finishes(tmp_path, command):
    # the x tick step, 5e-17, is below half an ulp of 1: a tick position
    # advanced by adding it never moved, and the tick list grew without bound
    limit = 2**30  # address space of the child, so a runaway list fails fast

    def bounded():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    svg = tmp_path / "f.svg"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quantumtoss.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "quantumtoss", command, "--n", "0", "--xi-min", "1",
         "--xi-max", "1.0000000000000004", "--samples", "2", "--svg", str(svg)],
        env=env, capture_output=True, timeout=5, preexec_fn=bounded,
    )
    assert proc.returncode == 0, proc.stderr
    ElementTree.parse(svg)


@pytest.mark.parametrize("xi_min, xi_max", [
    ("27.25", "27.3"),  # a subnormal density span: its power of ten underflowed to 0
    ("27.28", "27.29"),  # a density span of one subnormal: a sixth of it is 0
    ("0", "5e-324"),  # the same on the x axis
])
def test_axis_too_narrow_for_a_tick_step_is_widened(capsys, tmp_path, xi_min, xi_max):
    svg = tmp_path / "f.svg"
    code, out, err = run(capsys, "density", "--n", "0", "--xi-min", xi_min, "--xi-max", xi_max,
                         "--samples", "2", "--svg", str(svg))
    assert (code, err) == (0, "")
    ElementTree.parse(svg)


def test_tick_labels_of_a_narrow_axis_far_from_zero_are_distinct(capsys, tmp_path):
    # six significant digits read 58.4414 at every x tick here
    svg = tmp_path / "f.svg"
    code, out, err = run(capsys, "density", "--n", "0", "--xi-min", "58.44142",
                         "--xi-max", "58.44145", "--samples", "5", "--svg", str(svg))
    assert (code, err) == (0, "")
    texts = ElementTree.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")
    x_labels = [t.text for t in texts if t.get("y") == "462.000"]  # the x tick row
    assert x_labels == ["58.44142", "58.441425", "58.44143", "58.441435", "58.44144",
                        "58.441445", "58.44145"]


@pytest.mark.parametrize("argv, x_labels, y_labels", [
    # a density within three doubles of 1/sqrt(pi): neighbouring multiples of
    # the tick step rounded to one double, so even 17 digits spelled them alike
    (("classical", "--n", "0", "--xi-min", "-2.2122711959224807e-08", "--xi-max", "0"),
     ["-2e-08", "-1.5e-08", "-1e-08", "-5e-09", "0"],
     ["0.5641895835477561", "0.5641895835477562", "0.5641895835477563"]),
    # the same on an x axis one double wide
    (("density", "--n", "0", "--xi-min", "1e300", "--xi-max", "1.0000000000000002e300",
      "--samples", "5"),
     ["1.0000000000000001e+300", "1.0000000000000002e+300"], ["-1", "-0.5", "0", "0.5", "1"]),
])
def test_ticks_of_an_axis_a_few_doubles_wide_are_distinct(capsys, tmp_path, argv, x_labels,
                                                          y_labels):
    svg = tmp_path / "f.svg"
    code, out, err = run(capsys, *argv, "--svg", str(svg))
    assert (code, err) == (0, "")
    texts = list(ElementTree.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text"))
    assert [t.text for t in texts if t.get("y") == "462.000"] == x_labels
    assert [t.text for t in texts if t.get("text-anchor") == "end"] == y_labels


def test_render_svg_rejects_non_finite_series():
    xs = np.linspace(0.0, 1.0, 4)
    with pytest.raises(InputError, match="non-finite"):
        render_svg([("bad", xs, np.array([0.0, np.nan, 1.0, 2.0]))])


@pytest.mark.parametrize("cutoffs", ["-2,4,8,16", "-1e-3,+2,inf,8"])
def test_cutoff_list_starting_with_a_minus_sign(capsys, cutoffs):
    # rejected for its values, not read as an option that leaves --cutoffs empty
    joined = run(capsys, "diverge", "--kind", "plane", f"--cutoffs={cutoffs}")
    assert joined[0] == 2 and "expected one argument" not in joined[2], joined[2]
    assert run(capsys, "diverge", "--kind", "plane", "--cutoffs", cutoffs) == joined


@pytest.mark.parametrize("cutoffs", ["-2,x", "-.5,4,y", "-inf,", "-NaN,8,16,32"])
def test_malformed_cutoff_list_starting_with_a_minus_sign(capsys, cutoffs):
    # a value that starts like a negative number reaches the list's own check
    joined = run(capsys, "diverge", "--kind", "plane", f"--cutoffs={cutoffs}")
    assert joined[0] == 2 and "expected one argument" not in joined[2], joined[2]
    assert run(capsys, "diverge", "--kind", "plane", "--cutoffs", cutoffs) == joined


@pytest.mark.parametrize("argv, stdout_sha, svg_sha", GOLDEN_OUTPUTS)
def test_output_bytes_are_pinned(tmp_path, capsys, argv, stdout_sha, svg_sha):
    svg = tmp_path / "fig.svg"
    code, out, err = run(capsys, *argv, *((str(svg),) if svg_sha else ()))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    if svg_sha:
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_sha


# the float edges of the input domain: signed zeros, the smallest subnormal,
# the smallest normal, magnitudes whose squares or products overflow, the
# largest double, and the non-finite values
INPUT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300,
               -1e-300, 1e154, sys.float_info.max, -sys.float_info.max, math.inf, -math.inf,
               math.nan]
FLOATS = st.one_of(st.sampled_from(INPUT_EDGES), st.floats(), st.floats(-20.0, 20.0))
SIZES = st.integers(-1, 12)


@st.composite
def cli_argv(draw):
    """An argv of any subcommand: small sizes, edge floats, optional flags drawn or left out."""
    def value(strategy):
        drawn = draw(strategy)
        return drawn if isinstance(drawn, str) else repr(drawn)

    def optional(*flags):
        return [token for flag, strategy in flags if draw(st.booleans())
                for token in (flag, value(strategy))]

    out, svg = ("--out", st.just("out.txt")), ("--svg", st.just("fig.svg"))
    kappas = ("--kappa1", FLOATS), ("--kappa2", FLOATS)
    grid = ("--xi-min", FLOATS), ("--xi-max", FLOATS), ("--samples", st.integers(0, 200))
    command = draw(st.sampled_from(["audit", "classical", "compare", "corr-eigen", "density",
                                    "diverge", "operators", "peaks", "spectrum", "sweep",
                                    "variance"]))
    if command in ("operators", "audit", "spectrum", "sweep"):
        rounds = "--rounds-max" if command == "sweep" else "--rounds"
        return [command, rounds, value(SIZES), *optional(
            ("--mode", st.sampled_from(["finite", "periodic"])), *kappas,
            ("--format", st.sampled_from(["csv", "json"])), out)]
    if command == "variance":
        return [command, "--rounds", value(SIZES), "--n", value(SIZES),
                "--player", value(st.integers(0, 3)), *optional(*kappas)]
    if command in ("density", "classical"):
        return [command, "--n", value(SIZES), *optional(*grid, svg)]
    if command == "peaks":
        return [command, "--n", value(SIZES)]
    if command == "compare":
        return [command, "--n", value(SIZES), *optional(svg)]
    if command == "corr-eigen":
        return [command, "--lambda", value(FLOATS),
                *optional(("--ordering", st.sampled_from(["printed", "weyl"])), *grid)]
    # whole lists in the weyl/printed and in the plane range, too
    element = draw(st.sampled_from([FLOATS, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                    st.floats(1.0, 1e6, exclude_min=True)]))
    cutoffs = draw(st.lists(element, min_size=3, max_size=7, unique=True))
    kind = draw(st.sampled_from(["plane", "printed", "weyl"]))
    if draw(st.booleans()):  # in the order the kind asks for
        cutoffs.sort(reverse=kind != "plane")
    return [command, "--kind", kind, "--cutoffs", ",".join(map(repr, cutoffs))]


def spellings(token):
    """The ways an error message may spell an argv value."""
    found = {token}
    for part in token.split(","):
        try:
            x = float(part)
        except ValueError:  # a choice or a file name
            continue
        # x + 0.0: a grid from -0.0 starts at 0.0
        found |= {part, repr(x), repr(x + 0.0), format(x, "g"), format(x, ".3e")}
    return found


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_every_subcommand_exits_0_with_finite_output_or_2_naming_the_value(
        tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv)
    written = {name: (tmp_path / name).read_text() for name in ("out.txt", "fig.svg")
               if (tmp_path / name).exists()}
    for path in tmp_path.iterdir():
        path.unlink()
    assert code in (0, 2), err
    if code == 0:
        assert err == ""
        for text in (out, *written.values()):
            assert not re.search(r"(?i)\b(nan|inf|infinity)\b", text), text[:500]
        if "fig.svg" in written:
            texts = list(ElementTree.fromstring(written["fig.svg"]).iter(
                "{http://www.w3.org/2000/svg}text"))
            for row in ([t.text for t in texts if t.get("y") == "462.000"],  # x ticks
                        [t.text for t in texts if t.get("text-anchor") == "end"]):  # y ticks
                assert len(set(row)) == len(row) >= 2, row
    else:
        assert out == "" and not written
        lines = err.splitlines()
        message = lines[-1]
        if lines[0].startswith("usage: "):
            assert re.match(rf"quantumtoss {argv[0]}: error: ", message), err
        else:
            assert len(lines) == 1 and message.startswith("quantumtoss: error: "), err
        values = [token for token in argv[1:] if not token.startswith("--")]
        assert any(s in message for token in values for s in spellings(token)), err
