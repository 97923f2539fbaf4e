import csv
import io
import json
import math

import numpy as np
import pytest

from quantumtoss.cli import run_cli
from quantumtoss.errors import InputError
from quantumtoss.gamespace import GameSpace
from quantumtoss.reports import format_field, write_csv, write_json
from quantumtoss.svgplot import MarkerGroup, Series, render_svg


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


def _csv_reference(header, table):
    """Row-by-row CSV: format_field per field, RFC-4180 quoting."""

    def quote(field):
        if "," in field or '"' in field or "\n" in field:
            return '"' + field.replace('"', '""') + '"'
        return field

    n = len(table[header[0]])
    lines = [",".join(quote(h) for h in header)]
    for i in range(n):
        lines.append(",".join(quote(format_field(table[h][i])) for h in header))
    return "\n".join(lines) + "\n"


def test_write_json_matches_json_dumps():
    n = len(EDGE_PLAIN)
    floats = np.array((EDGE_FLOATS * 2)[:n])
    table = {"x": floats, "mixed": EDGE_PLAIN, "tab\t%s": list(range(n)), "s": ["a\"b"] * n}
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


def test_write_csv_matches_row_reference():
    n = len(EDGE_PLAIN)
    table = {
        "x": np.array((EDGE_FLOATS * 2)[:n]),
        "mixed": EDGE_PLAIN,
        "text": ["plain", "a,b", 'q"q', "line\nbreak", ""] * 2 + ["x", "y", "z"],
        "y": -np.array((EDGE_FLOATS * 2)[:n]),
    }
    header = ["x", "mixed", "text", "y"]
    assert write_csv(table) == _csv_reference(header, table)
    assert write_csv({'h,"1"': [1, 2], "x": np.array([0.5, -0.0])}) == (
        _csv_reference(['h,"1"', "x"], {'h,"1"': [1, 2], "x": np.array([0.5, -0.0])})
    )
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
        classical_mixture_density, correlation_eigenfunction, density_grid,
    )

    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if argv[0] == "density":
        grid = density_grid(5, -8.0, 8.0, 2001)
        header = ["xi", "psi", "density"]
        columns = [grid.xi, grid.psi, grid.density]
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
    assert out == _csv_reference(header, table)


def test_operators_json_matches_json_dumps(capsys):
    from quantumtoss.gamespace import audit_commutators, build_operators

    code, out, err = run(
        capsys, "operators", "--rounds", "5", "--mode", "periodic", "--kappa1", "0.3",
        "--format", "json",
    )
    assert code == 0, err
    gs = GameSpace(5, "periodic", 0.3, 1.0)
    ops, audit = build_operators(gs), audit_commutators(gs)
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


def _polyline_reference(series, markers):
    """Each polyline's points, mapped and formatted one point at a time."""
    from quantumtoss import svgplot

    x_lo = min(min(float(x) for x in s.x) for s in series)
    x_hi = max(max(float(x) for x in s.x) for s in series)
    y_lo = min(min(float(y) for y in s.y) for s in series)
    y_hi = max(max(float(y) for y in s.y) for s in series)
    for m in markers:
        x_lo, x_hi = min([x_lo, *m.xs]), max([x_hi, *m.xs])
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = svgplot.WIDTH - svgplot.MARGIN_LEFT - svgplot.MARGIN_RIGHT
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_TOP - svgplot.MARGIN_BOTTOM
    out = []
    for s in series:
        points = []
        for x, y in zip(s.x, s.y):
            px = svgplot.MARGIN_LEFT + (float(x) - x_lo) / (x_hi - x_lo) * plot_w
            py = svgplot.MARGIN_TOP + (y_hi - float(y)) / (y_hi - y_lo) * plot_h
            points.append(f"{format(px, '.3f')},{format(py, '.3f')}")
        out.append(" ".join(points))
    return out


def test_render_svg_polyline_matches_scalar_reference():
    xs = np.linspace(-7.3, 9.1, 2001)
    wave = Series("wave", xs, np.sin(3.0 * xs) * np.exp(-0.1 * xs * xs))
    flat = Series("flat", xs, np.full(xs.size, 0.125))
    markers = [MarkerGroup("refs", (-9.5, 0.0, 2.25))]
    for series, marks in (([wave, flat], markers), ([flat], []), ([wave], markers)):
        doc = render_svg(series, x_label="x", y_label="y", markers=marks)
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
    assert header[0] == "n"
    quantum_peaks = [float(tok) for tok in rows[0][1].split(",")]
    np.testing.assert_allclose(
        quantum_peaks, [-math.sqrt(2.5), 0.0, math.sqrt(2.5)], atol=1e-9
    )
    assert rows[0][2] == "-2,0,2"
    doc = svg_path.read_text()
    assert doc.count("<polyline") == 2
    assert doc.count('stroke-dasharray="5,4"') >= 6  # marker lines plus legend keys


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
    assert header[0] == "kind"
    assert rows[0][0] == "plane"
    assert rows[0][1] == "linear"
    integrals = [float(tok) for tok in rows[0][5].split(",")]
    np.testing.assert_allclose(integrals, [4.0, 8.0, 16.0, 32.0, 64.0], rtol=1e-12)


def test_diverge_overflowing_cutoffs_exit_2(capsys):
    for kind, cutoffs in (("plane", "2,4,8,1e+160"), ("weyl", "0.1,0.01,0.001,1e-310")):
        code, out, err = run(capsys, "diverge", "--kind", kind, "--cutoffs", cutoffs)
        assert code == 2 and out == ""
        assert f"cutoffs {cutoffs} overflow" in err


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


@pytest.mark.parametrize("command", ["operators", "audit"])
def test_operator_kappa_overflow_exit_2(capsys, command):
    code, out, err = run(
        capsys, command, "--rounds", "3", "--kappa1", "1e200", "--kappa2", "1e200",
        "--format", "json",
    )
    assert code == 2 and out == ""
    assert "kappa1 = 1.000e+200" in err and "kappa2 = 1.000e+200" in err


def test_audit_opposite_extreme_kappas_stay_finite(capsys):
    code, out, err = run(capsys, "audit", "--rounds", "3", "--kappa1", "1e300", "--kappa2", "1e-300")
    assert code == 0, err
    _, rows = parse_csv(out)
    assert all(math.isfinite(float(r[1])) for r in rows)
    code, _, err = run(capsys, "audit", "--rounds", "10", "--kappa1", "1e300", "--kappa2", "1e-300")
    assert code == 2 and "commutator" in err


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


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_render_svg_rejects_bad_series():
    with pytest.raises(InputError):
        render_svg([])
    with pytest.raises(InputError):
        render_svg([Series("short", np.array([0.0]), np.array([1.0]))])


def test_render_svg_deterministic_and_standalone():
    xs = np.linspace(0, 1, 20)
    series = [Series("a", xs, np.sin(xs)), Series("b", xs, np.cos(xs))]
    markers = [MarkerGroup("refs", (0.25, 0.75))]
    first = render_svg(series, x_label="x", y_label="y", markers=markers)
    second = render_svg(series, x_label="x", y_label="y", markers=markers)
    assert first == second
    assert first.startswith("<?xml")
    assert 'version="1.1"' in first
    assert first.count("<polyline") == 2
