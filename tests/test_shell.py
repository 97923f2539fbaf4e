import csv
import io
import json
import math

import numpy as np
import pytest

from quantumtoss.cli import run_cli
from quantumtoss.errors import InputError
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
    assert write_csv(["a", "b"], []) == "a,b\n"


def test_write_csv_quotes_list_fields():
    text = write_csv(["n", "maxima"], [{"n": 1, "maxima": [-1.0, 1.0]}])
    assert text == 'n,maxima\n1,"-1,1"\n'


def test_format_field_rules():
    assert format_field(None) == ""
    assert format_field(True) == "true"
    assert format_field(False) == "false"
    assert format_field(14.0) == "14"
    assert format_field(1 / 3) == "0.33333333333333331"


def test_write_json_round_trip():
    config = {"subcommand": "spectrum", "rounds": 2}
    rows = [{"eigenvalue": -math.sqrt(0.5), "pearson": None, "sign_class": -1}]
    parsed = json.loads(write_json(config, rows))
    assert list(parsed.keys()) == ["config", "rows"]
    assert parsed["rows"][0]["eigenvalue"] == -math.sqrt(0.5)  # exact double
    assert parsed["rows"][0]["pearson"] is None


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


def test_spectrum_huge_kappa_exits_zero_with_finite_values(capsys):
    code, out, err = run(capsys, "spectrum", "--rounds", "3", "--kappa1", "1e200")
    assert code == 0, err
    header, rows = parse_csv(out)
    assert len(rows) == 4
    for name in ("eigenvalue", "sigma1", "sigma2", "correlation"):
        col = header.index(name)
        assert all(math.isfinite(float(r[col])) for r in rows), name
    assert sorted(r[9] for r in rows) == ["-1", "-1", "1", "1"]


def test_spectrum_kappa_product_overflow_exit_2(capsys):
    code, _, err = run(
        capsys, "spectrum", "--rounds", "3", "--kappa1", "1e200", "--kappa2", "1e200"
    )
    assert code == 2
    assert "overflow" in err


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
