"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import contextlib
import csv
import io
import json
import os
import statistics

import pytest

import checks
import tracing
import workloads
from run import Verifier
from quantumtoss import cli, roundwaves
from quantumtoss.cli import run_cli
from quantumtoss.numerics import EIGEN_DIM_MAX
from quantumtoss.roundwaves import COMPARE_N_MAX, PEAKS_N_MAX

SEEDS = range(40)


def cli_output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run_cli(argv) == 0
    return buf.getvalue()


def flag(argv, name, cast=int):
    return cast(argv[argv.index(name) + 1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(workload):
    for seed in range(5):
        assert workloads.generate(workload, seed) == workloads.generate(workload, seed)
    assert len({json.dumps(workloads.generate(workload, s)) for s in SEEDS}) > len(SEEDS) // 2


def test_spectra_sizes_within_ranges_and_ceilings():
    for seed in SEEDS:
        cmds = workloads.generate("spectra", seed)
        periodic = [c for c in cmds if c[0] == "spectrum" and "periodic" in c]
        finite = [c for c in cmds if c[0] == "spectrum" and "periodic" not in c]
        sweep = [c for c in cmds if c[0] == "sweep"]
        assert len(periodic) == 2 and len(finite) == 2 and len(sweep) == 1
        assert sum("json" in c for c in periodic) == 1
        sizes = [flag(c, "--rounds") for c in periodic]
        assert len(set(sizes)) == 2 and all(24 <= n <= 64 for n in sizes)
        assert all(96 <= flag(c, "--rounds") <= 192 for c in finite)
        assert sum("--kappa1" in c for c in finite) == 1
        assert all(flag(c, "--rounds") + 1 <= EIGEN_DIM_MAX for c in periodic + finite)
        assert 12 <= flag(sweep[0], "--rounds-max") <= 20


def test_waves_sizes_within_ranges_and_ceilings():
    for seed in SEEDS:
        cmds = workloads.generate("waves", seed)
        assert [c[0] for c in cmds] == ["peaks", "peaks", "compare", "density", "diverge"]
        peaks = [flag(c, "--n") for c in cmds[:2]]
        assert len(set(peaks)) == 2 and all(30 <= n <= 44 <= PEAKS_N_MAX for n in peaks)
        assert 20 <= flag(cmds[2], "--n") <= 32 <= COMPARE_N_MAX
        assert "--svg" in cmds[2]
        assert len(cmds[4][cmds[4].index("--cutoffs") + 1].split(",")) >= 4


def test_bulk_io_sizes_within_ranges():
    for seed in SEEDS:
        cmds = workloads.generate("bulk-io", seed)
        assert [c[0] for c in cmds] == ["audit", "operators", "density", "classical", "corr-eigen"]
        assert 150 <= flag(cmds[0], "--rounds") <= 220
        assert 80 <= flag(cmds[1], "--rounds") <= 105
        assert all(flag(c, "--samples") == workloads.BULK_SAMPLES for c in cmds[2:])
        assert all("--svg" in c for c in cmds[2:4])


def test_generated_lists_meet_their_budget():
    costs = workloads.load_costs()
    for name, (kinds, total, median) in workloads.WORKLOADS.items():
        for seed in range(10):
            sizes = workloads.draw_sizes(name, seed)
            predicted = [costs[k][s] for k, s in zip(kinds, sizes)]
            assert abs(sum(predicted) - total) <= workloads.TOTAL_TOL * total
            assert abs(statistics.median(predicted) - median) <= workloads.MEDIAN_TOL * median
            assert all(abs(c - median) <= workloads.PAIR_TOL * median
                       for c in workloads._middle_pair(predicted))


def test_middle_pair_is_the_median_and_its_nearest_neighbour():
    assert workloads._middle_pair([5.0, 1.0, 2.0, 9.0]) == (2.0, 5.0)
    assert workloads._middle_pair([0.1, 3.0, 1.0, 1.1, 0.2]) == (1.0, 1.1)
    assert workloads._middle_pair([0.9, 3.0, 1.0, 1.5, 0.2]) == (1.0, 0.9)


def _replace_field(text, row, column, value):
    records = list(csv.reader(io.StringIO(text)))
    records[row + 1][records[0].index(column)] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(records)
    return out.getvalue()


def test_spectrum_check_rejects_shifted_eigenvalue():
    argv = ["spectrum", "--rounds", "9", "--mode", "periodic"]
    text = cli_output(argv)
    checks.check(argv, text)
    value = float(list(csv.reader(io.StringIO(text)))[3][1])
    bad = _replace_field(text, 2, "eigenvalue", repr(value + 1e-6))
    with pytest.raises(checks.CheckError, match="eigvalsh"):
        checks.check(argv, bad)


def test_spectrum_check_rejects_nonvanishing_payoff():
    argv = ["spectrum", "--rounds", "8", "--kappa1", "2.0", "--kappa2", "0.5"]
    text = cli_output(argv)
    checks.check(argv, text)
    with pytest.raises(checks.CheckError, match="does not vanish"):
        checks.check(argv, _replace_field(text, 4, "exp_pi1", "1e-9"))


def test_peaks_check_rejects_dropped_peak():
    argv = ["peaks", "--n", "6"]
    text = cli_output(argv)
    checks.check(argv, text)
    maxima = list(csv.reader(io.StringIO(text)))[1][1]
    bad = _replace_field(text, 0, "maxima", maxima.rsplit(",", 1)[0])
    with pytest.raises(checks.CheckError, match="maxima"):
        checks.check(argv, bad)


@pytest.mark.parametrize("argv", [
    ["audit", "--rounds", "7", "--mode", "periodic", "--format", "json"],
    ["operators", "--rounds", "4", "--format", "json"],
    ["spectrum", "--rounds", "6", "--mode", "periodic", "--format", "json"],
])
def test_json_checks_reject_truncated_output(argv):
    text = cli_output(argv)
    checks.check(argv, text)
    with pytest.raises(checks.CheckError, match="JSON"):
        checks.check(argv, text[: len(text) // 2])


def test_svg_check_rejects_truncated_figure(tmp_path):
    svg = tmp_path / "c.svg"
    argv = ["compare", "--n", "3", "--svg", str(svg)]
    text = cli_output(argv)
    figure = svg.read_text()
    checks.check(argv, text, figure)
    with pytest.raises(checks.CheckError, match="XML"):
        checks.check(argv, text, figure[: len(figure) // 2])


def test_compare_check_rejects_wrong_variance():
    argv = ["compare", "--n", "4"]
    text = cli_output(argv)
    checks.check(argv, text)
    with pytest.raises(checks.CheckError, match="variance"):
        checks.check(argv, _replace_field(text, 0, "classical_variance", "4.50001"))


def test_verifier_counts_byte_mismatch_on_repeat():
    argv = ["peaks", "--n", "2"]
    out = cli_output(argv).encode()
    verify = Verifier()
    assert verify(argv, 0, out, None)
    assert verify(argv, 0, out, None)
    assert not verify(argv, 0, out + b" ", None)
    assert not verify(argv, 2, b"", None, "boom")
    assert len(verify.failures) == 2


def test_self_times_of_nested_spans_add_up():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b.x", 5.0, 7.0, 3),
        ("b.y", 6.0, 8.5, 3),  # overlaps b.x: the union is 5.0-8.5
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 0.5, 2.0, 2.5])
    summary = tracing.summarize(spans[:4], {})
    assert summary["root.self_s"] + summary["a.self_s"] + summary["a.child.self_s"] \
        + summary["b.self_s"] == pytest.approx(10.0)


def test_tracer_wraps_every_lookup_name_and_restores_them():
    original = (cli.correlation_spectrum, cli.run_cli, roundwaves.psi)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.correlation_spectrum is not original[0]
        assert roundwaves.psi is not original[2]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run_cli(["spectrum", "--rounds", "5"]) == 0
    finally:
        tracer.uninstall()
    assert (cli.correlation_spectrum, cli.run_cli, roundwaves.psi) == original
    summary = tracing.summarize(tracer.records(), tracer.counters)
    assert summary["cli.run_cli.calls"] == 1
    assert summary["numerics.hermitian_eigen.calls"] == 2  # even and odd parity blocks
    assert summary["numerics.hermitian_eigen.dim_sum"] == 6
    assert summary["correlation.rows"] == 6
    assert "roundwaves.psi.calls" not in summary
    assert "reports.format_field.calls" not in summary


def test_run_refuses_a_tree_without_the_package(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "SRC", os.fspath(tmp_path))
    assert run.main(["--workload", "waves", "--seed", "1", "--seconds", "1"]) == 2


def test_run_refuses_seconds_beyond_the_deadline():
    import run

    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "waves", "--seed", "1", "--seconds", str(run.MAX_SECONDS + 1)])
    assert exc.value.code == 2


class DeadlineLauncher:
    """Answers like launcher.py until ``starts`` commands have started."""

    def __init__(self, work, starts):
        self.work = os.fspath(work)
        self.starts = starts

    def run(self, argv, program=("-m", "quantumtoss")):
        import run

        if self.starts == 0:
            raise run.DeadlinePassed
        self.starts -= 1
        if not program:
            out = "checksum\n"
        else:
            out = "usage: quantumtoss" if argv == ["--help"] else cli_output(list(argv))
        return {"wall_s": 0.1, "cpu_s": 0.1, "maxrss_kib": 1024, "code": 0}, out.encode(), ""


COMMANDS = [["spectrum", "--rounds", "9", "--mode", "periodic"], ["peaks", "--n", "2"]]


def test_closed_loop_counts_only_commands_started_before_the_deadline(tmp_path):
    import run

    # two warm-up probes, one whole pass (command, reference, help, command,
    # reference), then one command and its reference before the deadline
    launcher = DeadlineLauncher(tmp_path, 2 + 5 + 2)
    metrics, attempted, failed, samples = run._closed_loop(launcher, COMMANDS, 1e9)
    assert (attempted, failed) == (3 + 4, 0)
    assert len(samples["passes"]) == 1 and samples["cmd_p50_samples"] == 3
    assert samples["failed_ratio"] == 0
    assert len(samples["setup_s"]) == 1 and len(samples["reference_s"]) == 3
    # every time metric is scaled by REFERENCE_S over the reference's mean
    assert metrics["setup_s"][0] == pytest.approx(0.1 * run.REFERENCE_S / 0.1)
    assert metrics["wall_s"][0] == pytest.approx(0.2 * run.REFERENCE_S / 0.1)


def test_closed_loop_counts_a_changed_reference_output_as_failed(tmp_path):
    import run

    class DriftingReference(DeadlineLauncher):
        def run(self, argv, program=("-m", "quantumtoss")):
            reply, out, err = super().run(argv, program)
            if not program and self.starts == 0:
                out = b"other\n"
            return reply, out, err

    # warm-up probes, one pass (two references, one help), then the deadline;
    # the second reference prints another checksum
    metrics, attempted, failed, samples = run._closed_loop(
        DriftingReference(tmp_path, 2 + 5), COMMANDS, 1e9)
    assert (attempted, failed) == (5, 1) and samples["probes_failed"] == 1
    assert len(samples["reference_s"]) == 1


def test_closed_loop_without_a_whole_pass_gives_no_result(tmp_path):
    import run

    with pytest.raises(SystemExit, match="no pass"):
        run._closed_loop(DeadlineLauncher(tmp_path, 2 + 2), COMMANDS, 1e9)
