"""quantumtoss benchmark: seeded CLI workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is taken from ``src/``.

--trace 0  One client in a closed loop: each command of the workload's list
           runs in a fresh ``python -m quantumtoss`` process, one after the
           other, and the list repeats while the time budget allows (at
           least twice, so every argv is run twice and its bytes compared).
           Reports the end-to-end metrics.
--trace 1  Runs the same argv lists in this process through
           ``quantumtoss.cli.run_cli``, alternating an untraced pass and a
           pass with spans around every public function of the package
           (see tracing.py).  Reports the per-layer metrics.

After every command the untraced run starts reference.py, fixed work that
gauges the host's speed, and after every other one a ``--help`` probe
(start-up time).  Its time metrics are scaled to the speed at which a
reference launch takes REFERENCE_S.

Every output is checked against an independent oracle (checks.py) on its
first run; each repeat must reproduce the same stdout and SVG bytes.  The
second-to-last stdout line is a JSON record of the environment, the argv
lists and every sample; the last line is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.py")
REFERENCE_S = 0.25  # seconds a reference launch takes at the speed metrics are scaled to
MIN_PASSES = 2
DEADLINE_S = 150.0  # the run must end within 180 s
MAX_SECONDS = 110  # leaves the last pass and a half room before DEADLINE_S
SELF_TIMED = (
    "numerics.hermitian_eigen", "numerics.commutator", "numerics.expectation",
    "gamespace.build_operators", "gamespace.audit_commutators",
    "correlation.correlation_spectrum", "correlation.parity_blocks",
    "roundwaves.psi", "roundwaves.hermite_zeros", "roundwaves.density_peaks",
    "roundwaves.compare_quantum_classical", "roundwaves.classical_mixture_density",
    "roundwaves.density_grid", "roundwaves.correlation_eigenfunction",
    "roundwaves.divergence_scan",
    "reports.write_csv", "reports.write_json", "svgplot.render_svg", "cli.run_cli",
)
CALL_COUNTED = (
    "numerics.hermitian_eigen", "numerics.commutator", "numerics.expectation",
    "gamespace.build_operators", "roundwaves.psi",
)
COUNTERS = (
    "numerics.hermitian_eigen.dim_sum", "correlation.rows", "roundwaves.psi.points",
    "reports.bytes", "svgplot.bytes",
)


def _digest(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _take_svg(argv, work):
    """Bytes of the SVG a command wrote (None if it wrote none); removes the file."""
    if "--svg" not in argv:
        return None
    path = os.path.join(work, argv[argv.index("--svg") + 1])
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


class Verifier:
    """Checks each argv's first output, then requires identical bytes on repeats."""

    def __init__(self):
        self.first: dict[tuple, tuple] = {}
        self.failures: list[dict] = []

    def __call__(self, argv, code, stdout: bytes, svg: bytes | None, stderr: str = "") -> bool:
        key = tuple(argv)
        digest = (_digest(stdout), _digest(svg))
        try:
            if code != 0:
                raise checks.CheckError(f"exit code {code}: {stderr.strip()[-500:]}")
            if key in self.first:
                if self.first[key] != digest:
                    raise checks.CheckError("output bytes differ from the first run of this argv")
            else:
                checks.check(argv, stdout.decode("utf-8"),
                             None if svg is None else svg.decode("utf-8"))
                self.first[key] = digest
        except checks.CheckError as exc:
            self.failures.append({"argv": argv, "error": str(exc)})
            return False
        return True


class DeadlinePassed(Exception):
    """The run's deadline came before the next command could start."""


class Launcher:
    """Runs commands in fresh processes through launcher.py (see there why)."""

    def __init__(self, work, env, deadline):
        self.work = work
        self.deadline = deadline
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                     cwd=work, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, argv, program=("-m", "quantumtoss")):
        """Returns the reply of launcher.py plus the command's stdout bytes and stderr text.

        Runs ``python -m quantumtoss <argv>``, or ``python <argv>`` with
        ``program=()``.  A command still running at the deadline is killed;
        none is started after it.
        """
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise DeadlinePassed
        out_path = os.path.join(self.work, "stdout.bin")
        err_path = os.path.join(self.work, "stderr.txt")
        request = {"argv": [sys.executable, *program, *argv], "cwd": self.work,
                   "stdout": out_path, "stderr": err_path, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        with open(out_path, "rb") as fh:
            out = fh.read()
        with open(err_path, "rb") as fh:
            err = fh.read().decode("utf-8", "replace")
        return reply, out, err


def run_untraced(commands, seconds, work):
    deadline = time.perf_counter() + DEADLINE_S
    launcher = Launcher(work, dict(os.environ, PYTHONPATH=SRC), deadline)
    try:
        return _closed_loop(launcher, commands, seconds)
    finally:
        launcher.close()


def _is_help(reply, out):
    return reply["code"] == 0 and b"usage: quantumtoss" in out


class Probes:
    """The runs after each command: reference.py, and ``--help`` after every other one."""

    def __init__(self, launcher):
        self.launcher = launcher
        self.setup, self.reference = [], []
        self.reference_runs = self.failed = 0
        # untimed first runs fill __pycache__ and the page cache
        reply, out, err = launcher.run(["--help"])
        if not _is_help(reply, out):
            raise SystemExit(f"quantumtoss does not start (exit {reply['code']}): {err.strip()[-500:]}")
        reply, self.checksum, err = launcher.run([REFERENCE], program=())
        if reply["code"] != 0:
            raise SystemExit(f"reference.py fails (exit {reply['code']}): {err.strip()[-500:]}")

    def __len__(self):
        return self.reference_runs + len(self.setup)

    def run(self):
        # the reference runs twice as often: its mean scales every time metric
        reply, out, _ = self.launcher.run([REFERENCE], program=())
        self.reference_runs += 1
        if reply["code"] != 0 or out != self.checksum:
            self.failed += 1
        else:
            self.reference.append(reply["wall_s"])
        if self.reference_runs % 2 == 1:
            reply, out, _ = self.launcher.run(["--help"])
            self.setup.append(reply["wall_s"])
            self.failed += not _is_help(reply, out)


def _closed_loop(launcher, commands, seconds):
    probes = Probes(launcher)
    verify = Verifier()
    passes = []
    cmd_walls = [[] for _ in commands]
    cmd_rss = [0.0 for _ in commands]
    started = time.perf_counter()
    try:
        while True:
            pass_started = time.perf_counter()
            pass_wall = pass_cpu = 0.0
            for i, argv in enumerate(commands):
                reply, out, err = launcher.run(argv)
                verify(argv, reply["code"], out, _take_svg(argv, launcher.work), err)
                pass_wall += reply["wall_s"]
                pass_cpu += reply["cpu_s"]
                cmd_rss[i] = max(cmd_rss[i], reply["maxrss_kib"] / 1024.0)  # KiB on Linux
                cmd_walls[i].append(reply["wall_s"])
                # probing between commands samples the machine in the state
                # the workload sees
                probes.run()
            passes.append({"wall_s": pass_wall, "cpu_s": pass_cpu})
            # stop where the run ends nearest to ``seconds``
            now = time.perf_counter()
            if len(passes) >= MIN_PASSES and now - started + (now - pass_started) / 2 > seconds:
                break
    except DeadlinePassed:  # an unfinished pass adds its commands, not a pass
        if not passes:
            raise SystemExit(f"no pass of the workload ended within {DEADLINE_S:.0f} s")
    if not probes.reference:
        raise SystemExit("no reference run succeeded before the deadline")

    commands_run = sum(len(w) for w in cmd_walls)
    attempted = commands_run + len(probes)
    failed = len(verify.failures) + probes.failed
    mid = statistics.median
    raw = {
        "wall_s": mid(p["wall_s"] for p in passes),
        "cmd_p50_s": mid(w for walls in cmd_walls for w in walls),
        "cpu_s": mid(p["cpu_s"] for p in passes),
        "setup_s": mid(probes.setup),
    }
    # The mean, not the median: one launch runs fast or slow as a whole, and
    # the mean weighs the two as they came.
    speed = REFERENCE_S / statistics.mean(probes.reference)
    metrics = {name: (value * speed, "s") for name, value in raw.items()}
    metrics["peak_rss_mb"] = (max(cmd_rss), "MiB")
    samples = {
        "passes": passes,
        "cmd_wall_s": cmd_walls,
        "cmd_max_rss_mb": cmd_rss,
        "cmd_p50_samples": commands_run,
        "setup_s": probes.setup,
        "reference_s": probes.reference,
        "speed_factor": speed,
        "unscaled": raw,
        "probes_failed": probes.failed,
        "failed_ratio": failed / attempted,
        "failures": verify.failures,
    }
    return metrics, attempted, failed, samples


def _run_inprocess(cli, commands, work, verify):
    """One pass through cli.run_cli; returns the summed wall time of the calls."""
    total = 0.0
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run_cli(list(argv))  # looked up per call, so a tracer sees it
        except Exception:  # an unexpected crash is a failed command, not a benchmark abort
            code, err = 1, io.StringIO(traceback.format_exc())
        total += time.perf_counter() - start
        verify(argv, code, out.getvalue().encode("utf-8"), _take_svg(argv, work), err.getvalue())
    return total


def _layer_metrics(summary, wall, overhead):
    get = lambda key: float(summary.get(key, 0.0))  # noqa: E731
    m = {}
    for name in CALL_COUNTED:
        m[f"{name}.calls"] = (get(f"{name}.calls"), "count")
    for name in COUNTERS:
        m[name] = (get(name), "count")
    roots = get("roundwaves.roots")
    m["roundwaves.probes_per_root"] = (
        get("roundwaves.psi.calls") / roots if roots else 0.0, "calls/root")
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (get(f"{name}.self_s"), "s")
    m["reports.rows.self_s"] = (sum(v for k, v in summary.items()
                                    if k.startswith("reports.") and k.endswith("_rows.self_s")), "s")
    for layer in tracing.LAYERS:
        m[f"share.{layer}"] = (get(f"layer.{layer}.self_s") / wall, "1")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def run_traced(commands, seconds, work, spans_path):
    sys.path.insert(0, SRC)
    from quantumtoss import cli

    verify = Verifier()
    plain, traced, summaries = [], [], []
    cwd = os.getcwd()
    os.chdir(work)
    started = time.perf_counter()
    try:
        while True:
            # the traced pass goes first in even pairs, so a slower first pass
            # in a fresh interpreter does not make the overhead look negative
            if len(traced) % 2 == 1:
                plain.append(_run_inprocess(cli, commands, work, verify))
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced.append(_run_inprocess(cli, commands, work, verify))
            finally:
                tracer.uninstall()
            if len(traced) % 2 == 1:
                plain.append(_run_inprocess(cli, commands, work, verify))
            spans = tracer.records()
            summaries.append(tracing.summarize(spans, tracer.counters))
            if time.perf_counter() - started + plain[-1] + traced[-1] > seconds:
                break
    finally:
        os.chdir(cwd)

    count_keys = [k for k in summaries[0] if k.endswith(".calls")] + list(COUNTERS)
    counts = [{k: s.get(k, 0) for k in count_keys} for s in summaries]
    count_mismatch = any(c != counts[0] for c in counts[1:])

    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:  # spans of the last traced pass
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")

    mid = statistics.median
    summary = {k: mid(s.get(k, 0.0) for s in summaries) for k in summaries[0]}
    metrics = _layer_metrics(summary, mid(traced), mid(traced) - mid(plain))
    attempted = len(commands) * (len(plain) + len(traced))
    failed = len(verify.failures) + count_mismatch
    samples = {
        "untraced_pass_s": plain,
        "traced_pass_s": traced,
        "spans_last_pass": len(spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "counts_repeat": not count_mismatch,
        "failures": verify.failures,
    }
    return metrics, attempted, failed, samples


def _blas_info():
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = None
    info["blas_threads"] = _openblas_threads()
    info["thread_env"] = {k: os.environ[k] for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return info


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quantumtoss benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")

    if not os.path.isfile(os.path.join(SRC, "quantumtoss", "__init__.py")):
        print(f"run.py: no quantumtoss package under {SRC}", file=sys.stderr)
        return 2
    commands = workloads.generate(args.workload, args.seed)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            spans_path = os.path.join(OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            metrics, attempted, failed, samples = run_traced(commands, args.seconds, work, spans_path)
        else:
            metrics, attempted, failed, samples = run_untraced(commands, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": commands,
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            **_blas_info(),
        },
        "samples": samples,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
