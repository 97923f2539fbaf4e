"""Command-line interface.

Every analysis is a subcommand that prints a CSV table to stdout.  Only
operators, audit, spectrum and sweep take --format json and --out PATH;
density, classical and compare can additionally write an SVG figure to
--svg PATH.  Exit codes: 0 success, 2 usage/invalid input, 1
numerical failure or I/O error; a command that exits non-zero writes
nothing to stdout.  Each table or figure is built whole, then written to
stdout or its file in slices of at most 2^20 characters, so no encoded copy
of a whole document sits beside its text.

    quantumtoss operators  --rounds 2 --mode periodic --format json
    quantumtoss spectrum   --rounds 4
    quantumtoss sweep      --rounds-max 8 --format json --out sweep.json
    quantumtoss variance   --rounds 5 --n 3 --player 2 --kappa2 2
    quantumtoss density    --n 1 --svg density.svg
    quantumtoss peaks      --n 2
    quantumtoss compare    --n 2 --svg compare.svg
    quantumtoss corr-eigen --lambda 1.0 --ordering weyl
    quantumtoss diverge    --kind weyl --cutoffs 0.1,0.03,0.01,0.003,0.001
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import reports
from .correlation import correlation_spectrum
from .errors import ConvergenceError, InputError
from .gamespace import (
    MODES,
    GameSpace,
    audit_commutators,
    build_operators,
    payoff_variance,
)
from .numerics import as_int
from .roundwaves import (
    DIVERGENCE_KINDS,
    ORDERINGS,
    classical_mixture_density,
    compare_quantum_classical,
    correlation_eigenfunction,
    density_peaks,
    divergence_scan,
    psi,
    uniform_grid,
)

PROG = "quantumtoss"
# largest --rounds-max of `sweep`: 128 spectra up to dimension 129, which
# took 3.8-5.5 s in periodic mode (2.2 s finite) on a 2-vCPU Linux VM
SWEEP_ROUNDS_MAX = 128
# argparse reads only -12 and -1.5 as negative numbers, and -1e-3, -inf or
# -2,4 as an option; this takes every argument that starts with a minus sign
# and a digit, a point, inf or nan (any case) as a value, so a malformed one
# such as -2,x reaches its own type check
_NEGATIVE_NUMBER = re.compile(r"(?i)^-(\d|\.|inf|nan)")


def _cutoff_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _add_grid_flags(sub: argparse.ArgumentParser, xi_min: float = -8.0) -> None:
    sub.add_argument("--xi-min", dest="xi_min", type=float, default=xi_min)
    sub.add_argument("--xi-max", dest="xi_max", type=float, default=8.0)
    sub.add_argument("--samples", type=int, default=1601)


def _add_kappa_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kappa1", type=float, default=1.0)
    sub.add_argument("--kappa2", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Two-player round-game pay-off algebra, spectra and densities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        return p

    # the subcommands on one GameSpace: name, rounds flag, run, help
    for name, rounds, run, summary in (
        ("operators", "--rounds", _cmd_operators, "dump all game operators (plus the audit in JSON)"),
        ("audit", "--rounds", _cmd_audit, "commutator patterns, deviations and the |0>-sector value"),
        ("spectrum", "--rounds", _cmd_spectrum, "pre-correlation spectrum with per-eigenstate statistics"),
        ("sweep", "--rounds-max", _cmd_sweep, "spectra for every round count up to --rounds-max"),
    ):
        p = command(name, run, summary)
        p.add_argument(rounds, type=int, required=True)
        p.add_argument("--mode", choices=MODES, default="finite")
        _add_kappa_flags(p)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)

    p = command("variance", _cmd_variance, "mean-squared pay-off of one player in a round state")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--player", type=int, choices=(1, 2), required=True)
    _add_kappa_flags(p)

    p = command("density", _cmd_density, "round wavefunction and density on a grid")
    p.add_argument("--n", type=int, required=True)
    _add_grid_flags(p)
    p.add_argument("--svg", default=None)

    p = command("peaks", _cmd_peaks, "density maxima of one round state")
    p.add_argument("--n", type=int, required=True)

    p = command("classical", _cmd_classical, "classical random-walk density on a grid")
    p.add_argument("--n", type=int, required=True)
    _add_grid_flags(p)
    p.add_argument("--svg", default=None)

    p = command("compare", _cmd_compare, "quantum density versus the classical walk")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--svg", default=None)

    p = command("corr-eigen", _cmd_corr_eigen, "correlation eigenfunction on a positive grid")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--ordering", choices=ORDERINGS, default="weyl")
    _add_grid_flags(p, xi_min=0.01)

    p = command("diverge", _cmd_diverge, "classify the norm divergence of a continuum state")
    p.add_argument("--kind", choices=DIVERGENCE_KINDS, required=True)
    p.add_argument("--cutoffs", type=_cutoff_list, required=True)
    return parser


# characters per write: a stream encodes each write whole, so a document goes
# out in slices, not as one encoded copy beside the text it came from
_SLICE = 1 << 20


def _write_text(fh, text: str) -> None:
    for lo in range(0, len(text), _SLICE):
        fh.write(text[lo:lo + _SLICE])


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_text(fh, text)


def _emit(args, table, audit=None, series=(), markers=()):
    """Write the --svg figure of ``series``, then print the table or write it to --out.

    Each series is (name, x, y) and each marker group (name, xs); svgplot
    loads only under --svg.  The figure comes first, so a failed write leaves
    stdout empty.  The JSON config holds every parsed value but --out, in flag
    order.
    """
    if getattr(args, "svg", None) is not None:
        from .svgplot import render_svg

        _write(args.svg, render_svg(series, markers))
    if getattr(args, "format", "csv") == "json":
        config = {k: v for k, v in vars(args).items() if k not in ("out", "run")}
        text = reports.write_json(config, table, audit)
    else:
        text = reports.write_csv(table)
    if getattr(args, "out", None) is not None:
        _write(args.out, text)
    else:
        _write_text(sys.stdout, text)


def _cmd_operators(args):
    gs = GameSpace(args.rounds, args.mode, args.kappa1, args.kappa2)
    ops = build_operators(gs)
    audit_obj = None
    if args.format == "json":  # the CSV holds the operators alone
        audit = audit_commutators(gs, ops)
        audit_obj = {"metrics": reports.audit_metrics(audit), **reports.audit_detail(audit)}
    _emit(args, reports.operator_rows(ops), audit=audit_obj)


def _cmd_audit(args):
    gs = GameSpace(args.rounds, args.mode, args.kappa1, args.kappa2)
    audit = audit_commutators(gs, build_operators(gs))
    metrics = reports.audit_metrics(audit)
    _emit(args, {"metric": list(metrics), "value": list(metrics.values())},
          audit=reports.audit_detail(audit))


def _cmd_spectrum(args):
    gs = GameSpace(args.rounds, args.mode, args.kappa1, args.kappa2)
    _emit(args, reports.record_rows(correlation_spectrum(gs).rows))


def _cmd_sweep(args):
    as_int(args.rounds_max, "--rounds-max", 1, SWEEP_ROUNDS_MAX)
    blocks = [correlation_spectrum(GameSpace(n, args.mode, args.kappa1, args.kappa2)).rows
              for n in range(1, args.rounds_max + 1)]
    rounds = np.repeat(np.arange(1, args.rounds_max + 1), [len(rows) for rows in blocks])
    _emit(args, {"rounds": rounds, **reports.record_rows([r for rows in blocks for r in rows])})


def _cmd_variance(args):
    gs = GameSpace(args.rounds, "finite", args.kappa1, args.kappa2)
    _emit(args, reports.record_rows([payoff_variance(gs, args.n, args.player)]))


def _cmd_density(args):
    xi = uniform_grid(args.xi_min, args.xi_max, args.samples)
    wave = psi(args.n, xi)
    density = wave * wave
    _emit(args, {"xi": xi, "psi": wave, "density": density},
          series=[(f"round {args.n} density", xi, density)])


def _cmd_peaks(args):
    _emit(args, reports.record_rows([density_peaks(args.n)]))


def _cmd_classical(args):
    xi = uniform_grid(args.xi_min, args.xi_max, args.samples)
    density = classical_mixture_density(args.n, xi)
    _emit(args, {"xi": xi, "density": density},
          series=[(f"classical walk n={args.n}", xi, density)])


def _cmd_compare(args):
    rep = compare_quantum_classical(args.n)
    half = float(args.n) + 4.0
    xi = uniform_grid(-half, half, 1601)
    _emit(
        args,
        reports.record_rows([rep]),
        series=[
            (f"round {args.n} density", xi, psi(args.n, xi) ** 2),
            (f"classical walk n={args.n}", xi, classical_mixture_density(args.n, xi)),
        ],
        markers=[
            ("quantum peaks", rep.quantum_peaks),
            ("classical centers", rep.classical_centers),
        ],
    )


def _cmd_corr_eigen(args):
    xi = uniform_grid(args.xi_min, args.xi_max, args.samples)
    values = correlation_eigenfunction(args.lam, args.ordering, xi)
    _emit(args, reports.correigen_rows(xi, values))


def _cmd_diverge(args):
    _emit(args, reports.record_rows([divergence_scan(args.kind, args.cutoffs)]))


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        args.run(args)
        return 0
    except InputError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
