"""Command-line interface.

Every analysis is a subcommand that prints a CSV table to stdout.  Only
operators, audit, spectrum and sweep take --format json and --out PATH;
density, classical and compare can additionally write an SVG figure to
--svg PATH.  Exit codes: 0 success, 2 usage/invalid input, 1
numerical failure or I/O error.

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
import math
import re
import sys

import numpy as np

from . import reports
from .correlation import correlation_spectrum
from .errors import ConvergenceError, InputError, StructureError
from .gamespace import (
    GameSpace,
    audit_commutators,
    build_operators,
    payoff_variance,
)
from .roundwaves import (
    classical_mixture_density,
    compare_quantum_classical,
    correlation_eigenfunction,
    density_grid,
    density_peaks,
    divergence_scan,
)
from .svgplot import MarkerGroup, Series, render_svg

PROG = "quantumtoss"
# largest --rounds-max of `sweep`: 128 spectra up to dimension 129, which
# took 20-21 s in periodic mode (8-12 s finite) on a 2-vCPU Linux VM
SWEEP_ROUNDS_MAX = 128
# argparse reads only -12 and -1.5 as negative numbers, and -1e-3 or -inf as
# an option; this also takes exponents and inf, infinity and nan in any case
_NEGATIVE_NUMBER = re.compile(r"(?i)^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$")


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {text!r}")
    return value


def _pos_int(text: str) -> int:
    value = _nonneg_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _pos_float(text: str) -> float:
    value = _float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _cutoff_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _add_game_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=("finite", "periodic"), default="finite")
    sub.add_argument("--kappa1", type=_pos_float, default=1.0)
    sub.add_argument("--kappa2", type=_pos_float, default=1.0)


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None)


def _add_grid_flags(sub: argparse.ArgumentParser, xi_min: float = -8.0) -> None:
    sub.add_argument("--xi-min", dest="xi_min", type=_float, default=xi_min)
    sub.add_argument("--xi-max", dest="xi_max", type=_float, default=8.0)
    sub.add_argument("--samples", type=_pos_int, default=1601)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Two-player round-game pay-off algebra, spectra and densities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("operators", help="dump all game operators (plus the audit in JSON)")
    p.add_argument("--rounds", type=_nonneg_int, required=True)
    _add_game_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("audit", help="commutator patterns, deviations and the |0>-sector value")
    p.add_argument("--rounds", type=_nonneg_int, required=True)
    _add_game_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("spectrum", help="pre-correlation spectrum with per-eigenstate statistics")
    p.add_argument("--rounds", type=_nonneg_int, required=True)
    _add_game_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("sweep", help="spectra for every round count up to --rounds-max")
    p.add_argument("--rounds-max", dest="rounds_max", type=_pos_int, required=True)
    _add_game_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("variance", help="mean-squared pay-off of one player in a round state")
    p.add_argument("--rounds", type=_nonneg_int, required=True)
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--player", type=int, choices=(1, 2), required=True)
    p.add_argument("--kappa1", type=_pos_float, default=1.0)
    p.add_argument("--kappa2", type=_pos_float, default=1.0)

    p = sub.add_parser("density", help="round wavefunction and density on a grid")
    p.add_argument("--n", type=_nonneg_int, required=True)
    _add_grid_flags(p)
    p.add_argument("--svg", default=None)

    p = sub.add_parser("peaks", help="density maxima of one round state")
    p.add_argument("--n", type=_nonneg_int, required=True)

    p = sub.add_parser("classical", help="classical random-walk density on a grid")
    p.add_argument("--n", type=_nonneg_int, required=True)
    _add_grid_flags(p)
    p.add_argument("--svg", default=None)

    p = sub.add_parser("compare", help="quantum density versus the classical walk")
    p.add_argument("--n", type=_pos_int, required=True)
    p.add_argument("--svg", default=None)

    p = sub.add_parser("corr-eigen", help="correlation eigenfunction on a positive grid")
    p.add_argument("--lambda", dest="lam", type=_float, required=True)
    p.add_argument("--ordering", choices=("printed", "weyl"), default="weyl")
    _add_grid_flags(p, xi_min=0.01)

    p = sub.add_parser("diverge", help="classify the norm divergence of a continuum state")
    p.add_argument("--kind", choices=("plane", "printed", "weyl"), required=True)
    p.add_argument("--cutoffs", type=_cutoff_list, required=True)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _emit(args, table, config=None, audit=None, figure=None):
    """Print or write the table; ``config`` only for subcommands with --format."""
    if getattr(args, "format", "csv") == "json":
        text = reports.write_json(config, table, audit)
    else:
        text = reports.write_csv(table)
    out = getattr(args, "out", None)
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if figure is not None:  # built only when --svg is given
        with open(args.svg, "w", encoding="utf-8", newline="") as fh:
            fh.write(figure)


def _game_config(args) -> dict:
    rounds = "rounds_max" if args.subcommand == "sweep" else "rounds"
    return {
        "subcommand": args.subcommand,
        rounds: getattr(args, rounds),
        "mode": args.mode,
        "kappa1": args.kappa1,
        "kappa2": args.kappa2,
        "format": args.format,
    }


def _cmd_operators(args):
    gs = GameSpace(args.rounds, args.mode, args.kappa1, args.kappa2)
    ops = build_operators(gs)
    audit = audit_commutators(gs)
    metrics = reports.audit_rows(audit)
    audit_obj = {
        "metrics": dict(zip(metrics["metric"], metrics["value"])),
        **reports.audit_detail(audit),
    }
    _emit(args, reports.operator_rows(ops), _game_config(args), audit=audit_obj)


def _cmd_audit(args):
    gs = GameSpace(args.rounds, args.mode, args.kappa1, args.kappa2)
    audit = audit_commutators(gs)
    _emit(args, reports.audit_rows(audit), _game_config(args),
          audit=reports.audit_detail(audit))


def _cmd_spectrum(args):
    gs = GameSpace(args.rounds, args.mode, args.kappa1, args.kappa2)
    report = correlation_spectrum(gs)
    _emit(args, reports.spectrum_rows(report), _game_config(args))


def _cmd_sweep(args):
    if args.rounds_max > SWEEP_ROUNDS_MAX:
        raise InputError(
            f"--rounds-max {args.rounds_max} exceeds the sweep ceiling {SWEEP_ROUNDS_MAX}"
        )
    tables = []
    for rounds in range(1, args.rounds_max + 1):
        gs = GameSpace(rounds, args.mode, args.kappa1, args.kappa2)
        tables.append(reports.spectrum_rows(correlation_spectrum(gs), rounds=rounds))
    _emit(args, reports.concat_tables(tables), _game_config(args))


def _cmd_variance(args):
    gs = GameSpace(args.rounds, "finite", args.kappa1, args.kappa2)
    pv = payoff_variance(gs, args.n, args.player)
    kappa = args.kappa1 if args.player == 1 else args.kappa2
    _emit(args, reports.variance_rows(args.rounds, args.n, args.player, kappa, pv))


def _cmd_density(args):
    grid = density_grid(args.n, args.xi_min, args.xi_max, args.samples)
    figure = None
    if args.svg is not None:
        figure = render_svg(
            [Series(f"round {args.n} density", grid.xi, grid.density)],
            x_label="xi", y_label="density",
        )
    _emit(args, reports.density_rows(grid), figure=figure)


def _cmd_peaks(args):
    _emit(args, reports.peaks_rows(density_peaks(args.n)))


def _grid(args) -> np.ndarray:
    # a range whose width overflows would fill the grid with inf and nan
    if not math.isfinite(args.xi_max - args.xi_min) or args.xi_min >= args.xi_max:
        raise InputError(f"invalid range [{args.xi_min}, {args.xi_max}]")
    return np.linspace(args.xi_min, args.xi_max, args.samples)


def _cmd_classical(args):
    xi = _grid(args)
    density = classical_mixture_density(args.n, xi)
    figure = None
    if args.svg is not None:
        figure = render_svg(
            [Series(f"classical walk n={args.n}", xi, density)],
            x_label="xi", y_label="density",
        )
    _emit(args, reports.classical_rows(xi, density), figure=figure)


def _cmd_compare(args):
    rep = compare_quantum_classical(args.n)
    figure = None
    if args.svg is not None:
        half = float(args.n) + 4.0
        grid = density_grid(args.n, -half, half, 1601)
        classical = classical_mixture_density(args.n, grid.xi)
        figure = render_svg(
            [
                Series(f"round {args.n} density", grid.xi, grid.density),
                Series(f"classical walk n={args.n}", grid.xi, classical),
            ],
            x_label="xi",
            y_label="density",
            markers=[
                MarkerGroup("quantum peaks", tuple(float(x) for x in rep.quantum_peaks)),
                MarkerGroup("classical centers", tuple(float(x) for x in rep.classical_centers)),
            ],
        )
    _emit(args, reports.compare_rows(rep), figure=figure)


def _cmd_corr_eigen(args):
    xi = _grid(args)
    values = correlation_eigenfunction(args.lam, args.ordering, xi)
    _emit(args, reports.correigen_rows(xi, values))


def _cmd_diverge(args):
    _emit(args, reports.diverge_rows(divergence_scan(args.kind, args.cutoffs)))


_COMMANDS = {
    "operators": _cmd_operators,
    "audit": _cmd_audit,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "variance": _cmd_variance,
    "density": _cmd_density,
    "peaks": _cmd_peaks,
    "classical": _cmd_classical,
    "compare": _cmd_compare,
    "corr-eigen": _cmd_corr_eigen,
    "diverge": _cmd_diverge,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        _COMMANDS[args.subcommand](args)
        return 0
    except InputError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, StructureError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
