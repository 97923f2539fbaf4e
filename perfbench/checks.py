"""Output checks against oracles that share no code with the package.

``check(argv, stdout, svg)`` raises ``CheckError`` when a command's output is
wrong.  Matrices are rebuilt here from their textbook definitions and
diagonalized with ``numpy.linalg.eigvalsh``; Hermite zeros come from the
Golub-Welsch tridiagonal; wavefunctions from ``numpy.polynomial.hermite``.
Every tolerance is one the package's own test suite pins, and none is
loosened:

- eigenvalues against eigvalsh: 1e-9 (acceptance criterion 10);
- negation symmetry of a spectrum: 1e-10 (test_correlation);
- finite-mode pay-off expectations: 1e-10 (criterion 4);
- peak positions, symmetry and interlacing: 1e-9 (criterion 7);
- quantum and classical variances against n + 1/2: 1e-6 (criterion 8);
- ladder commutator closed forms: 1e-14 (criterion 1), beyond the rounding
  of the stored sqrt(n), which is computed exactly;
- interior pay-off commutator and |0>-sector value: 1e-12 (criteria 2, 5).

Sampled curves (psi, the classical mixture, xi^s) have no pinned test
tolerance; they must match their closed forms to 1e-12.

Absolute tolerances on eigenvalues scale with kappa1 * kappa2, because the
spectrum does (test_kappa_scaling_covariance).
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np

EIGEN_ATOL = 1e-9
SYMMETRY_ATOL = 1e-10
PAYOFF_ATOL = 1e-10
PEAK_ATOL = 1e-9
VARIANCE_ATOL = 1e-6
LADDER_ATOL = 1e-14
COMMUTATOR_ATOL = 1e-12
ZERO_BAND = 1e-10  # sign-class noise band, relative to max(1, |lambda|max)
WAVE_ATOL = 1e-12
NORM_ATOL = 1e-6
NORM_MARGIN = 3.0  # past the turning point; the density mass beyond it is ~1e-12
DEFAULT_SAMPLES = 1601


class CheckError(Exception):
    """A command's output disagrees with its oracle."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def parse_flags(argv):
    """Subcommand plus its ``--flag value`` pairs (every flag here takes one)."""
    flags = {}
    for i in range(1, len(argv), 2):
        flags[argv[i].lstrip("-").replace("-", "_")] = argv[i + 1]
    return argv[0], flags


def _csv_rows(text):
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise CheckError("empty CSV output")
    rows = []
    for rec in reader:
        _require(len(rec) == len(header), f"CSV row has {len(rec)} fields, header {len(header)}")
        rows.append(dict(zip(header, rec)))
    return header, rows


def _rows(text, fmt):
    """Rows as dicts of strings (CSV) or native values (JSON), plus the JSON doc."""
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckError(f"output is not valid JSON: {exc}")
        _require(isinstance(doc, dict) and "config" in doc and "rows" in doc,
                 "JSON output lacks config/rows")
        return doc["rows"], doc
    return _csv_rows(text)[1], None


def _floats(rows, key):
    return np.array([float(r[key]) for r in rows], dtype=float)


def _float_list(value):
    if isinstance(value, list):
        return np.array(value, dtype=float)
    return np.array([float(tok) for tok in value.split(",")], dtype=float)


def _svg(svg_text):
    _require(svg_text is not None, "SVG file was not written")
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        raise CheckError(f"SVG does not parse as XML: {exc}")
    _require(root.tag.endswith("svg"), f"SVG root element is {root.tag!r}")
    _require(root.findall(".//{http://www.w3.org/2000/svg}polyline"), "SVG has no polyline")


# -- oracles ---------------------------------------------------------------


def ladder(rounds, mode):
    """Raising matrix: <n+1|a+|n> = sqrt(n+1); periodic mode wraps |N> onto |0>."""
    dim = rounds + 1
    a_plus = np.zeros((dim, dim), dtype=complex)
    k = np.arange(rounds)
    a_plus[k + 1, k] = np.sqrt(k + 1.0)
    if mode == "periodic":
        a_plus[0, rounds] = 1.0
    return a_plus


def payoffs(rounds, mode, kappa1=1.0, kappa2=1.0):
    a_plus = ladder(rounds, mode)
    a_minus = a_plus.conj().T
    pi1 = kappa1 * (a_plus + a_minus) / math.sqrt(2.0)
    pi2 = -1j * kappa2 * (a_plus - a_minus) / math.sqrt(2.0)
    return pi1, pi2


def precorrelation(rounds, mode):
    """(pi1 pi2 + pi2 pi1) / 2 at kappa1 = kappa2 = 1."""
    pi1, pi2 = payoffs(rounds, mode)
    return 0.5 * (pi1 @ pi2 + pi2 @ pi1)


def spectrum_oracle(rounds, mode, kappa1=1.0, kappa2=1.0):
    """eigvalsh of kappa1 kappa2 PC(kappa = 1), ascending."""
    return kappa1 * kappa2 * np.linalg.eigvalsh(precorrelation(rounds, mode))


def hermite_zeros(n):
    """Zeros of H_n: eigenvalues of the Golub-Welsch Jacobi matrix."""
    off = np.sqrt(np.arange(1, n) / 2.0)
    return np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))


def wavefunction(n, xi):
    """(2^n n! sqrt(pi))^(-1/2) e^(-xi^2/2) H_n(xi) through numpy's Hermite series."""
    coef = np.zeros(n + 1)
    coef[n] = 1.0
    norm = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return norm * np.exp(-0.5 * xi * xi) * np.polynomial.hermite.hermval(xi, coef)


def classical_density(n, xi):
    """Binomial mixture of unit Gaussians e^(-(xi - c)^2)/sqrt(pi), c = -n, -n+2, ..., n."""
    out = np.zeros_like(xi)
    for k in range(n + 1):
        out += math.comb(n, k) / 2.0**n * np.exp(-((xi - (2 * k - n)) ** 2)) / math.sqrt(math.pi)
    return out


# -- per-subcommand checks -------------------------------------------------


def _check_eigen_block(lam, signs, rounds, mode, kappa1, kappa2, label):
    scale = max(1.0, kappa1 * kappa2)
    expect = spectrum_oracle(rounds, mode, kappa1, kappa2)
    _require(lam.shape == expect.shape, f"{label}: {lam.size} eigenvalues, expected {expect.size}")
    _require(np.all(np.diff(lam) >= 0.0), f"{label}: eigenvalues not ascending")
    err = float(np.max(np.abs(lam - expect)))
    _require(err <= EIGEN_ATOL * scale, f"{label}: eigenvalues off eigvalsh by {err:.3e}")
    sym = float(np.max(np.abs(lam + lam[::-1])))
    _require(sym <= SYMMETRY_ATOL * scale, f"{label}: spectrum not negation-symmetric ({sym:.3e})")
    band = ZERO_BAND * max(1.0, float(np.max(np.abs(lam))))
    expect_signs = np.where(lam > band, 1, np.where(lam < -band, -1, 0))
    _require(np.array_equal(signs, expect_signs), f"{label}: sign classes disagree with eigenvalues")
    _require(sorted(signs) == sorted(-signs), f"{label}: sign classes not negation-symmetric")


def _check_spectrum_rows(rows, rounds, mode, kappa1, kappa2, label):
    dim = rounds + 1
    _require(len(rows) == dim, f"{label}: {len(rows)} rows, expected {dim}")
    _require([int(r["index"]) for r in rows] == list(range(dim)), f"{label}: bad index column")
    lam = _floats(rows, "eigenvalue")
    signs = np.array([int(r["sign_class"]) for r in rows])
    _check_eigen_block(lam, signs, rounds, mode, kappa1, kappa2, label)
    parities = [r["parity"] for r in rows]
    if mode == "finite":
        _require(parities.count("even") == (dim + 1) // 2 and parities.count("odd") == dim // 2,
                 f"{label}: parity labels do not split {dim} states into blocks")
        for key in ("exp_pi1", "exp_pi2"):
            worst = float(np.max(np.abs(_floats(rows, key))))
            _require(worst <= PAYOFF_ATOL, f"{label}: <{key[4:]}> = {worst:.3e} does not vanish")
    else:
        _require(set(parities) == {"mixed"}, f"{label}: periodic rows must be labelled mixed")


def _check_spectrum(flags, text):
    fmt = flags.get("format", "csv")
    rows, _ = _rows(text, fmt)
    _check_spectrum_rows(rows, int(flags["rounds"]), flags.get("mode", "finite"),
                         float(flags.get("kappa1", 1.0)), float(flags.get("kappa2", 1.0)),
                         f"spectrum --rounds {flags['rounds']}")


def _check_sweep(flags, text):
    rows, _ = _rows(text, flags.get("format", "csv"))
    rounds_max = int(flags["rounds_max"])
    mode = flags.get("mode", "finite")
    k1, k2 = float(flags.get("kappa1", 1.0)), float(flags.get("kappa2", 1.0))
    expected = sum(r + 1 for r in range(1, rounds_max + 1))
    _require(len(rows) == expected, f"sweep: {len(rows)} rows, expected {expected}")
    start = 0
    for rounds in range(1, rounds_max + 1):
        block = rows[start:start + rounds + 1]
        _require(all(int(r["rounds"]) == rounds for r in block), f"sweep: rounds {rounds} rows misplaced")
        _check_spectrum_rows(block, rounds, mode, k1, k2, f"sweep rounds {rounds}")
        start += rounds + 1


def _check_maxima(maxima, n, label):
    _require(maxima.size == n + 1, f"{label}: {maxima.size} maxima, expected n + 1 = {n + 1}")
    _require(np.all(np.diff(maxima) > 0.0), f"{label}: maxima not strictly ascending")
    asym = float(np.max(np.abs(maxima + maxima[::-1])))
    _require(asym <= PEAK_ATOL, f"{label}: maxima not symmetric ({asym:.3e})")
    if n >= 1:
        zeros = hermite_zeros(n)
        _require(np.all(maxima[:-1] < zeros - PEAK_ATOL) and np.all(zeros + PEAK_ATOL < maxima[1:]),
                 f"{label}: maxima do not interlace the Hermite zeros")


def _check_centers(centers, n, label):
    _require(np.array_equal(centers, np.arange(-n, n + 1, 2, dtype=float)),
             f"{label}: classical centers are not -n, -n+2, ..., n")


def _check_peaks(flags, text):
    rows, _ = _rows(text, "csv")
    n = int(flags["n"])
    _require(len(rows) == 1 and int(rows[0]["n"]) == n, "peaks: expected one row for n")
    _check_maxima(_float_list(rows[0]["maxima"]), n, f"peaks --n {n}")
    _check_centers(_float_list(rows[0]["classical_centers"]), n, f"peaks --n {n}")


def _check_compare(flags, text, svg):
    rows, _ = _rows(text, "csv")
    n = int(flags["n"])
    _require(len(rows) == 1 and int(rows[0]["n"]) == n, "compare: expected one row for n")
    row = rows[0]
    maxima = _float_list(row["quantum_peaks"])
    _check_maxima(maxima, n, f"compare --n {n}")
    _check_centers(_float_list(row["classical_centers"]), n, f"compare --n {n}")
    for key in ("quantum_variance", "classical_variance"):
        dev = abs(float(row[key]) - (n + 0.5))
        _require(dev <= VARIANCE_ATOL, f"compare --n {n}: {key} off n + 1/2 by {dev:.3e}")
    _require(float(row["outermost_quantum_peak"]) == float(np.max(np.abs(maxima))),
             "compare: outermost quantum peak disagrees with the peak list")
    _require(float(row["outermost_classical_center"]) == float(n), "compare: outermost center is not n")
    deeper = float(row["quantum_center_density"]) < float(row["classical_center_density"])
    _require(row["quantum_minimum_deeper"] == ("true" if deeper else "false"),
             "compare: quantum_minimum_deeper disagrees with the densities")
    if "svg" in flags:
        _svg(svg)


def _grid(flags, xi_min):
    samples = int(flags.get("samples", DEFAULT_SAMPLES))
    return np.linspace(float(flags.get("xi_min", xi_min)), float(flags.get("xi_max", 8.0)), samples)


def _check_density(flags, text, svg):
    _, rows = _csv_rows(text)
    xi = _grid(flags, -8.0)
    n = int(flags["n"])
    _require(len(rows) == xi.size, f"density: {len(rows)} rows, expected --samples {xi.size}")
    _require(np.array_equal(_floats(rows, "xi"), xi), "density: xi column is not the requested grid")
    wave = _floats(rows, "psi")
    dens = _floats(rows, "density")
    err = float(np.max(np.abs(wave - wavefunction(n, xi))))
    _require(err <= WAVE_ATOL, f"density --n {n}: psi off the Hermite-series oracle by {err:.3e}")
    _require(np.array_equal(dens, wave * wave), "density: density column is not psi^2")
    reach = math.sqrt(2 * n + 1) + NORM_MARGIN
    if xi[0] <= -reach and xi[-1] >= reach:
        mass = float((xi[1] - xi[0]) * (np.sum(dens) - 0.5 * (dens[0] + dens[-1])))
        _require(abs(mass - 1.0) <= NORM_ATOL, f"density --n {n}: norm {mass!r} is not 1")
    if "svg" in flags:
        _svg(svg)


def _check_classical(flags, text, svg):
    _, rows = _csv_rows(text)
    xi = _grid(flags, -8.0)
    n = int(flags["n"])
    _require(len(rows) == xi.size, f"classical: {len(rows)} rows, expected --samples {xi.size}")
    _require(np.array_equal(_floats(rows, "xi"), xi), "classical: xi column is not the requested grid")
    expect = classical_density(n, xi)
    err = float(np.max(np.abs(_floats(rows, "density") - expect) / np.maximum(expect, 1e-300)))
    _require(err <= 1e-12, f"classical --n {n}: density off the binomial mixture by rel {err:.3e}")
    if "svg" in flags:
        _svg(svg)


def _check_corr_eigen(flags, text):
    _, rows = _csv_rows(text)
    xi = _grid(flags, 0.01)
    _require(len(rows) == xi.size, f"corr-eigen: {len(rows)} rows, expected --samples {xi.size}")
    _require(np.array_equal(_floats(rows, "xi"), xi), "corr-eigen: xi column is not the requested grid")
    shift = 1.0 if flags.get("ordering", "weyl") == "printed" else 0.5
    lam = float(flags["lambda"])
    modulus = xi**-shift
    phase = -lam * np.log(xi)
    for key, expect in (("re", modulus * np.cos(phase)), ("im", modulus * np.sin(phase)),
                        ("abs", modulus)):
        err = float(np.max(np.abs(_floats(rows, key) - expect) / modulus))
        _require(err <= 1e-12, f"corr-eigen: {key} off xi^s by rel {err:.3e}")


_DIVERGENCE = {"plane": "linear", "printed": "linear", "weyl": "logarithmic"}


def _check_diverge(flags, text):
    rows, _ = _rows(text, "csv")
    _require(len(rows) == 1, "diverge: expected one row")
    row = rows[0]
    kind = flags["kind"]
    _require(row["kind"] == kind, "diverge: wrong kind echoed")
    _require(row["classification"] == _DIVERGENCE[kind],
             f"diverge --kind {kind}: classified {row['classification']}, expected {_DIVERGENCE[kind]}")
    cuts = np.array([float(t) for t in flags["cutoffs"].split(",")])
    _require(np.array_equal(_float_list(row["cutoffs"]), cuts), "diverge: cutoffs not echoed")
    _require(np.all(np.diff(_float_list(row["integrals"])) > 0.0), "diverge: norm integrals do not grow")


def _matrix(obj, label):
    _require(isinstance(obj, dict) and "re" in obj and "im" in obj, f"{label}: missing matrix")
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def exact_ladder_commutator(rounds, mode):
    """Diagonal of [a-, a+] for the stored float ladder, computed in rationals.

    The stored sqrt(n) carry rounding, so this differs from the closed form
    by up to ~n * 2^-52: beyond the pinned 1e-14 once n exceeds ~45.
    """
    col = [Fraction(0)] * (rounds + 1)  # squared entry in column n of a+
    row = [Fraction(0)] * (rounds + 1)  # squared entry in row n of a+
    for n in range(rounds):
        sq = Fraction(math.sqrt(n + 1.0)) ** 2
        col[n] += sq
        row[n + 1] += sq
    if mode == "periodic":
        col[rounds] += 1
        row[0] += 1
    return np.array([float(c - r) for c, r in zip(col, row)])


def _check_audit(flags, text):
    _require(flags.get("format") == "json", "audit check expects --format json")
    rows, doc = _rows(text, "json")
    rounds = int(flags["rounds"])
    mode = flags.get("mode", "finite")
    k1, k2 = float(flags.get("kappa1", 1.0)), float(flags.get("kappa2", 1.0))
    metrics = {r["metric"]: r["value"] for r in rows}
    _require(metrics.get("payoff_sign") == -1, f"audit: payoff_sign = {metrics.get('payoff_sign')}, expected -1")
    audit = doc.get("audit", {})
    dim = rounds + 1
    ladder_comm = _matrix(audit.get("ladder_commutator"), "audit ladder commutator")
    payoff_comm = _matrix(audit.get("payoff_commutator"), "audit pay-off commutator")
    _require(ladder_comm.shape == (dim, dim) and payoff_comm.shape == (dim, dim),
             "audit: commutators have the wrong shape")
    closed = np.ones(dim)
    if mode == "finite":
        closed[rounds] = -float(rounds)
    else:
        closed[0] = 0.0
        closed[rounds] = 1.0 - float(rounds)
    # the closed form must hold to 1e-14 beyond the exactly known rounding of the stored sqrt(n)
    exact = exact_ladder_commutator(rounds, mode)
    dev = np.abs(ladder_comm - np.diag(closed))
    allowed = np.diag(np.abs(exact - closed)) + LADDER_ATOL
    worst = float(np.max(dev - allowed))
    _require(worst <= 0.0, f"audit: [a-, a+] off its closed form by {worst:.3e} beyond input rounding")
    _require(abs(metrics.get("ladder_trace_re", 1.0)) <= COMMUTATOR_ATOL, "audit: ladder trace not 0")
    # [pi1, pi2] = -i k1 k2 on the interior: 0..N-2 (finite) or 1..N-2 (periodic, whose |0> commutes)
    lo = 0 if mode == "finite" else 1
    if rounds - 1 > lo:
        block = payoff_comm[lo:rounds - 1, lo:rounds - 1]
        dev = float(np.max(np.abs(block + 1j * k1 * k2 * np.eye(rounds - 1 - lo))))
        _require(dev <= COMMUTATOR_ATOL * k1 * k2, f"audit: [pi1, pi2] interior off -i k1 k2 by {dev:.3e}")
    if mode == "finite":
        _require(metrics.get("payoff_interior_max_deviation", 1.0) <= COMMUTATOR_ATOL * k1 * k2,
                 "audit: reported interior pay-off deviation too large")
    else:
        _require(abs(payoff_comm[0, 0]) <= COMMUTATOR_ATOL, "audit: periodic |0>-sector does not commute")


def _check_operators(flags, text):
    _require(flags.get("format") == "json", "operators check expects --format json")
    rows, doc = _rows(text, "json")
    rounds = int(flags["rounds"])
    mode = flags.get("mode", "finite")
    k1, k2 = float(flags.get("kappa1", 1.0)), float(flags.get("kappa2", 1.0))
    dim = rounds + 1
    _require(len(rows) == 6 * dim * dim, f"operators: {len(rows)} rows, expected {6 * dim * dim}")
    a_plus = ladder(rounds, mode)
    pi1, pi2 = payoffs(rounds, mode, k1, k2)
    expect = {"a_plus": a_plus, "a_minus": a_plus.conj().T, "number": a_plus @ a_plus.conj().T,
              "pi1": pi1, "pi2": pi2, "precorrelation": 0.5 * (pi1 @ pi2 + pi2 @ pi1)}
    for i, name in enumerate(expect):
        chunk = rows[i * dim * dim:(i + 1) * dim * dim]
        _require(all(r["matrix"] == name for r in chunk), f"operators: {name} rows misplaced")
        got = (np.array([r["re"] for r in chunk]) + 1j * np.array([r["im"] for r in chunk])).reshape(dim, dim)
        scale = max(1.0, float(np.max(np.abs(expect[name]))))
        err = float(np.max(np.abs(got - expect[name])))
        _require(err <= COMMUTATOR_ATOL * scale, f"operators: {name} off its definition by {err:.3e}")
    _require(doc.get("audit", {}).get("metrics", {}).get("payoff_sign") == -1,
             "operators: embedded audit lacks payoff_sign = -1")


def check(argv, stdout: str, svg: str | None = None) -> None:
    """Raise CheckError unless ``stdout`` (and the SVG, if any) is right for ``argv``."""
    sub, flags = parse_flags(argv)
    if sub == "spectrum":
        _check_spectrum(flags, stdout)
    elif sub == "sweep":
        _check_sweep(flags, stdout)
    elif sub == "peaks":
        _check_peaks(flags, stdout)
    elif sub == "compare":
        _check_compare(flags, stdout, svg)
    elif sub == "density":
        _check_density(flags, stdout, svg)
    elif sub == "classical":
        _check_classical(flags, stdout, svg)
    elif sub == "corr-eigen":
        _check_corr_eigen(flags, stdout)
    elif sub == "diverge":
        _check_diverge(flags, stdout)
    elif sub == "audit":
        _check_audit(flags, stdout)
    elif sub == "operators":
        _check_operators(flags, stdout)
    else:
        raise CheckError(f"no oracle for subcommand {sub!r}")
