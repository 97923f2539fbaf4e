"""Row assembly and CSV/JSON serialization for the command-line surface.

Every subcommand's output is a table of equal-length columns, keyed by
column name in output order: a float64 numpy array, formatted a whole
column at a time, or a list of plain Python values (float/int/bool/str/
None or lists of floats), formatted field by field.  The table's keys are
both the CSV header and the JSON row keys, so the ``*_rows`` builders are
the one place that names and orders a table's columns.  CSV renders floats
with 17 significant digits ('.' decimal separator, '\\n' line endings,
RFC-4180-style quoting); JSON keeps native doubles so a re-parse reproduces
the report exactly, in the layout of ``json.dumps(payload, indent=2)``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .correlation import CorrelationReport
from .gamespace import CommutatorAudit, OperatorSet, PayoffVariance
from .roundwaves import ComparisonReport, DensityGrid, DivergenceReport, PeakSet


def format_field(value) -> str:
    """One CSV field, before quoting."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(format_field(v) for v in value)
    return str(value)


def _escape(field: str) -> str:
    if any(ch in field for ch in (",", '"', "\n")):
        return '"' + field.replace('"', '""') + '"'
    return field


def _columns(table: dict) -> list:
    """The table's columns in order; raises ValueError on ragged lengths."""
    cols = list(table.values())
    if len({len(c) for c in cols}) > 1:
        raise ValueError(f"columns {list(table)} differ in length: {[len(c) for c in cols]}")
    return cols


def write_csv(table: dict) -> str:
    """CSV document, one %-template per row.

    A float column is formatted by the template itself ("%.17g", the bytes
    of format_field) and never needs quoting; other fields are formatted and
    escaped one by one.
    """
    fields, formats = [], []
    for col in _columns(table):
        if isinstance(col, np.ndarray):
            fields.append(col.tolist())
            formats.append("%.17g")
        else:
            fields.append([_escape(format_field(v)) for v in col])
            formats.append("%s")
    lines = [",".join(_escape(h) for h in table)]
    lines.extend(map(",".join(formats).__mod__, zip(*fields)))
    return "\n".join(lines) + "\n"


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values) -> list[str]:
    """JSON spelling of each float, as json.dumps writes it."""
    reprs = list(map(float.__repr__, values))
    return list(map(_JSON_NONFINITE.get, reprs, reprs))


def _json_items(values: list, level: int) -> list[str]:
    """JSON spelling of each value; a list of one plain type in one pass."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return _json_floats(values)
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {str}:
        return list(map(_json_str, values))
    return [_json(v, level) for v in values]


def _json(value, level: int) -> str:
    """``value`` in the json.dumps(indent=2) layout, nested ``level`` deep."""
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _json_floats([float(value)])[0]
    if isinstance(value, str):
        return _json_str(value)
    inner = "\n" + "  " * (level + 1)
    if isinstance(value, dict):
        items = [f"{_json_str(k)}: {_json(v, level + 1)}" for k, v in value.items()]
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple, np.ndarray)):
        if isinstance(value, np.ndarray):
            value = value.tolist()
        items = _json_items(list(value), level + 1)
        opening, closing = "[", "]"
    else:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    if not items:
        return opening + closing
    return opening + inner + ("," + inner).join(items) + "\n" + "  " * level + closing


def _json_rows(table: dict) -> str:
    """The table as the JSON list of row objects, one %-template per row."""
    cells = [
        _json_items(col.tolist() if isinstance(col, np.ndarray) else col, 3)
        for col in _columns(table)
    ]
    # the rows list sits at level 1 of the document: row objects at 4
    # spaces, their keys at 6
    keys = (_json_str(h).replace("%", "%%") for h in table)
    template = "    {" + ",".join(f"\n      {k}: %s" for k in keys) + "\n    }"
    rows = list(map(template.__mod__, zip(*cells)))
    if not rows:
        return "[]"
    return "[\n" + ",\n".join(rows) + "\n  ]"


def write_json(config: dict, table: dict, audit: dict | None = None) -> str:
    """JSON document {config, rows[, audit]}, byte for byte as json.dumps(indent=2)."""
    parts = [f'  "config": {_json(config, 1)}', f'  "rows": {_json_rows(table)}']
    if audit is not None:
        parts.append(f'  "audit": {_json(audit, 1)}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def matrix_json(m: np.ndarray) -> dict:
    """Complex matrix as parallel nested lists of real and imaginary parts."""
    a = np.asarray(m, dtype=complex)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


OPERATOR_ORDER = ("a_plus", "a_minus", "number", "pi1", "pi2", "precorrelation")


def _one_row(row: dict) -> dict:
    """The table of a single row."""
    return {name: [value] for name, value in row.items()}


def concat_tables(tables: list[dict]) -> dict:
    """One table holding the rows of ``tables`` (same columns) in order."""
    return {
        h: np.concatenate([t[h] for t in tables]) if isinstance(col, np.ndarray)
        else [v for t in tables for v in t[h]]
        for h, col in tables[0].items()
    }


def operator_rows(ops: OperatorSet) -> dict:
    mats = [np.asarray(getattr(ops, name), dtype=complex) for name in OPERATOR_ORDER]
    d = mats[0].shape[0]
    index = np.arange(d)
    return {
        "matrix": [name for name in OPERATOR_ORDER for _ in range(d * d)],
        "row": np.repeat(index, d).tolist() * len(mats),
        "col": np.tile(index, d).tolist() * len(mats),
        "re": np.concatenate([m.real.ravel() for m in mats]),
        "im": np.concatenate([m.imag.ravel() for m in mats]),
    }


def audit_rows(audit: CommutatorAudit) -> dict:
    metrics = {
        "ladder_trace_re": float(audit.ladder_trace.real),
        "ladder_trace_im": float(audit.ladder_trace.imag),
    }
    for name in sorted(audit.pattern_max_deviation):
        metrics[f"ladder_pattern_{name}_max_deviation"] = audit.pattern_max_deviation[name]
    metrics.update(
        {
            "payoff_interior_max_deviation": audit.interior_max_deviation,
            "payoff_sign": audit.payoff_sign,
            "zero_sector_re": float(audit.zero_sector_value.real),
            "zero_sector_im": float(audit.zero_sector_value.imag),
        }
    )
    return {"metric": list(metrics), "value": list(metrics.values())}


def audit_detail(audit: CommutatorAudit) -> dict:
    return {
        "ladder_commutator": matrix_json(audit.ladder_commutator),
        "payoff_commutator": matrix_json(audit.payoff_commutator),
        "pattern_entry_deviation": {
            name: dev.tolist() for name, dev in sorted(audit.pattern_entry_deviation.items())
        },
    }


_SPECTRUM_COLUMNS = (
    "index", "eigenvalue", "parity", "exp_pi1", "exp_pi2",
    "sigma1", "sigma2", "correlation", "pearson", "sign_class",
)
_SPECTRUM_PLAIN = ("index", "parity", "pearson", "sign_class")  # not float columns


def spectrum_rows(report: CorrelationReport, rounds: int | None = None) -> dict:
    rows = report.rows
    table = {} if rounds is None else {"rounds": [rounds] * len(rows)}
    for name in _SPECTRUM_COLUMNS:
        values = [getattr(r, name) for r in rows]
        table[name] = values if name in _SPECTRUM_PLAIN else np.array(values, dtype=float)
    return table


def variance_rows(rounds: int, n: int, player: int, kappa: float, pv: PayoffVariance) -> dict:
    return _one_row(
        {
            "rounds": rounds,
            "n": n,
            "player": player,
            "kappa": kappa,
            "value": pv.value,
            "interior": pv.interior,
        }
    )


def density_rows(grid: DensityGrid) -> dict:
    return {
        "xi": np.asarray(grid.xi, dtype=float),
        "psi": np.asarray(grid.psi, dtype=float),
        "density": np.asarray(grid.density, dtype=float),
    }


def peaks_rows(ps: PeakSet) -> dict:
    return _one_row(
        {
            "n": ps.n,
            "maxima": [float(x) for x in ps.maxima],
            "classical_centers": [float(x) for x in ps.classical_centers],
        }
    )


def classical_rows(xi: np.ndarray, density: np.ndarray) -> dict:
    return {"xi": np.asarray(xi, dtype=float), "density": np.asarray(density, dtype=float)}


def compare_rows(rep: ComparisonReport) -> dict:
    return _one_row(
        {
            "n": rep.n,
            "quantum_peaks": [float(x) for x in rep.quantum_peaks],
            "classical_centers": [float(x) for x in rep.classical_centers],
            "quantum_center_density": rep.quantum_center_density,
            "classical_center_density": rep.classical_center_density,
            "quantum_minimum_deeper": rep.quantum_minimum_deeper,
            "quantum_variance": rep.quantum_variance,
            "classical_variance": rep.classical_variance,
            "outermost_quantum_peak": rep.outermost_quantum_peak,
            "outermost_classical_center": rep.outermost_classical_center,
        }
    )


def correigen_rows(xi: np.ndarray, values: np.ndarray) -> dict:
    values = np.asarray(values, dtype=complex)
    return {
        "xi": np.asarray(xi, dtype=float),
        "re": values.real,
        "im": values.imag,
        # np.abs on complex differs from Python's abs in the last bit on many
        # samples; hypot of the parts matches it exactly
        "abs": np.hypot(values.real, values.imag),
    }


def diverge_rows(rep: DivergenceReport) -> dict:
    return _one_row(
        {
            "kind": rep.kind,
            "classification": rep.classification,
            "linear_residual": rep.linear_residual,
            "log_residual": rep.log_residual,
            "cutoffs": [float(x) for x in rep.cutoffs],
            "integrals": [float(x) for x in rep.integrals],
        }
    )
