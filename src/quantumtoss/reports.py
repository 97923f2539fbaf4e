"""Row assembly and CSV/JSON serialization for the command-line surface.

Every subcommand's output is a table of equal-length columns, keyed by
column name in output order: a float64 or int64 numpy array, or a list of
plain Python values (float/int/bool/str/None or lists of floats).  The keys
are both the CSV header and the JSON row keys, and each column is named in
one place: a table of result records (named tuples) takes its columns from
the record's fields, in field order (``spectrum_rows``, and ``one_row`` of
the ``_asdict()`` of a ``ComparisonReport``, ``DivergenceReport``,
``PayoffVariance`` or ``PeakSet``); a table of derived columns is named by
its ``*_rows`` builder, and a sampled grid or the audit's metric/value
table by the subcommand that prints it.
CSV writes an array column byte for byte as Python's '%.17g' through
``_floattext``, adjacent array columns in one batch per chunk, and a list
column field by field (a column of strings once per distinct value), with
'\\n' line endings and RFC-4180-style quoting.  JSON keeps native doubles so
a re-parse reproduces the report exactly, in the layout of
``json.dumps(payload, indent=2)``: each distinct number of an array column
and each distinct string of a column of strings is spelled once, other
values one by one, and the document is built in one join.  The json module
loads only with the first JSON string spelled, so a CSV run never imports
it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ._floattext import rows_text
from .correlation import CorrelationRow
from .gamespace import CommutatorAudit, OperatorSet


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
    """CSV document: the header line, then the rows, written a chunk at a time.

    A float64 array column is written with numpy integer arithmetic, byte
    for byte as '%.17g' (the bytes of format_field), and never needs
    quoting.  An int64 array column goes the same way: '%.17g' % float(i)
    == str(i) for every |i| < 2^53, so it is written as format_field writes
    an int.  The fields of a list column are formatted and escaped one by
    one, those of a column of strings once per distinct value.
    """
    columns = [
        ("%.17g", col) if isinstance(col, np.ndarray)
        else ("%s", list(map({v: _escape(v) for v in set(col)}.__getitem__, col)))
        if set(map(type, col)) == {str}
        else ("%s", [_escape(format_field(v)) for v in col])
        for col in _columns(table)
    ]
    return rows_text(columns, "\n", head=",".join(_escape(h) for h in table) + "\n")


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    """JSON spelling of one float, as json.dumps writes it."""
    text = float.__repr__(value)
    return _JSON_NONFINITE.get(text, text)


def _json_numbers(a: np.ndarray) -> np.ndarray:
    """JSON spelling of each number of a float or int array, as an object array of its shape.

    Each distinct value is spelled once -- for floats each distinct bit
    pattern, so -0.0 and every nan keep their json.dumps spelling -- and
    gathered for its entries by a binary search in the sorted distinct values.
    """
    a = np.asarray(a, dtype=float if a.dtype.kind == "f" else np.int64)
    bits = a.ravel().view(np.uint64)
    distinct = np.sort(bits)
    first = np.ones(distinct.size, dtype=bool)
    first[1:] = distinct[1:] != distinct[:-1]
    distinct = distinct[first]
    spell = _json_float if a.dtype.kind == "f" else int.__repr__
    spellings = np.array(list(map(spell, distinct.view(a.dtype).tolist())), dtype=object)
    return spellings[np.searchsorted(distinct, bits)].reshape(a.shape)


def _json_strings(texts) -> list[str]:
    """JSON spelling of each string, ASCII-escaped as json.dumps writes it.

    json loads here, with the first string of a JSON document: a CSV run
    never imports it.
    """
    from json.encoder import encode_basestring_ascii

    return list(map(encode_basestring_ascii, texts))


def _json_items(values, level: int) -> list[str]:
    """JSON spelling of each value of a list or 1-D array: a float or int
    array through _json_numbers, a list of strings once per distinct string,
    other values one by one at ``level``."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fi":
        return _json_numbers(values).tolist()
    if set(map(type, values)) == {str}:
        distinct = list(set(values))
        return list(map(dict(zip(distinct, _json_strings(distinct))).__getitem__, values))
    return [_json(v, level) for v in values]


def _json_block(items: list[str], level: int, brackets: str = "[]") -> str:
    """Spelled items as a list (or with "{}", the members of an object)
    in the json.dumps(indent=2) layout, nested ``level`` deep."""
    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + brackets[1]


def _json_nested(cells: np.ndarray, level: int) -> str:
    """An array of spellings as nested lists, laid out a row at a time."""
    if cells.ndim == 1:
        return _json_block(cells.tolist(), level)
    return _json_block([_json_nested(row, level + 1) for row in cells], level)


def _json(value, level: int) -> str:
    """``value`` in the json.dumps(indent=2) layout, nested ``level`` deep."""
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _json_float(float(value))
    if isinstance(value, str):
        return _json_strings([value])[0]
    if isinstance(value, dict):
        members = [f"{k}: {_json(v, level + 1)}"
                   for k, v in zip(_json_strings(value), value.values())]
        return _json_block(members, level, "{}")
    if isinstance(value, np.ndarray) and value.dtype.kind in "fi":
        return _json_nested(_json_numbers(value), level)
    if isinstance(value, (list, tuple, np.ndarray)):
        return _json_block(_json_items(value, level + 1), level)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(config: dict, table: dict, audit: dict | None = None) -> str:
    """JSON document {config, rows[, audit]}, byte for byte as json.dumps(indent=2).

    The document is one join: the rows list interleaves each cell with the
    piece before it, its key after the separator from the cell or row before.
    """
    cells = [_json_items(col, 3) for col in _columns(table)]
    rows = len(cells[0]) if cells else 0
    # the rows list sits at level 1 of the document: row objects at 4
    # spaces, their keys at 6
    keys = [h + ": " for h in _json_strings(table)]
    width = 2 * len(cells)
    pieces = [None] * (width * rows)
    for j, (key, column) in enumerate(zip(keys, cells)):
        pieces[2 * j::width] = [(",\n      " if j else "\n    },\n    {\n      ") + key] * rows
        pieces[2 * j + 1::width] = column
    head = '{\n  "config": ' + _json(config, 1) + ',\n  "rows": '
    if rows:
        pieces[0] = head + "[\n    {\n      " + keys[0]
        pieces.append("\n    }\n  ]")
    else:
        pieces.append(head + "[]")
    if audit is not None:
        pieces += [',\n  "audit": ', _json(audit, 1)]
    pieces.append("\n}\n")
    return "".join(pieces)


def matrix_json(m: np.ndarray) -> dict:
    """Complex matrix as its real and imaginary parts, 2-D float arrays that
    write_json lays out as nested lists."""
    return {"re": m.real, "im": m.imag}


def one_row(row: dict) -> dict:
    """The table of a single row, e.g. ``one_row(result._asdict())`` of a result record."""
    return {name: [value] for name, value in row.items()}


def operator_rows(ops: OperatorSet) -> dict:
    """Every entry of every matrix, one matrix after another in field order."""
    mats = ops._asdict()
    d = ops.number.shape[0]
    index = np.arange(d)
    return {
        "matrix": [name for name in mats for _ in range(d * d)],
        "row": np.tile(np.repeat(index, d), len(mats)),
        "col": np.tile(index, d * len(mats)),
        "re": np.concatenate([m.real.ravel() for m in mats.values()]),
        "im": np.concatenate([m.imag.ravel() for m in mats.values()]),
    }


def audit_metrics(audit: CommutatorAudit) -> dict:
    """The audit's scalar results, metric name -> value, in output order."""
    return {
        "ladder_trace_re": float(audit.ladder_trace.real),
        "ladder_trace_im": float(audit.ladder_trace.imag),
        **{f"ladder_pattern_{name}_max_deviation": audit.pattern_max_deviation[name]
           for name in sorted(audit.pattern_max_deviation)},
        "payoff_interior_max_deviation": audit.interior_max_deviation,
        "payoff_sign": audit.payoff_sign,
        "zero_sector_re": float(audit.zero_sector_value.real),
        "zero_sector_im": float(audit.zero_sector_value.imag),
    }


def audit_detail(audit: CommutatorAudit) -> dict:
    return {
        "ladder_commutator": matrix_json(audit.ladder_commutator),
        "payoff_commutator": matrix_json(audit.payoff_commutator),
        "pattern_entry_deviation": dict(sorted(audit.pattern_entry_deviation.items())),
    }


def spectrum_rows(rows: Sequence[CorrelationRow]) -> dict:
    """A row per eigenstate, a column per CorrelationRow field but ``vector``.

    Each field declared ``float`` or ``int`` is a float64 or int64 array.
    """
    table = {}
    for name, kind in CorrelationRow.__annotations__.items():
        if name != "vector":
            values = [getattr(r, name) for r in rows]
            table[name] = np.array(values) if kind in (float, int) else values
    return table


def correigen_rows(xi: np.ndarray, values: np.ndarray) -> dict:
    return {
        "xi": xi,
        "re": values.real,
        "im": values.imag,
        # np.abs on complex differs from Python's abs in the last bit on many
        # samples; hypot of the parts matches it exactly
        "abs": np.hypot(values.real, values.imag),
    }
