"""Deterministic JSON/CSV emission.

Floats are rendered as decimals with up to 17 significant digits, which
round-trips every finite double exactly; keys are sorted; CSV uses LF line
endings.  Identical records therefore serialize to identical bytes.

CSV tables are passed as columns.  A float64 array column is formatted once
per distinct bit pattern and the rows are streamed to disk in blocks, so a
large table costs its distinct cell texts, one index per cell and one block
of text, never the whole file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError


def format_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise DomainError(f"cannot serialize non-finite value {value}")
    text = format(value, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def format_value(value) -> str:
    """CSV cell rendering."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _dump(value, pieces: list[str], indent: int):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pieces.append("{\n")
        keys = sorted(value)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise DomainError(f"JSON keys must be strings, got {key!r}")
            pieces.append(f"{pad}  {json.dumps(key)}: ")
            _dump(value[key], pieces, indent + 1)
            pieces.append(",\n" if i + 1 < len(keys) else "\n")
        pieces.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(value):
            pieces.append(pad + "  ")
            _dump(item, pieces, indent + 1)
            pieces.append(",\n" if i + 1 < len(value) else "\n")
        pieces.append(pad + "]")
    elif isinstance(value, bool):
        pieces.append("true" if value else "false")
    elif isinstance(value, int):
        pieces.append(str(value))
    elif isinstance(value, float):
        pieces.append(format_float(value))
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif value is None:
        pieces.append("null")
    else:
        raise DomainError(f"cannot serialize {type(value).__name__} to JSON")


def dumps(record: dict) -> str:
    pieces: list[str] = []
    _dump(record, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def write_json(path: Path, record: dict):
    path.write_text(dumps(record), encoding="utf-8")


# Rows joined per write: about 0.6 MB of text for the lightcone region's columns.
_BLOCK_ROWS = 16384


def _format_doubles(values: np.ndarray) -> list[str]:
    """``format_float`` over finite float64 values, integral ones with ".0"."""
    texts = ["%.17g" % v for v in values.tolist()]
    integral = ((values == np.floor(values)) & (np.abs(values) < 1e17)).tolist()
    return [text + ".0" if whole else text for text, whole in zip(texts, integral)]


def _column_cells(column: Sequence) -> tuple[np.ndarray, np.ndarray | None]:
    """A column's cell texts, as (distinct texts, row -> text index) or (texts, None)."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        finite = np.isfinite(column)
        if not finite.all():
            format_float(float(column[~finite][0]))  # raises DomainError
        # the bit pattern keeps -0.0 apart from 0.0
        bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        return np.array(_format_doubles(bits.view(np.float64)), dtype=object), inverse
    if isinstance(column, np.ndarray) and column.dtype.kind in "biu":
        distinct, inverse = np.unique(column, return_inverse=True)
        return np.array([format_value(v) for v in distinct.tolist()], dtype=object), inverse
    return np.array([format_value(cell) for cell in column], dtype=object), None


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence]):
    """Write one 1-D sequence per header name as CSV rows, in blocks of rows."""
    if len(columns) != len(header):
        raise DomainError(f"CSV has {len(header)} header names but {len(columns)} columns")
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise DomainError(f"CSV columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    cells = [_column_cells(column) for column in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(",".join(header) + "\n")
        for lo in range(0, n_rows, _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            block = [
                texts[rows if inverse is None else inverse[rows]].tolist()
                for texts, inverse in cells
            ]
            out.write("\n".join(map(",".join, zip(*block))) + "\n")
