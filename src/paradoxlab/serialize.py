"""Deterministic JSON/CSV emission.

Floats are rendered as decimals with up to 17 significant digits, which
round-trips every finite double exactly; keys are sorted; CSV uses LF line
endings.  Identical records therefore serialize to identical bytes.

CSV tables are passed as columns and written in blocks of rows.  Each block
of a float64 or integer array column is formatted once per distinct value,
joined and written on its own, so the text held at any time is one block of
cells, whatever the size of the table.  A block's distinct doubles are
rendered by one ``%`` call over a ``"%.17g\n"`` template, which runs the C
routine behind ``format(v, ".17g")`` for every value without a Python call
per value.
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


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise DomainError(f"cannot serialize {type(value).__name__} to JSON")


def format_value(value) -> str:
    """CSV cell rendering: a string as it is, any other scalar as in JSON."""
    return value if isinstance(value, str) else _scalar(value)


def _render(value, indent: int) -> str:
    """JSON text of ``value``, each nested level indented two more spaces."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise DomainError(f"JSON keys must be strings, got {key!r}")
            items.append(f"{json.dumps(key)}: {_render(value[key], indent + 1)}")
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:  # long count lists: one string per block, not per count
            sep, blocks = f",\n{'  ' * indent}  ", range(0, len(value), _BLOCK_ROWS)
            items = [sep.join(map(str, value[lo : lo + _BLOCK_ROWS])) for lo in blocks]
        else:
            items = [_render(item, indent + 1) for item in value]
        brackets = "[]"
    else:
        return _scalar(value)
    pad = "  " * indent
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{brackets[1]}"


def dumps(record: dict) -> str:
    return _render(record, 0) + "\n"


def write_json(path: Path, record: dict):
    path.write_text(dumps(record), encoding="utf-8")


# Rows joined per write: about 0.6 MB of text for the lightcone region's columns.
_BLOCK_ROWS = 16384


def _format_doubles(values: np.ndarray) -> list[str]:
    """``format_float`` over finite float64 values, integral ones with ".0"."""
    texts = ("%.17g\n" * len(values) % tuple(values.tolist())).split("\n")
    texts.pop()
    integral = (values == np.floor(values)) & (np.abs(values) < 1e17)
    for i in np.flatnonzero(integral).tolist():
        texts[i] += ".0"
    return texts


def _checked(column: Sequence) -> Sequence:
    """A float64 or integer array as it is, any other column as its cell texts.

    A float64 column is checked finite block by block before the file is
    opened, so a bad value anywhere raises with nothing written.
    """
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        for lo in range(0, len(column), _BLOCK_ROWS):
            block = column[lo : lo + _BLOCK_ROWS]
            finite = np.isfinite(block)
            if not finite.all():
                format_float(float(block[~finite][0]))  # raises DomainError
        return column
    if isinstance(column, np.ndarray) and column.dtype.kind in "biu":
        return column
    return [format_value(cell) for cell in column]


def _block_cells(column: Sequence, rows: slice) -> list[str]:
    """One block of a checked column's cell texts, each distinct value formatted once."""
    part = column[rows]
    if not isinstance(part, np.ndarray):
        return part
    if part.dtype == np.float64:
        # the bit pattern keeps -0.0 apart from 0.0
        bits, inverse = np.unique(part.view(np.uint64), return_inverse=True)
        texts = _format_doubles(bits.view(np.float64))
    else:
        distinct, inverse = np.unique(part, return_inverse=True)
        texts = [format_value(v) for v in distinct.tolist()]
    return np.array(texts, dtype=object)[inverse].tolist()


def _joined(block: list[list[str]]) -> str:
    """CSV text of a block given as columns of cell texts, one line per row."""
    width, n = 2 * len(block), len(block[0])
    # cell, ",", cell, ",", ..., cell, "\n" for each row, with no per-row strings
    flat = [","] * (width * n)
    for j, cells in enumerate(block):
        flat[2 * j :: width] = cells
    flat[width - 1 :: width] = ["\n"] * n
    return "".join(flat)


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence]):
    """Write one 1-D sequence per header name as CSV rows, in blocks of rows."""
    if len(columns) != len(header):
        raise DomainError(f"CSV has {len(header)} header names but {len(columns)} columns")
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise DomainError(f"CSV columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    columns = [_checked(column) for column in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(",".join(header) + "\n")
        for lo in range(0, n_rows, _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            out.write(_joined([_block_cells(column, rows) for column in columns]))
