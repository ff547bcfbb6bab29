"""Deterministic JSON/CSV emission.

Floats are rendered as decimals with up to 17 significant digits, which
round-trips every finite double exactly; keys are sorted; CSV uses LF line
endings.  Identical records therefore serialize to identical bytes.

CSV tables are passed as columns and written in blocks of ``_BLOCK_ROWS``
rows.  A block is one uint8 matrix: each column's cells as rows of bytes
padded with 0xFF, with a "," column between columns and a "\n" column last,
written by one ``translate`` that drops the padding.  Doubles get the text of
``format_float`` laid out straight into their matrix from exact integer
arithmetic in numpy (``_decimal``), whatever the number of values; the few
values it cannot settle take one ``%`` call, Python's correctly rounded
conversion.  Other arrays take ``format_value`` per value, a block at a time.
A pair ``(values, index)`` has its values formatted once per table and
gathered by index in each block.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .rng import _mulhilo


def format_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise DomainError(f"cannot serialize non-finite value {value}")
    text = format(value, ".17g")
    if "." not in text and "e" not in text:
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


# Rows per block, which bound a write's cell matrices and text, the JSON
# int-list joins and the kernel's cells and scratch (82 to 87 bytes per
# value): two columns of 100,000 distinct doubles trace 0.43, 0.63 and 0.83
# MiB at 4096, 6144 and 8192 rows.  No block formats an indexed axis again, so
# the size barely moves the cap: lightcone grid_step=0.0042 takes 0.40-0.80 s
# (2-vCPU Xeon, numpy 2.4), against 1.51-1.63 s when every block re-formatted x.
_BLOCK_ROWS = 6144
_U = np.uint64


def _percent_format(values: np.ndarray) -> list[str]:
    """``format(v, ".17g")`` of each value, from one ``%`` call."""
    return ("%.17g\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]


@functools.cache
def _pow10(k: int) -> tuple[int, int, int]:
    """``(hi, lo, q)`` with ``10**k`` truncated to ``(hi * 2**64 + lo) * 2**q``, ``hi >= 2**63``."""
    p = 10 ** abs(k)
    if k >= 0:
        m, q = (p << 128) >> p.bit_length(), p.bit_length() - 128
    else:
        m, q = (1 << 127 + p.bit_length()) // p, -127 - p.bit_length()
    return m >> 64, m & (2**64 - 1), q


_SLOT = np.arange(17, dtype=np.uint8)[:, None]
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]
_EXP = np.array([[100], [10], [1]], dtype=np.int16)
_POINT_ZERO = np.frombuffer(b".0", np.uint8)[:, None]
_SEPARATORS = np.frombuffer(b",\n", np.uint8)


def _decimal(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's 17 significant digits as ASCII (a (digit, value) matrix),
    its decimal exponent, and whether it must take ``_percent_format`` instead.

    A normal double ``f * 2**e`` times ``10**k``, with ``k = 16 - X`` and ``X`` the
    estimate ``floor(log10|v|)``, is a 17-digit integer ``D`` and a fraction,
    from ``f`` times a 128-bit ``10**k`` in uint64 words; ``D`` then rounds to
    nearest.  The fraction is known to within 2 units of its 64th bit, so a
    fraction that near 1/2 (every exact tie, which ``%`` rounds half to even) is
    left to ``%``, as are subnormals, zeros, and a ``D`` outside
    ``[10**16, 10**17)``, which means the estimate was off by one.
    """
    n = len(values)
    bits = values.view(np.uint64)
    biased = (bits >> _U(52)).astype(np.int16) & 0x7FF
    normal = biased > 0
    x = np.floor(np.log10(np.abs(np.where(normal, values, 1.0)))).astype(np.int16)
    k_lo = 16 - int(x.max())
    hi, lo, q = zip(*map(_pow10, range(k_lo, 17 - int(x.min()))))
    row = 16 - k_lo - x
    shift = 1075 - biased - np.array(q, np.int16)[row]
    # D has 54 to 57 bits, so shift is 123..127 unless the estimate is wrong;
    # other shifts make garbage (numpy shifts by 64 or more give 0), and such
    # values are replaced anyway
    fallback = ~normal | (shift < 123) | (shift > 127)
    up, down = (128 - shift).astype(np.uint8), (shift - 64).astype(np.uint8)
    del biased, normal, shift
    # value * 10**k = f * (hi * 2**64 + lo) * 2**(biased - 1075 + q)
    #                = (top * 2**128 + mid * 2**64 + low) * 2**-shift,
    # each product's low words written over its gathered table words
    f = bits & _U(2**52 - 1)
    f |= _U(2**52)
    tmp = [np.empty(n, np.uint64) for _ in range(3)]
    low = np.array(lo, np.uint64)[row]
    carry, low = _mulhilo(f, low, lo=low, tmp=tmp)
    low >>= down  # all the fraction needs of low: its top 1 to 5 bits
    tail = low.astype(np.uint8)
    del low
    mid = np.array(hi, np.uint64)[row]
    top, mid = _mulhilo(f, mid, lo=mid, tmp=tmp)
    del f, tmp, row
    mid += carry
    top += mid < carry
    del carry
    d, frac = top, mid  # D and the fraction's top 64 bits, shifted in place
    d <<= up
    d |= mid >> down
    frac <<= up
    frac |= tail
    del up, down, tail
    fallback |= (frac - _U(2**63 - 2) < 4) | (d < 10**16)
    d += frac > _U(2**63)
    del frac, mid
    fallback |= d >= 10**17
    d[fallback] = 10**16  # any 17 digits: these values are replaced
    # D's digits as three groups of six, the first group's leading digit 0
    groups = np.empty((3, n), np.uint32)
    groups[0] = d // _U(10**12)
    d -= groups[0] * _U(10**12)
    groups[1] = d // _U(10**6)
    groups[2] = d - groups[1] * _U(10**6)
    del d, top
    digits = np.empty((3, 6, n), np.uint8)
    for j in range(5, -1, -1):
        rest = groups // np.uint32(10)
        digits[:, j] = groups - rest * np.uint32(10)
        groups = rest
    digits += ord("0")
    return digits.reshape(18, n)[1:], x, fallback


def _text_cells(texts: list[str]) -> np.ndarray:
    """Each text's UTF-8 bytes as a row of a uint8 matrix, padded with 0xFF,
    which UTF-8 never contains (a text may hold NUL)."""
    encoded = [text.encode() for text in texts]
    width = max(map(len, encoded), default=0)
    padded = b"".join(cell.ljust(width, b"\xff") for cell in encoded)
    return np.frombuffer(padded, np.uint8).reshape(len(encoded), width)


def _float_cells(values: np.ndarray) -> np.ndarray:
    """``format_float`` of each finite float64 value as a row of bytes padded with 0xFF.

    The text is a (slot, value) matrix of ``_decimal``'s digits, each slot kept
    by comparing its index with per-value counts.  Values left to ``%`` get its
    text in their first slots, and integral values ".0" in the last two.  Calls
    of every size take this path; an empty one returns an empty matrix, since
    ``_decimal`` needs a value.
    """
    if not len(values):
        return np.empty((0, 0), np.uint8)
    digits, x, fallback = _decimal(values)
    n_sig = ((digits > ord("0")) * (_SLOT + 1)).max(axis=0)  # up to the last nonzero digit
    fixed = (x >= -4) & (x <= 16)
    n_int = np.where(fixed, np.maximum(x + 1, 0), 1)  # digits before the point
    lead = np.where(fixed & (x < 0), 1 - x, 0)  # bytes of "0.000" before the digits
    integral = (values == np.floor(values)) & (np.abs(values) < 1e17)
    # slots: sign, "0.000", 17 x (digit, point), "e", exponent sign, 3 digits, ".0"
    rows = np.full((47, len(values)), 0xFF, np.uint8)
    rows[6:40:2] = digits
    del digits
    np.copyto(rows[6:40:2], 0xFF, where=_SLOT >= np.maximum(n_sig, n_int))
    rows[0, values < 0] = ord("-")
    rows[1:6] = np.where(_SLOT[:5] < lead, _LEAD, 0xFF)
    point = np.flatnonzero((n_int > 0) & (n_sig > n_int))
    rows[5 + 2 * n_int[point], point] = ord(".")
    del point
    sci = np.flatnonzero(~fixed)
    rows[40, sci] = ord("e")
    rows[41, sci] = np.where(x[sci] < 0, ord("-"), ord("+"))
    e = np.abs(x[sci])
    rows[42:45, sci] = np.where((_EXP < 100) | (e >= 100), e // _EXP % 10 + ord("0"), 0xFF)
    where = np.flatnonzero(fallback)
    patch = _text_cells(_percent_format(values[where]))
    rows[:, where] = 0xFF
    rows[: patch.shape[1], where] = patch.T
    rows[45:, integral] = _POINT_ZERO
    return rows[rows.min(axis=1) < 0xFF].T  # slots that some value uses


def _checked(name: str, values: np.ndarray) -> np.ndarray:
    """``values``, checked to be of a dtype the writer formats (bool, integer,
    float of at most 64 bits, str or object), and finite if floats (two
    reductions: a NaN makes ``min`` NaN); the first bad value raises as in
    ``format_float``."""
    kind = values.dtype.kind
    if kind not in "biufUO" or kind == "f" and values.dtype.itemsize > 8:
        raise DomainError(f"cannot write CSV column {name!r} of dtype {values.dtype}")
    if kind == "f" and len(values) and not -math.inf < values.min() <= values.max() < math.inf:
        format_float(float(values[~np.isfinite(values)][0]))  # raises DomainError
    return values


def _table(values: np.ndarray) -> np.ndarray:
    """The cells of an array's values, one row each."""
    if values.dtype == np.float64:
        return _float_cells(values)
    return _text_cells([format_value(value) for value in values.tolist()])


def _column(name: str, column) -> tuple[int, Callable[[slice], np.ndarray]]:
    """A column's row count and the function from a slice of its rows to their cells.

    Arrays are checked here, before the file is opened; a pair's values and
    the cells of a list or an object array are also formatted here, once per
    table.
    """
    if isinstance(column, tuple) and list(map(type, column)) == [np.ndarray, np.ndarray]:
        values, index = column
        table = _table(_checked(name, values))
        return len(index), lambda rows: table.take(index[rows], axis=0)
    if isinstance(column, np.ndarray) and column.dtype != object:
        _checked(name, column)
        return len(column), lambda rows: _table(column[rows])
    table = _text_cells([format_value(cell) for cell in column])
    return len(table), table.__getitem__


def _block_matrix(columns: list, rows: slice) -> np.ndarray:
    """A block's byte matrix: each row's cells, "," between them, "\n" last."""
    cells = [block(rows) for _, block in columns]
    separators = np.broadcast_to(_SEPARATORS, (len(cells[0]), 2))
    parts = [part for cell in cells for part in (cell, separators[:, :1])]
    parts[-1] = separators[:, 1:]
    return np.hstack(parts)


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence]):
    """Write one 1-D sequence per header name as CSV rows, in blocks of rows.

    A column may also be a pair ``(values, index)`` of numpy arrays, which
    stands for ``values[index]``: each of its values is formatted once per
    table, and each block gathers its rows' cells by index.
    """
    if len(columns) != len(header):
        raise DomainError(f"CSV has {len(header)} header names but {len(columns)} columns")
    columns = [_column(name, column) for name, column in zip(header, columns)]
    lengths = {n for n, _ in columns}
    if len(lengths) > 1:
        raise DomainError(f"CSV columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    with open(path, "wb") as out:
        out.write((",".join(header) + "\n").encode())
        for lo in range(0, n_rows, _BLOCK_ROWS):
            # one form of the block at a time: the cells die with _block_matrix's
            # frame, the matrix once its bytes are made, and they once translated
            rows = slice(lo, lo + _BLOCK_ROWS)
            out.write(_block_matrix(columns, rows).tobytes().translate(None, b"\xff"))
