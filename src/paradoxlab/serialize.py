"""Deterministic JSON/CSV emission.

Floats are rendered as decimals with up to 17 significant digits, which
round-trips every finite double exactly; keys are sorted; CSV uses LF line
endings.  Identical records therefore serialize to identical bytes.

CSV tables are passed as columns and written in blocks of ``_BLOCK_ROWS``
rows.  Each block of a float64 or integer array column is formatted once per
distinct value, joined and written on its own, so the text held at any time,
and the float kernel's scratch, are one block's, whatever the size of the table.

A block's distinct doubles get the text of ``format(v, ".17g")`` from exact
integer arithmetic in numpy (``_decimal``), in one call; the few values
that arithmetic cannot settle, and blocks of fewer than ``_EXACT_MIN``
distinct doubles, take one ``%`` call over a ``"%.17g\n"`` template, which
is Python's correctly rounded conversion.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError
from .rng import _mulhilo


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


# Rows per block, which bound a write's cell texts and joined text, the JSON
# int-list joins and the kernel's scratch (about 90 bytes per value).  The
# peak follows the cell texts: two columns of 100,000 distinct doubles trace
# 0.91, 1.36, 1.81 and 3.6 MiB at 4096, 6144, 8192 and 16384 rows.  The cost
# is a kernel call per block where every block has _EXACT_MIN distinct
# doubles: lightcone grid_step=0.0042 (2858 x values per block) takes
# 1.35-1.50 s against 1.02-1.21 s at 16384 rows (2-vCPU Xeon, numpy 2.4).
_BLOCK_ROWS = 6144
# Calls with fewer distinct doubles than this use one `%` call: the kernel
# costs about 0.24 ms per call plus 0.32 us per value, `%` 0.78 us per value.
# Measured on geomspace(0.1, 100, n), ms per call (2-vCPU Xeon, numpy 2.4,
# median of 21): kernel and `%` take 0.46 and 0.40 at 512, 0.52 and 0.60 at
# 768, 0.89 and 1.59 at 2048.  Its traffic is lightcone's axis columns (11 t,
# 601 x values per block at grid_step=0.02); the kernel there adds 3-16 ms.
_EXACT_MIN = 640
_U = np.uint64


def _percent_format(values: np.ndarray) -> list[str]:
    """``format(v, ".17g")`` of each value, from one ``%`` call."""
    texts = ("%.17g\n" * len(values) % tuple(values.tolist())).split("\n")
    texts.pop()
    return texts


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
    f = bits & _U(2**52 - 1)
    f |= _U(2**52)
    x = np.floor(np.log10(np.abs(np.where(normal, values, 1.0)))).astype(np.int16)
    k_lo = 16 - int(x.max())
    hi, lo, q = zip(*map(_pow10, range(k_lo, 17 - int(x.min()))))
    row = 16 - k_lo - x
    # value * 10**k = f * (hi * 2**64 + lo) * 2**(biased - 1075 + q)
    #                = (top * 2**128 + mid * 2**64 + low) * 2**-shift
    carry, low = _mulhilo(np.array(lo, np.uint64)[row], f)
    top, mid = _mulhilo(np.array(hi, np.uint64)[row], f)
    mid += carry
    top += mid < carry
    shift = (1075 - biased - np.array(q, np.int16)[row]).astype(np.uint64)
    # D has 54 to 57 bits, so shift is 123..127 unless the estimate is wrong;
    # numpy shifts by 64 or more give 0, and such values are replaced anyway
    fallback = ~normal | (shift - _U(123) > 4)
    up, down = _U(128) - shift, shift - _U(64)
    d, frac = top, mid  # D and the fraction's top 64 bits, shifted in place
    d <<= up
    d |= mid >> down
    frac <<= up
    low >>= down
    frac |= low
    fallback |= (frac - _U(2**63 - 2) < 4) | (d < 10**16)
    d += frac > _U(2**63)
    fallback |= d >= 10**17
    d[fallback] = 10**16  # any 17 digits: these values are replaced
    # D's digits as three groups of six, the first group's leading digit 0
    groups = np.empty((3, n), np.uint32)
    groups[0] = d // _U(10**12)
    d -= groups[0] * _U(10**12)
    groups[1] = d // _U(10**6)
    groups[2] = d - groups[1] * _U(10**6)
    digits = np.empty((3, 6, n), np.uint8)
    for j in range(5, -1, -1):
        rest = groups // np.uint32(10)
        digits[:, j] = groups - rest * np.uint32(10)
        groups = rest
    digits += ord("0")
    return digits.reshape(18, n)[1:], x, fallback


def _exact_text(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The ``%.17g`` lines of the values, from ``_decimal``'s digits, and the
    mask of values whose line is a placeholder for ``_percent_format``'s.

    The text is laid out as a (slot, value) byte matrix: each slot is kept by
    comparing its index with per-value counts, and the others hold 0xFF,
    which UTF-8 text never contains and ``translate`` deletes.
    """
    digits, x, fallback = _decimal(values)
    n_sig = ((digits > ord("0")) * (_SLOT + 1)).max(axis=0)  # up to the last nonzero digit
    fixed = (x >= -4) & (x <= 16)
    n_int = np.where(fixed, np.maximum(x + 1, 0), 1)  # digits before the point
    lead = np.where(fixed & (x < 0), 1 - x, 0)  # bytes of "0.000" before the digits
    keep = np.maximum(n_sig, n_int)
    # slots: sign, "0.000", 17 x (digit, point), "e", exponent sign, 3 digits, newline
    rows = np.full((46, len(values)), 0xFF, np.uint8)
    rows[0, values < 0] = ord("-")
    rows[1:6] = np.where(_SLOT[:5] < lead, _LEAD, 0xFF)
    rows[6:40:2] = np.where(_SLOT < keep, digits, 0xFF)
    point = np.flatnonzero((n_int > 0) & (n_sig > n_int))
    rows[5 + 2 * n_int[point], point] = ord(".")
    sci = np.flatnonzero(~fixed)
    rows[40, sci] = ord("e")
    rows[41, sci] = np.where(x[sci] < 0, ord("-"), ord("+"))
    e = np.abs(x[sci])
    rows[42:45, sci] = np.where((_EXP < 100) | (e >= 100), e // _EXP % 10 + ord("0"), 0xFF)
    rows[45] = ord("\n")
    rows = rows[(rows != 0xFF).any(axis=1)]  # slots that some value uses
    return rows.T.tobytes().translate(None, b"\xff"), fallback


def _exact_format(values: np.ndarray) -> list[str]:
    """``_percent_format(values)``, from ``_exact_text`` and ``%`` for the rest."""
    text, fallback = _exact_text(values)
    texts = text.decode("ascii").split("\n")
    texts.pop()
    for i, line in zip(np.flatnonzero(fallback).tolist(), _percent_format(values[fallback])):
        texts[i] = line
    return texts


def _format_doubles(values: np.ndarray) -> list[str]:
    """``format_float`` over finite float64 values, integral ones with ".0"."""
    texts = (_percent_format if len(values) < _EXACT_MIN else _exact_format)(values)
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
