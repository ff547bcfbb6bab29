"""Columnar CSV writer and JSON renderer: bytes must equal the cell-by-cell forms."""

import decimal
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paradoxlab import cli, serialize
from paradoxlab.cli import parse_config
from paradoxlab.errors import DomainError
from paradoxlab.serialize import dumps, format_float, format_value, write_csv


# each example overwrites the same file in tmp_path
TMP_PATH = HealthCheck.function_scoped_fixture


def expected_csv(header, columns) -> str:
    """The row-at-a-time rendering: one format_value call per cell."""
    cells = [col.tolist() if isinstance(col, np.ndarray) else list(col) for col in columns]
    lines = [",".join(header)]
    lines += [",".join(format_value(cell) for cell in row) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def written(tmp_path, header, columns) -> str:
    path = tmp_path / "table.csv"
    write_csv(path, header, columns)
    return path.read_bytes().decode("utf-8")


def _around(x: float, reach: int = 3) -> list[float]:
    """x and its `reach` nearest doubles on each side."""
    out, lo, hi = [x], x, x
    for _ in range(reach):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


EDGES = sorted(
    {
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        2.2250738585072009e-308,  # largest subnormal
        2.2250738585072014e-308,  # smallest normal
        1.7976931348623157e308,
        -1.7976931348623157e308,
        *_around(2.0**53),
        *_around(1e16),
        *_around(1e17),
        *_around(-1e17),
        *_around(1e-4),  # where %.17g switches to an exponent for small values
    },
    key=lambda v: (v, math.copysign(1.0, v)),
)

finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGES),
    st.integers(-(2**60), 2**60).map(float),
    # raw bit patterns: every exponent range and the subnormals
    st.integers(0, 2**64 - 1)
    .map(lambda bits: float(np.uint64(bits).view(np.float64)))
    .filter(math.isfinite),
)


class TestFloatColumns:
    @settings(max_examples=300, deadline=None, suppress_health_check=[TMP_PATH])
    @given(st.lists(finite_doubles, max_size=60))
    def test_every_cell_matches_format_float(self, tmp_path, values):
        column = np.array(values, dtype=np.float64)
        text = written(tmp_path, ["v"], [column])
        assert text.split("\n")[1:-1] == [format_float(v) for v in values]

    def test_edge_values(self, tmp_path):
        column = np.array(EDGES * 2, dtype=np.float64)
        assert written(tmp_path, ["v"], [column]) == expected_csv(["v"], [column])
        for value in EDGES:  # one-value columns
            assert written(tmp_path, ["v"], [np.array([value])]) == f"v\n{format_float(value)}\n"

    def test_signed_zeros_stay_apart(self, tmp_path):
        column = np.array([0.0, -0.0, 0.0, -0.0])
        assert written(tmp_path, ["v"], [column]) == "v\n0.0\n-0.0\n0.0\n-0.0\n"

    def test_integral_values_get_a_decimal_point_below_1e17(self, tmp_path):
        cells = [
            (3.0, "3.0"),
            (0.5, "0.5"),
            (-(2.0**53), "-9007199254740992.0"),
            (9999999999999998.0, "9999999999999998.0"),
            (1e16, "10000000000000000.0"),
            (-1e16, "-10000000000000000.0"),
            (-2.5, "-2.5"),
            (99999999999999984.0, "99999999999999984.0"),
            (1e17, "1e+17"),
            (2e17, "2e+17"),
        ]
        column = np.array([value for value, _ in cells])
        text = written(tmp_path, ["v"], [column])
        assert text == "v\n" + "".join(cell + "\n" for _, cell in cells)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_like_format_float(self, tmp_path, bad):
        with pytest.raises(DomainError) as expected:
            format_float(bad)
        column = np.array([1.0, 2.0, bad, 4.0])
        with pytest.raises(DomainError) as got:
            write_csv(tmp_path / "bad.csv", ["v"], [column])
        assert str(got.value) == str(expected.value)


def _tie(value: float) -> bool:
    """Whether the exact decimal of ``value`` has 18 significant digits, the last a 5."""
    digits = decimal.Decimal(value).normalize().as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


TIES = [1 + 2.0**-17, 1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 1e14 + 0.875, 2.0**47 + 0.125]
TIES += [-v for v in TIES]


@pytest.fixture
def to_percent(monkeypatch):
    """The values that reach the ``%`` call, recorded as they go."""
    seen, percent = [], serialize._percent_format
    monkeypatch.setattr(serialize, "_percent_format", lambda v: seen.extend(v) or percent(v))
    return seen


def float_cells(values: np.ndarray) -> list[str]:
    """The text of each row of ``_float_cells``, its 0xFF padding dropped."""
    rows = serialize._float_cells(values)
    return [row.tobytes().translate(None, b"\xff").decode("ascii") for row in rows]


class TestExactKernel:
    """``_float_cells`` builds the digits itself, whatever the number of values."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(finite_doubles, min_size=1, max_size=60))
    def test_any_size_matches_format_float(self, values):
        for n in (len(values), serialize._BLOCK_ROWS):
            column = np.resize(np.array(values, dtype=np.float64), n)
            assert float_cells(column) == [format_float(v) for v in column.tolist()]

    def test_fixed_cases(self, to_percent):
        powers = [10.0**k for k in range(-300, 301)]
        cases = powers + [math.nextafter(p, 0.0) for p in powers]
        cases += [math.nextafter(p, math.inf) for p in powers]
        for edge in (1e-5, 1e-4, 1e16, 1e17):  # the fixed-notation range is -4 <= X <= 16
            cases += _around(edge) + _around(-edge)
        cases += [2.0**53 - 1, 2.0**53, 2.0**53 + 2, 0.0, -0.0] + TIES
        assert all(map(_tie, TIES))
        assert float_cells(np.array(cases)) == [format_float(v) for v in cases]
        assert set(TIES) <= set(to_percent)  # a true tie is left to the correctly rounded %

    @pytest.mark.parametrize("square", [False, True], ids=["T", "1/T**2"])
    def test_the_kernel_formats_almost_every_value_itself(self, to_percent, square):
        column = np.geomspace(0.1, 100.0, 16384)
        if square:
            column = 1.0 / column**2
        assert float_cells(column) == [format_float(v) for v in column.tolist()]
        assert len(to_percent) <= 4, to_percent

    @pytest.mark.parametrize("square", [False, True], ids=["T", "1/T**2"])
    def test_a_full_block_traces_at_most_100_bytes_a_value(self, square):
        # the 47-slot cell matrix and its used slots, the digits and the
        # kernel's uint64 words, each dropped once dead: measured 82 and 87
        # bytes a value; 138 when every array was kept to the end
        column = np.geomspace(0.1, 100.0, serialize._BLOCK_ROWS)
        if square:
            column = 1.0 / column**2
        tracemalloc.start()
        try:
            serialize._float_cells(column)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * len(column), peak / len(column)


class TestTables:
    def test_mixed_column_kinds(self, tmp_path):
        header = ["x", "n", "label", "flag", "count", "on", "y", "word"]
        columns = [
            np.array([0.5, -0.0, 1e17]),
            [1, -2, 3],
            ["ab", "apb", "abp"],
            [True, False, True],
            np.array([7, 7, -1], dtype=np.int8),
            np.array([False, True, True]),
            [0.25, 2.0, -1e-300],
            np.array(["x", "yz", "x"]),
        ]
        text = written(tmp_path, header, columns)
        assert text == expected_csv(header, columns)
        assert text.splitlines()[1:] == [
            "0.5,1,ab,true,7,false,0.25,x",
            "-0.0,-2,apb,false,7,true,2.0,yz",
            "1e+17,3,abp,true,-1,true,-1e-300,x",
        ]

    @pytest.mark.parametrize(
        "value, text",
        [
            (True, "true"),
            (-2, "-2"),
            (0.1, "0.10000000000000001"),
            (1e17, "1e+17"),
            (-0.0, "-0.0"),
        ],
    )
    def test_list_cell_and_json_scalar_share_one_text(self, tmp_path, value, text):
        assert written(tmp_path, ["v"], [[value]]) == f"v\n{text}\n"
        assert dumps({"v": value}) == f'{{\n  "v": {text}\n}}\n'

    @settings(max_examples=25, deadline=None, suppress_health_check=[TMP_PATH])
    @given(
        st.lists(
            st.tuples(finite_doubles, st.integers(-5, 5), st.text(st.sampled_from("ab+-"))),
            max_size=40,
        )
    )
    def test_mixed_rows_match_format_value(self, tmp_path, rows):
        floats = np.array([row[0] for row in rows], dtype=np.float64)
        ints = np.array([row[1] for row in rows], dtype=np.int64)
        strs = [row[2] for row in rows]
        header = ["f", "i", "s"]
        assert written(tmp_path, header, [floats, ints, strs]) == expected_csv(
            header, [floats, ints, strs]
        )

    @settings(max_examples=60, deadline=None, suppress_health_check=[TMP_PATH])
    @given(
        st.lists(
            st.tuples(
                st.text(),
                st.text(st.sampled_from("\x00\u00e9\u4e2d\U0001f600,\n\r\"a")),
            ),
            max_size=30,
        )
    )
    def test_str_cells_of_any_text(self, tmp_path, rows):
        # NUL and non-ASCII cells keep their UTF-8 bytes; 0xFF, the padding,
        # is no byte of UTF-8
        columns = [[row[0] for row in rows], [row[1] for row in rows]]
        assert written(tmp_path, ["a", "b"], columns) == expected_csv(["a", "b"], columns)

    def test_table_spanning_several_blocks(self, tmp_path):
        n = 2 * serialize._BLOCK_ROWS + 5
        rng = np.random.default_rng(11)
        t = np.repeat(np.arange(n // 7 + 1) * 0.1, 7)[:n]
        noise = rng.standard_normal(n)
        flags = (noise > 0).astype(np.int8)
        header = ["t", "noise", "flag"]
        text = written(tmp_path, header, [t, noise, flags])
        assert text == expected_csv(header, [t, noise, flags])
        assert text.count("\n") == n + 1

    def test_empty_table_is_header_only(self, tmp_path):
        header = ["t", "x", "allowed"]
        empty = [np.array([]), np.array([]), np.array([], dtype=np.int8)]
        assert written(tmp_path, header, empty) == "t,x,allowed\n"
        assert written(tmp_path, ["a", "b"], [[], []]) == "a,b\n"
        pair = (np.array([]), np.array([], np.int32))
        assert written(tmp_path, ["v"], [pair]) == "v\n"

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="length"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [1]])
        with pytest.raises(DomainError, match="header"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2]])
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([1 + 2j]),
            np.array([b"x"]),
            np.array(["2020-01-01"], "datetime64[D]"),
        ],
        ids=lambda bad: str(bad.dtype),
    )
    def test_unwritable_dtype_rejected_before_the_file_exists(self, tmp_path, bad):
        path = tmp_path / "t.csv"
        with pytest.raises(DomainError, match=re.escape(f"CSV column 'b' of dtype {bad.dtype}")):
            write_csv(path, ["a", "b"], [np.arange(1.0), bad])
        with pytest.raises(DomainError, match="CSV column 'v'"):
            write_csv(path, ["v"], [(bad, np.zeros(1, np.int32))])
        assert not path.exists()

    def test_object_array_cells_formatted_before_the_file_exists(self, tmp_path):
        scalars = np.array([1, "a", 0.5, None], dtype=object)
        assert written(tmp_path, ["v"], [scalars]) == "v\n1\na\n0.5\nnull\n"
        assert written(tmp_path, ["v"], [(scalars, np.array([3, 0]))]) == "v\nnull\n1\n"
        path = tmp_path / "late.csv"
        late = np.array([1, 2j], dtype=object)
        for column in (late, (late, np.zeros(1, np.int32))):
            with pytest.raises(DomainError, match="complex"):
                write_csv(path, ["v"], [column])
        assert not path.exists()


class TestBlocks:
    """Each block of rows is formatted and written on its own."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[TMP_PATH])
    @given(
        st.integers(1, 7),
        st.lists(st.tuples(st.sampled_from(EDGES[:8]), finite_doubles, st.booleans()), max_size=40),
    )
    def test_any_block_size_matches_the_whole_table(self, tmp_path, block_rows, rows):
        # few distinct values, so the same value recurs on both sides of block edges
        repeated = np.array([row[0] for row in rows], dtype=np.float64)
        distinct = np.array([row[1] for row in rows], dtype=np.float64)
        flags = np.array([row[2] for row in rows])
        labels = [f"r{i % 3}" for i in range(len(rows))]
        header = ["a", "b", "flag", "label"]
        columns = [repeated, distinct, flags, labels]
        with mock.patch.object(serialize, "_BLOCK_ROWS", block_rows):
            text = written(tmp_path, header, columns)
        assert text == expected_csv(header, columns)

    def test_value_repeated_across_every_block_edge(self, tmp_path):
        n = 3 * serialize._BLOCK_ROWS + 1
        zeros = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)
        steps = np.arange(n) // 5 * 0.1
        header = ["z", "s"]
        assert written(tmp_path, header, [zeros, steps]) == expected_csv(header, [zeros, steps])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_bad_value_in_the_last_block_raises_before_the_file_exists(self, tmp_path, bad):
        n = 3 * serialize._BLOCK_ROWS + 5
        good = np.arange(n, dtype=np.float64)
        late = good.copy()
        late[-1] = bad
        path = tmp_path / "late.csv"
        with pytest.raises(DomainError, match="non-finite"):
            write_csv(path, ["good", "late"], [good, late])
        assert not path.exists()

    def test_peak_memory_does_not_grow_with_the_row_count(self, tmp_path):
        def peak(n_rows: int) -> int:
            # distinct doubles, as in the bounds table
            t = np.geomspace(0.1, 100.0, n_rows)
            y = 1.0 / t**2
            tracemalloc.start()
            try:
                write_csv(tmp_path / "big.csv", ["t", "y"], [t, y])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(100_000), peak(1_000_000)
        # both sizes hold one block's cell matrices, text and kernel scratch:
        # 0.63 MiB traced at either size with 6144-row blocks of byte matrices,
        # 1.21 MiB while the kernel kept its dead arrays and a block held its
        # cells, matrix and text at once; a cost per cell would add tens of MB
        # at the larger size
        assert small <= 2 * 2**20, small
        assert large <= small + 256 * 1024, (small, large)


def indexed_axis() -> np.ndarray:
    """An axis for the kernel: signed zeros side by side, integral values, true
    ties, subnormals and edges, then 192 normal values of every magnitude."""
    values = [0.0, -0.0, -0.0, 0.0, 3.0, -2.0**53, 1e16, 99999999999999984.0, 1e17]
    values += TIES + EDGES + [5e-324 * k for k in (1, 2, 3, 1000)]
    n = 192
    fill = np.random.default_rng(5).standard_normal(n) * np.geomspace(1e-8, 1e8, n)
    return np.concatenate([values, fill])


class TestIndexedColumns:
    """A pair ``(values, index)`` writes the bytes of the column ``values[index]``."""

    @pytest.mark.parametrize("block_rows", [1, 2, 7, 255, 4096, serialize._BLOCK_ROWS])
    def test_same_bytes_as_the_expanded_column(self, tmp_path, block_rows):
        axis = indexed_axis()
        rng = np.random.default_rng(9)
        index = np.concatenate([np.arange(len(axis)), rng.integers(0, len(axis), 3000)])
        index = index.astype(np.int32)
        flags = rng.integers(0, 2, len(index)).astype(np.int8)
        other = rng.standard_normal(len(index))
        header = ["v", "w", "flag"]
        expanded = [axis[index], other, np.arange(2)[flags]]
        with mock.patch.object(serialize, "_BLOCK_ROWS", block_rows):
            text = written(tmp_path, header, [(axis, index), other, (np.arange(2), flags)])
        assert text == expected_csv(header, expanded)

    @settings(max_examples=60, deadline=None, suppress_health_check=[TMP_PATH])
    @given(
        st.integers(1, 7),
        st.lists(finite_doubles, min_size=1, max_size=12),
        st.lists(st.integers(0, 2**31 - 1), max_size=40),
    )
    def test_any_axis_and_block_size(self, tmp_path, block_rows, axis, picks):
        axis = np.array(axis, dtype=np.float64)
        index = np.array(picks, dtype=np.int32) % len(axis)
        with mock.patch.object(serialize, "_BLOCK_ROWS", block_rows):
            text = written(tmp_path, ["v", "i"], [(axis, index), index])
        assert text == expected_csv(["v", "i"], [axis[index], index])

    def test_each_axis_value_is_formatted_once_per_table(self, tmp_path, monkeypatch):
        # the lightcone table repeats its whole x axis in every block, so
        # formatting per block would make 775 kernel calls per table at the
        # grid cap
        cfg = parse_config(["experiment=lightcone", "grid_step=0.02"])
        _, [(name, header, columns)] = cli._run_lightcone(cfg)
        (t_axis, t_index), (x_axis, _), _ = columns
        assert len(t_index) > 20 * serialize._BLOCK_ROWS
        seen, cells = [], serialize._float_cells
        monkeypatch.setattr(serialize, "_float_cells", lambda v: seen.append(list(v)) or cells(v))
        write_csv(tmp_path / name, header, columns)
        assert seen == [list(t_axis), list(x_axis)]


def recursive_dumps(record) -> str:
    """The one-call-per-item renderer that ``dumps`` replaced, kept as an oracle."""

    def dump(value, pieces, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            if not value:
                pieces.append("{}")
                return
            pieces.append("{\n")
            keys = sorted(value)
            for i, key in enumerate(keys):
                pieces.append(f"{pad}  {json.dumps(key)}: ")
                dump(value[key], pieces, indent + 1)
                pieces.append(",\n" if i + 1 < len(keys) else "\n")
            pieces.append(pad + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                pieces.append("[]")
                return
            pieces.append("[\n")
            for i, item in enumerate(value):
                pieces.append(pad + "  ")
                dump(item, pieces, indent + 1)
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
        else:
            assert value is None
            pieces.append("null")

    pieces: list[str] = []
    dump(record, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


json_scalars = st.one_of(
    st.booleans(),
    st.integers(-(2**70), 2**70),
    finite_doubles,
    st.text(max_size=5),
    st.none(),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=30,
)


class TestJson:
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.text(max_size=4), json_values, max_size=5))
    def test_matches_the_recursive_renderer(self, record):
        assert dumps(record) == recursive_dumps(record)

    @pytest.mark.parametrize(
        "items",
        [
            [],
            [3],
            list(range(-5, 20000)),
            [True, False, 1, 0],
            [1.0, 2, -0.0, 5e-324],
            ["a", "", "\u00e9\n"],
            [None, None],
            [[], [1, [2.5, None]], {}, {"k": [True]}],
            (1, "two", 3.0),
        ],
        ids=["empty", "one", "long-ints", "bools-ints", "floats-ints", "str", "none", "nested", "tuple"],
    )
    def test_lists_render_like_the_recursive_form(self, items):
        record = {"items": items, "nest": {"deeper": [items, items]}}
        assert dumps(record) == recursive_dumps(record)

    def test_int_list_peak_memory_bounded_by_its_text(self):
        # counts are joined a block at a time: one string per count, held
        # until the whole list was joined, peaked near 5.8x the text
        record = {"result": {"jump_times": tuple(range(2**17))}}
        tracemalloc.start()
        try:
            text = dumps(record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text), (peak, len(text))
        assert text == json.dumps(record, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("bad", [[1, np.int64(2)], [1.0, math.nan], [object()]])
    def test_unsupported_items_still_raise(self, bad):
        with pytest.raises(DomainError):
            dumps({"items": bad})
