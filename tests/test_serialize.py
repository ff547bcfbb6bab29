"""Columnar CSV writer and JSON renderer: bytes must equal the cell-by-cell forms."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paradoxlab import serialize
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

    def test_signed_zeros_stay_apart(self, tmp_path):
        column = np.array([0.0, -0.0, 0.0, -0.0])
        assert written(tmp_path, ["v"], [column]) == "v\n0.0\n-0.0\n0.0\n-0.0\n"

    def test_integral_values_get_a_decimal_point_below_1e17(self, tmp_path):
        column = np.array([3.0, -2.0**53, 99999999999999984.0, 1e17, 2e17])
        text = written(tmp_path, ["v"], [column])
        assert text == "v\n3.0\n-9007199254740992.0\n99999999999999984.0\n1e+17\n2e+17\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_like_format_float(self, tmp_path, bad):
        with pytest.raises(DomainError) as expected:
            format_float(bad)
        column = np.array([1.0, 2.0, bad, 4.0])
        with pytest.raises(DomainError) as got:
            write_csv(tmp_path / "bad.csv", ["v"], [column])
        assert str(got.value) == str(expected.value)


class TestTables:
    def test_mixed_column_kinds(self, tmp_path):
        header = ["x", "n", "label", "flag", "count", "on", "y"]
        columns = [
            np.array([0.5, -0.0, 1e17]),
            [1, -2, 3],
            ["ab", "apb", "abp"],
            [True, False, True],
            np.array([7, 7, -1], dtype=np.int8),
            np.array([False, True, True]),
            [0.25, 2.0, -1e-300],
        ]
        text = written(tmp_path, header, columns)
        assert text == expected_csv(header, columns)
        assert text.splitlines()[1] == "0.5,1,ab,true,7,false,0.25"

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

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="length"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [1]])
        with pytest.raises(DomainError, match="header"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2]])


class TestBlocks:
    """Each block of rows is formatted, de-duplicated and written on its own."""

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
            # distinct doubles, so no column shrinks by de-duplication
            t = np.geomspace(0.1, 100.0, n_rows)
            y = 1.0 / t**2
            tracemalloc.start()
            try:
                write_csv(tmp_path / "big.csv", ["t", "y"], [t, y])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(100_000), peak(1_000_000)
        # both sizes hold one block: under 4 MB of cell texts and joined text;
        # a cost per cell would add tens of MB at the larger size
        assert large <= small + 256 * 1024, (small, large)


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

    @pytest.mark.parametrize("bad", [[1, np.int64(2)], [1.0, math.nan], [object()]])
    def test_unsupported_items_still_raise(self, bad):
        with pytest.raises(DomainError):
            dumps({"items": bad})
