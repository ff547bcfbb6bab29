"""Columnar CSV writer: every cell must read exactly as format_value renders it."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paradoxlab import serialize
from paradoxlab.errors import DomainError
from paradoxlab.serialize import format_float, format_value, write_csv


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
