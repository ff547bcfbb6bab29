"""In-order trial chunks sized by the draw budget."""

import pytest

from paradoxlab import montecarlo
from paradoxlab.errors import DomainError
from paradoxlab.montecarlo import CHUNK_SIZE, DRAW_BUDGET, run_chunks


def test_chunks_are_fixed_size_and_in_order():
    n = 2 * CHUNK_SIZE + 5
    assert run_chunks(n, lambda lo, hi: (lo, hi)) == [
        (0, CHUNK_SIZE),
        (CHUNK_SIZE, 2 * CHUNK_SIZE),
        (2 * CHUNK_SIZE, n),
    ]
    assert run_chunks(0, lambda lo, hi: (lo, hi)) == []


@pytest.mark.parametrize(
    "draws, rows",
    [
        (1, CHUNK_SIZE),
        (2, CHUNK_SIZE),
        (32, CHUNK_SIZE),
        (33, DRAW_BUDGET // 33),
        (64, 8192),
        (65, DRAW_BUDGET // 65),
        (20000, 26),
        (DRAW_BUDGET, 1),
        (DRAW_BUDGET + 1, 1),
        (2 * DRAW_BUDGET, 1),
        (2 * DRAW_BUDGET + 1, 1),
        (20 * DRAW_BUDGET, 1),
    ],
)
def test_rows_per_chunk_follow_the_draw_budget(draws, rows):
    n = 2 * rows + 1
    sizes = [hi - lo for lo, hi in run_chunks(n, lambda lo, hi: (lo, hi), draws)]
    assert sizes == [rows, rows, 1]


def test_rows_read_the_budget_at_call_time(monkeypatch):
    monkeypatch.setattr(montecarlo, "DRAW_BUDGET", 64)
    assert run_chunks(5, lambda lo, hi: (lo, hi), 30) == [(0, 2), (2, 4), (4, 5)]


@pytest.mark.parametrize("draws", [0, -1])
def test_draws_below_one_are_rejected(draws):
    with pytest.raises(DomainError, match=f"got {draws}"):
        run_chunks(10, lambda lo, hi: hi - lo, draws)
