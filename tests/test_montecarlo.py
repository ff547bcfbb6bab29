"""In-order trial chunks sized by the draw budget."""

import pytest

from paradoxlab import montecarlo, rng
from paradoxlab.errors import DomainError
from paradoxlab.montecarlo import DRAW_BUDGET, run_chunks


def test_chunks_are_fixed_size_and_in_order():
    rows = 2**14  # one draw takes a counter block of four: 2**16 // 4
    n = 2 * rows + 5
    assert run_chunks(n, lambda lo, hi: (lo, hi)) == [(0, rows), (rows, 2 * rows), (2 * rows, n)]
    assert run_chunks(0, lambda lo, hi: (lo, hi)) == []


@pytest.mark.parametrize(
    "draws, rows",
    [
        (1, 2**14),  # 2**16 // (4 * 1)
        (2, 2**14),  # 2**16 // (4 * 1): two draws still take one counter block
        (32, 2**11),  # 2**16 // (4 * 8)
        (33, 1820),  # 2**16 // (4 * 9) = 65536 // 36
        (64, 1024),  # 2**16 // (4 * 16)
        (65, 963),  # 2**16 // (4 * 17) = 65536 // 68
        (20000, 3),  # 2**16 // (4 * 5000) = 65536 // 20000
        (DRAW_BUDGET, 1),  # 2**16 // 2**16
        (DRAW_BUDGET + 1, 1),  # 2**16 // (2**16 + 4) = 0, raised to 1
        (2**19, 1),
        (2**19 + 1, 1),
        (2**20, 1),
        (2**20 + 1, 1),
        (20 * 2**19, 1),
    ],
)
def test_rows_per_chunk_follow_the_draw_budget(draws, rows):
    assert DRAW_BUDGET == 2**16
    n = 2 * rows + 1
    sizes = [hi - lo for lo, hi in run_chunks(n, lambda lo, hi: (lo, hi), draws)]
    assert sizes == [rows, rows, 1]


def test_a_grid_chunk_is_one_full_tile():
    # every chunk of counter-grid rows but the last fills one kernel tile exactly
    for draws in range(1, rng._GRID_MAX_DRAWS + 1):
        (lo, hi), *_ = run_chunks(10**6, lambda lo, hi: (lo, hi), draws)
        assert hi - lo == rng._TILE_BLOCKS // -(-draws // 4), draws


def test_rows_read_the_budget_at_call_time(monkeypatch):
    monkeypatch.setattr(montecarlo, "DRAW_BUDGET", 64)
    assert run_chunks(5, lambda lo, hi: (lo, hi), 30) == [(0, 2), (2, 4), (4, 5)]


@pytest.mark.parametrize("draws", [0, -1])
def test_draws_below_one_are_rejected(draws):
    with pytest.raises(DomainError, match=f"got {draws}"):
        run_chunks(10, lambda lo, hi: hi - lo, draws)
