"""Trial execution in chunks sized by a draw budget, which bounds each worker's memory."""

from __future__ import annotations

from typing import Callable, TypeVar

from .errors import DomainError
from .rng import _TILE_BLOCKS

# Most uniforms one chunk draws, counting a row's draws up to whole Philox
# counter blocks of four: one counter-grid tile, so a worker's float64 block is
# at most 512 KiB and the grid kernel never computes a partial tile but the
# run's last.  A row never splits across chunks, so a row longer than this
# still gets one chunk.
DRAW_BUDGET = 4 * _TILE_BLOCKS

T = TypeVar("T")


def run_chunks(n_trials: int, worker: Callable[[int, int], T], draws: int = 1) -> list[T]:
    """Run ``worker(lo, hi)`` over chunks of ``max(1, DRAW_BUDGET // (4 * ceil(draws / 4)))``
    trials, in order."""
    if draws < 1:
        raise DomainError(f"draws per trial must be >= 1, got {draws}")
    rows = max(1, DRAW_BUDGET // (4 * -(-draws // 4)))
    return [worker(lo, min(lo + rows, n_trials)) for lo in range(0, n_trials, rows)]
