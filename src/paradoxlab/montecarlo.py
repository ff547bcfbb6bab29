"""Trial execution in chunks sized by a draw budget, which bounds each worker's memory."""

from __future__ import annotations

from typing import Callable, TypeVar

from .errors import DomainError

# Most uniforms one chunk draws: a worker's float64 block is at most 4 MiB,
# whatever N or trials is.  A row never splits across chunks, so a row longer
# than this still gets one chunk.
DRAW_BUDGET = 2**19

T = TypeVar("T")


def run_chunks(n_trials: int, worker: Callable[[int, int], T], draws: int = 1) -> list[T]:
    """Run ``worker(lo, hi)`` over chunks of ``max(1, DRAW_BUDGET // draws)`` trials, in order."""
    if draws < 1:
        raise DomainError(f"draws per trial must be >= 1, got {draws}")
    rows = max(1, DRAW_BUDGET // draws)
    return [worker(lo, min(lo + rows, n_trials)) for lo in range(0, n_trials, rows)]
