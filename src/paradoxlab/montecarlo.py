"""Trial execution in chunks sized by a draw budget, which bounds each worker's memory."""

from __future__ import annotations

from typing import Callable, TypeVar

from .errors import DomainError

CHUNK_SIZE = 16384
# Most uniforms one chunk draws: 4 MiB of float64 in a worker's block, which
# keeps it below the size at which numpy asks the kernel for huge pages, so its
# resident size does not depend on where the heap places it.  A row never
# splits across chunks, so a row longer than this still gets one chunk.
DRAW_BUDGET = 2**19

T = TypeVar("T")


def run_chunks(n_trials: int, worker: Callable[[int, int], T], draws: int = 1) -> list[T]:
    """Run ``worker(lo, hi)`` over index chunks in index order.

    Each trial draws ``draws`` uniforms, so a chunk holds
    ``max(1, min(CHUNK_SIZE, DRAW_BUDGET // draws))`` trials.
    """
    if draws < 1:
        raise DomainError(f"draws per trial must be >= 1, got {draws}")
    rows = max(1, min(CHUNK_SIZE, DRAW_BUDGET // draws))
    return [worker(lo, min(lo + rows, n_trials)) for lo in range(0, n_trials, rows)]
