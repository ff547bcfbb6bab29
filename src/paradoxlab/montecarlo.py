"""Trial execution in fixed-size chunks, which bounds each worker's memory."""

from __future__ import annotations

from typing import Callable, TypeVar

from .errors import DomainError

CHUNK_SIZE = 16384

T = TypeVar("T")


def run_chunks(
    n_trials: int, worker: Callable[[int, int], T], threads: int = 1
) -> list[T]:
    """Run ``worker(lo, hi)`` over fixed-size index chunks, in index order.

    ``threads`` exists only because the benchmark's layer tracer
    (``bench/spans.py``) passes it through; it accepts only 1, and a later
    change to the benchmark can drop it.
    """
    if threads != 1:
        raise DomainError(f"threads must be 1, got {threads}")
    return [
        worker(lo, min(lo + CHUNK_SIZE, n_trials)) for lo in range(0, n_trials, CHUNK_SIZE)
    ]
