"""Fixed-size, in-order trial chunks."""

import pytest

from paradoxlab.errors import DomainError
from paradoxlab.montecarlo import CHUNK_SIZE, run_chunks


def test_chunks_are_fixed_size_and_in_order():
    n = 2 * CHUNK_SIZE + 5
    assert run_chunks(n, lambda lo, hi: (lo, hi)) == [
        (0, CHUNK_SIZE),
        (CHUNK_SIZE, 2 * CHUNK_SIZE),
        (2 * CHUNK_SIZE, n),
    ]
    assert run_chunks(0, lambda lo, hi: (lo, hi)) == []


@pytest.mark.parametrize("threads", [0, 2])
def test_only_one_thread_is_accepted(threads):
    with pytest.raises(DomainError, match=f"got {threads}"):
        run_chunks(10, lambda lo, hi: hi - lo, threads)
