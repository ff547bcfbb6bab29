"""Seeded stream reproducibility and substream independence."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paradoxlab import rng
from paradoxlab.errors import DomainError
from paradoxlab.rng import SeededStream

MAX_TRIAL = 2**64 - 2
CUTOFF = rng._GRID_MAX_DRAWS


def native_rows(seed, n_streams, draws, first=0):
    """Oracle: trial t's draws straight from numpy's Philox at counter (t + 1) << 192."""
    out = np.empty((n_streams, draws))
    for i in range(n_streams):
        bitgen = np.random.Philox(key=seed)
        bitgen.advance((first + i + 1) << 192)
        out[i] = (bitgen.random_raw(draws) >> 11) * 2.0**-53
    return out


def tile_rows(draws):
    return rng._TILE_BLOCKS // -(-draws // 4)


def test_same_seed_same_values():
    a = SeededStream(42).uniforms(100)
    b = SeededStream(42).uniforms(100)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = SeededStream(1).uniforms(100)
    b = SeededStream(2).uniforms(100)
    assert not np.array_equal(a, b)


def test_values_in_unit_interval():
    u = SeededStream(7).uniforms(10000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_scalar_matches_vector_draws():
    stream = SeededStream(9)
    singles = [SeededStream(9).uniform() for _ in range(1)]
    assert stream.uniforms(1)[0] == singles[0]
    stream = SeededStream(9)
    head = [stream.uniform() for _ in range(5)]
    np.testing.assert_array_equal(head, SeededStream(9).uniforms(5))


def test_substream_independent_of_master_draws():
    master_a = SeededStream(99)
    master_a.uniforms(1000)  # burn values on the master
    master_b = SeededStream(99)
    np.testing.assert_array_equal(
        master_a.substream(3).uniforms(50), master_b.substream(3).uniforms(50)
    )


def test_substreams_distinct():
    master = SeededStream(5)
    a = master.substream(0).uniforms(50)
    b = master.substream(1).uniforms(50)
    assert not np.array_equal(a, b)


def test_uniform_block_matches_substreams():
    master = SeededStream(123)
    for draws in (1, 2, 4, 7, 50):
        block = master.uniform_block(6, draws, first=3)
        for i in range(6):
            expected = master.substream(3 + i).uniforms(draws)
            np.testing.assert_array_equal(block[i], expected)


def test_uniform_block_partition_invariant():
    master = SeededStream(77)
    whole = master.uniform_block(40, 3)
    parts = np.vstack(
        [master.uniform_block(25, 3, first=0), master.uniform_block(15, 3, first=25)]
    )
    np.testing.assert_array_equal(whole, parts)
    # A grid tile boundary of the whole block (row tile_rows) falls inside the
    # second part, whose own tiles start at row 25.
    draws = CUTOFF
    n = 2 * tile_rows(draws) + 7
    whole = master.uniform_block(n, draws)
    parts = np.vstack(
        [master.uniform_block(25, draws, first=0), master.uniform_block(n - 25, draws, first=25)]
    )
    np.testing.assert_array_equal(whole, parts)


def test_substream_nesting_rejected():
    with pytest.raises(DomainError):
        SeededStream(1).substream(0).substream(1)


def test_invalid_seed_rejected():
    with pytest.raises(DomainError):
        SeededStream(-1)
    with pytest.raises(DomainError):
        SeededStream(2**64)


def test_negative_substream_rejected():
    with pytest.raises(DomainError):
        SeededStream(1).substream(-1)


SEEDS = st.sampled_from([0, 1, 2**64 - 1]) | st.integers(0, 2**64 - 1)
DRAWS = st.sampled_from([*range(1, 10), CUTOFF - 1, CUTOFF, CUTOFF + 1])
N_STREAMS = st.sampled_from([0, 1, 3])


@settings(max_examples=80, deadline=None)
@given(SEEDS, DRAWS, N_STREAMS, st.sampled_from(["zero", "mid", "top"]))
def test_both_paths_match_native_philox(seed, draws, n_streams, where):
    first = {"zero": 0, "mid": 2**40, "top": MAX_TRIAL - max(n_streams, 1) + 1}[where]
    expected = native_rows(seed, n_streams, draws, first)
    for fill in (rng._fill_grid, rng._fill_rows):
        out = np.empty((n_streams, draws))
        fill(seed, first, out)
        np.testing.assert_array_equal(out, expected)
    block = SeededStream(seed).uniform_block(n_streams, draws, first)
    np.testing.assert_array_equal(block, expected)


@pytest.mark.parametrize("draws", [1, 7, CUTOFF - 1, CUTOFF])
def test_grid_matches_rows_across_tiles(draws):
    n = tile_rows(draws) + 5  # not a multiple of the tile's row count
    grid, rows = np.empty((n, draws)), np.empty((n, draws))
    rng._fill_grid(2**64 - 1, 2**40, grid)
    rng._fill_rows(2**64 - 1, 2**40, rows)
    np.testing.assert_array_equal(grid, rows)


def test_largest_trial_index_allowed():
    master = SeededStream(3)
    expected = native_rows(3, 1, 5, MAX_TRIAL)
    np.testing.assert_array_equal(master.uniform_block(1, 5, first=MAX_TRIAL), expected)
    np.testing.assert_array_equal(master.substream(MAX_TRIAL).uniforms(5), expected[0])


def test_trial_index_beyond_counter_word_rejected():
    master = SeededStream(3)
    with pytest.raises(DomainError, match=f"{MAX_TRIAL}.*{2**70}"):
        master.uniform_block(1, 2, first=2**70)
    with pytest.raises(DomainError, match=f"first \\+ n_streams - 1.*{MAX_TRIAL}.*{2**64 - 1}"):
        master.uniform_block(2, 2, first=2**64 - 2)  # second row would wrap onto the master
    with pytest.raises(DomainError, match=f"substream index.*{MAX_TRIAL}.*{2**64 - 1}"):
        master.substream(2**64 - 1)


def test_trial_index_checked_before_allocation():
    # Allocating this block would fail outright; the range check must come first.
    with pytest.raises(DomainError, match="first \\+ n_streams - 1"):
        SeededStream(3).uniform_block(2**63, 2**20, first=2**63)


@pytest.mark.parametrize("n_streams, draws", [(16384, 50), (65536, 10)])
def test_uniform_block_scratch_memory_bounded(n_streams, draws):
    tracemalloc.start()
    try:
        out = SeededStream(5).uniform_block(n_streams, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 4 * 2**20
