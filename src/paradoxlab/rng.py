"""Counter-based random streams with order-independent per-trial substreams.

Every Monte Carlo trial draws from a substream determined only by
(master seed, trial index), so results do not depend on execution order or
on how the trials are split into chunks.  Streams are backed by numpy's
Philox4x64-10 counter-based generator with key words ``(seed, 0)``, where the
seed is an unsigned 64-bit integer (``check_seed``).  Substream ``i`` owns the
counter block starting at ``(i + 1) << 192``, giving each trial 2**192
counter steps of private room: its ``k``-th group of four draws is the Philox
output for the counter words ``(k + 1, 0, 0, i + 1)``, lowest word first.  A
trial index is therefore at most ``2**64 - 2``; larger ones would wrap onto
another trial's block, or onto the master stream, and are rejected.

``SeededStream.uniform_block`` evaluates many substreams at once.  Short rows
go through a numpy Philox evaluated for the whole (trial, step) counter grid,
a tile of rows at a time, in place on eight word arrays that the master stream
keeps (1 MiB, allocated once per stream); each output word is converted in
place and written straight into its columns of the block.  Long rows go
through one native Philox that the master stream also keeps: its counter set
to each trial's block and ``Generator.random`` into the row, a fixed few
microseconds per trial, but faster per draw than the numpy rounds once a row
is long.  Both paths produce the same bits.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DomainError

_BLOCK_SHIFT = 192
DEFAULT_SEED = 0xC0FFEE  # every experiment's seed unless the config names one
MAX_SEED = 2**64 - 1  # seeds are unsigned 64-bit integers, the first Philox key word
_MAX_TRIAL = 2**64 - 2  # substream i uses counter word i + 1 < 2**64
_INV_2_53 = 2.0**-53
# Rows of at most this many draws use the counter-grid kernel; longer rows use
# the native per-row loop.  Measured ns per draw (2-vCPU Xeon, numpy 2.4, best
# of 7 over 2**19 draws), grid and loop: 27 and 47 at 64 draws per row, 25 and
# 18 at 256, 26 and 15 at 320, 23 and 10 at 1024.  The loop is faster from
# about 128-192 draws, but a lower cutoff would make runs with rows of 129-256
# draws import numpy.random, which costs 17 ms and about 6 MB.
_GRID_MAX_DRAWS = 256
_TILE_BLOCKS = 16384  # counter blocks per grid tile: bounds the kernel's scratch

# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def check_seed(seed: int) -> int:
    """Return ``seed``, or raise DomainError unless it is in 0..MAX_SEED."""
    if not 0 <= seed <= MAX_SEED:
        raise DomainError(f"seed must be an unsigned 64-bit integer <= {MAX_SEED}, got {seed}")
    return seed


def _check_trial(name: str, index: int) -> None:
    if index > _MAX_TRIAL:
        raise DomainError(f"{name} must be at most 2**64 - 2 = {_MAX_TRIAL}, got {index}")


def _mulhilo(m, x: np.ndarray, hi=None, lo=None, tmp=(None,) * 3) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product ``m * x``, from 32-bit halves.

    ``m`` is a 64-bit int or a uint64 array of the same shape as ``x``.  Given
    ``hi``, ``lo`` and three ``tmp`` arrays of ``x``'s shape, the words and the
    scratch go there instead of into new arrays; ``lo`` may be ``x`` itself.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, t, u = tmp
    x_lo = np.bitwise_and(x, _LO32, out=x_lo)
    x_hi = np.right_shift(x, _S32, out=hi)
    t = np.multiply(x_lo, m_lo, out=t)
    t >>= _S32
    t += np.multiply(x_hi, m_lo, out=u)  # x_hi*m_lo + carry out of x_lo*m_lo: fits in 64 bits
    x_lo *= m_hi
    x_lo += np.bitwise_and(t, _LO32, out=u)
    x_lo >>= _S32
    t >>= _S32
    x_hi *= m_hi
    x_hi += t
    x_hi += x_lo
    return x_hi, np.multiply(x, np.uint64(m), out=lo)


def _philox(seed: int, c0: np.ndarray, c3: np.ndarray, scratch: list) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 of the counter words ``(c0, 0, 0, c3)`` under key ``(seed, 0)``.

    ``c0`` is a ``(1, steps)`` row and ``c3`` a ``(rows, 1)`` column of uint64.  The
    rounds run in place on ``scratch``, eight uint64 arrays of shape ``(rows, steps)``,
    and the four output words are four of them.  Round 1 multiplies only the row, round
    2 one grid-wide word (its other product is of the constant ``seed``), rounds 3-10 two each.
    """
    w0, w1, w2, w3, hi, *tmp = scratch
    m0, m1 = _PHILOX_M
    k0 = [(seed + r * _PHILOX_W[0]) % 2**64 for r in range(_PHILOX_ROUNDS)]  # round r's key
    k1 = [r * _PHILOX_W[1] % 2**64 for r in range(_PHILOX_ROUNDS)]
    # round 1: (c0, 0, 0, c3) -> (seed, 0, r2 ^ c3, r3), where (r2, r3) are the words of m0 c0
    r2, r3 = _mulhilo(m0, c0)
    np.bitwise_xor(r2, c3, out=w2)
    # round 2: -> (hi(m1 w2) ^ k0[1], lo(m1 w2), hi(m0 seed) ^ r3 ^ k1[1], lo(m0 seed))
    seed_hi, seed_lo = divmod(m0 * seed, 2**64)
    _mulhilo(m1, w2, w0, w1, tmp)
    w0 ^= np.uint64(k0[1])
    np.bitwise_xor(r3, np.uint64(seed_hi ^ k1[1]), out=w2)
    w3.fill(seed_lo)
    for r in range(2, _PHILOX_ROUNDS):
        _mulhilo(m0, w0, hi, w0, tmp)
        hi ^= w3  # before the second product, which overwrites w3, so eight arrays suffice
        hi ^= np.uint64(k1[r])
        _mulhilo(m1, w2, w3, w2, tmp)
        w3 ^= w1
        w3 ^= np.uint64(k0[r])
        w0, w1, w2, w3, hi = w3, w2, hi, w0, w1
    return w0, w1, w2, w3


def _fill_grid(seed: int, first: int, out: np.ndarray, tile: np.ndarray) -> None:
    """Fill row ``i`` of ``out`` with trial ``first + i``'s draws, tile by tile.

    ``tile`` is the kernel's scratch, an ``(8, _TILE_BLOCKS)`` uint64 array
    holding ``_philox``'s eight word arrays.  Each block's word ``j`` is
    converted in place and written straight into columns ``j::4``.
    """
    n_streams, draws = out.shape
    steps = -(-draws // 4)
    c0 = np.arange(1, steps + 1, dtype=np.uint64)[None, :]
    rows = max(1, _TILE_BLOCKS // steps)
    for lo in range(0, n_streams, rows):
        hi = min(lo + rows, n_streams)
        c3 = np.arange(hi - lo, dtype=np.uint64)[:, None] + np.uint64(first + lo + 1)
        words = [word[: (hi - lo) * steps].reshape(hi - lo, steps) for word in tile]
        for j, word in enumerate(_philox(seed, c0, c3, words)[:draws]):
            word = word[:, : -(-(draws - j) // 4)]
            word >>= np.uint64(11)
            np.multiply(word, _INV_2_53, out=out[lo:hi, j::4])


def _fill_rows(first: int, out: np.ndarray, gen: np.random.Generator) -> None:
    """Same as ``_fill_grid`` for the seed that keys ``gen``'s Philox: set its counter
    to each trial's block in turn and ``Generator.random`` into the trial's row.
    """
    state = gen.bit_generator.state
    state["buffer_pos"] = 4  # an empty buffer: a row's first draw steps its counter word 0 to 1
    for i in range(out.shape[0]):
        state["state"]["counter"][:] = (0, 0, 0, first + i + 1)
        gen.bit_generator.state = state
        gen.random(out=out[i])


class SeededStream:
    """Seeded Philox stream; ``substream(i)`` is a pure function of (seed, i).

    It keeps kernel scratch and generator state across ``uniform_block`` calls,
    so each thread needs its own stream; streams of the same seed give the
    same bytes.
    """

    def __init__(self, seed: int, _block: int = 0):
        self.seed = check_seed(int(seed))
        self._block = int(_block)

    @cached_property
    def _gen(self) -> np.random.Generator:
        # built on first use, so grid-only master streams never import numpy.random
        return np.random.Generator(
            np.random.Philox(key=self.seed, counter=self._block << _BLOCK_SHIFT)
        )

    @cached_property
    def _tile(self) -> np.ndarray:
        # _fill_grid's eight word arrays, kept across uniform_block calls so that
        # each chunk reuses them; uniform_block is therefore not safe across threads
        return np.empty((8, _TILE_BLOCKS), dtype=np.uint64)

    @cached_property
    def _rows(self) -> np.random.Generator:
        # the long-row path's native Philox, kept across uniform_block calls like
        # _tile; each row sets its counter, so no call depends on the last one
        return np.random.Generator(np.random.Philox(key=self.seed))

    def substream(self, index: int) -> "SeededStream":
        """Independent stream for trial ``index``.  Single-level only."""
        if index < 0:
            raise DomainError(f"substream index must be nonnegative, got {index}")
        _check_trial("substream index", index)
        if self._block != 0:
            raise DomainError("substreams cannot be derived from a substream")
        return SeededStream(self.seed, index + 1)

    def uniform(self) -> float:
        """One double uniform on [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` double uniforms on [0, 1)."""
        return self._gen.random(int(n))

    def uniform_block(self, n_streams: int, draws: int, first: int = 0) -> np.ndarray:
        """Matrix whose row ``i`` equals ``substream(first + i).uniforms(draws)``.

        Fast path for Monte Carlo loops: rows of up to ``_GRID_MAX_DRAWS``
        draws come from the counter-grid kernel, longer ones from one native
        Philox that jumps between the per-trial counter blocks.  Only a master
        stream can produce blocks.
        """
        if self._block != 0:
            raise DomainError("uniform_block requires a master stream")
        if n_streams < 0 or draws <= 0 or first < 0:
            raise DomainError("uniform_block needs n_streams >= 0, draws > 0, first >= 0")
        last = first + max(n_streams, 1) - 1
        _check_trial("uniform_block's last trial index first + n_streams - 1", last)
        out = np.empty((n_streams, draws))
        if draws <= _GRID_MAX_DRAWS:
            _fill_grid(self.seed, first, out, self._tile)
        else:
            _fill_rows(first, out, self._rows)
        return out
