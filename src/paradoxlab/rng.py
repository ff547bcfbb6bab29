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
a tile of rows at a time so that its extra memory stays bounded.  Long rows
keep one native ``advance`` + ``random_raw`` per trial, which costs a fixed
few microseconds per trial but draws several times faster than the numpy
rounds once a row is long.  Both paths produce the same bits.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_BLOCK_SHIFT = 192
DEFAULT_SEED = 0xC0FFEE  # every experiment's seed unless the config names one
MAX_SEED = 2**64 - 1  # seeds are unsigned 64-bit integers, the first Philox key word
_MAX_TRIAL = 2**64 - 2  # substream i uses counter word i + 1 < 2**64
_INV_2_53 = 2.0**-53
# Rows of at most this many draws use the counter-grid kernel; longer rows use
# the native per-row loop.  Measured crossover: both paths cost about 30-40 ns
# per draw at 384 draws per row (2-vCPU Xeon, numpy 2.4); at 1024 the loop
# takes 17 ns and the grid 35 ns, at 64 the loop 180 ns and the grid 53 ns.
_GRID_MAX_DRAWS = 384
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


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product ``m * x``, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo = x & _LO32
    x_hi = x >> _S32
    t = x_lo * m_lo
    t >>= _S32
    t += x_hi * m_lo  # x_hi*m_lo + carry out of x_lo*m_lo: fits in 64 bits
    x_lo *= m_hi
    x_lo += t & _LO32
    x_lo >>= _S32
    t >>= _S32
    x_hi *= m_hi
    x_hi += t
    x_hi += x_lo
    return x_hi, x * np.uint64(m)


def _philox(seed: int, c0: np.ndarray, c3: np.ndarray) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 of the counter words ``(c0, 0, 0, c3)`` under key ``(seed, 0)``.

    ``c0`` and ``c3`` are uint64 arrays that broadcast against each other; the
    four output words have the broadcast shape.  Words that are constant along
    an axis stay unexpanded until a round mixes them, which skips about a fifth
    of the grid-wide multiplies.
    """
    c1 = c2 = np.zeros((1, 1), dtype=np.uint64)
    k0, k1 = seed, 0
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0 = hi1 ^ c1
        c0 ^= np.uint64(k0)
        c2 = hi0 ^ c3
        c2 ^= np.uint64(k1)
        c1, c3 = lo1, lo0
        k0 = (k0 + _PHILOX_W[0]) % 2**64
        k1 = (k1 + _PHILOX_W[1]) % 2**64
    return c0, c1, c2, c3


def _fill_grid(seed: int, first: int, out: np.ndarray) -> None:
    """Fill row ``i`` of ``out`` with trial ``first + i``'s draws, tile by tile."""
    n_streams, draws = out.shape
    steps = -(-draws // 4)
    c0 = np.arange(1, steps + 1, dtype=np.uint64)[None, :]
    rows = max(1, _TILE_BLOCKS // steps)
    for lo in range(0, n_streams, rows):
        hi = min(lo + rows, n_streams)
        c3 = np.arange(hi - lo, dtype=np.uint64)[:, None] + np.uint64(first + lo + 1)
        raw = np.empty((hi - lo, steps, 4), dtype=np.uint64)
        for j, word in enumerate(_philox(seed, c0, c3)):
            raw[:, :, j] = word
        raw >>= np.uint64(11)
        np.multiply(raw.reshape(hi - lo, 4 * steps)[:, :draws], _INV_2_53, out=out[lo:hi])


def _fill_rows(seed: int, first: int, out: np.ndarray) -> None:
    """Same as ``_fill_grid``: one native Philox jumps between the trials' blocks."""
    draws = out.shape[1]
    bitgen = np.random.Philox(key=seed)
    steps = -(-draws // 4)  # Philox emits 4 uint64 per counter step
    position = 0
    for i in range(out.shape[0]):
        target = (first + i + 1) << _BLOCK_SHIFT
        bitgen.advance(target - position)
        raw = bitgen.random_raw(draws)
        position = target + steps
        out[i] = (raw >> 11) * _INV_2_53


class SeededStream:
    """Seeded Philox stream; ``substream(i)`` is a pure function of (seed, i)."""

    def __init__(self, seed: int, _block: int = 0):
        self.seed = check_seed(int(seed))
        self._block = int(_block)
        self._gen = np.random.Generator(
            np.random.Philox(key=self.seed, counter=self._block << _BLOCK_SHIFT)
        )

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
        fill = _fill_grid if draws <= _GRID_MAX_DRAWS else _fill_rows
        fill(self.seed, first, out)
        return out
