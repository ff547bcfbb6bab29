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
place and written straight into its columns of the block.  Long rows
go through one native Philox that the master stream also keeps: one
``advance`` per trial and ``Generator.random`` into the row, a fixed few
microseconds per trial, but several times faster per draw than the numpy
rounds once a row is long.  Both paths produce the same bits.
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
# the native per-row loop.  Measured crossover, ns per draw (2-vCPU Xeon, numpy
# 2.4, best of 7 over 2**19 draws): both cost 28-38 at 256 draws per row; loop
# and grid take 19-33 and 35-38 at 320, 10 and 28 at 1024, 115 and 42 at 64.
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

    ``c0`` and ``c3`` are uint64 arrays that broadcast against each other; the
    four output words have the broadcast shape.  Words that are constant along
    an axis stay unexpanded until a round mixes them, which skips about a fifth
    of the grid-wide multiplies.  Every grid-wide word and temporary lives in
    ``scratch``, eight uint64 arrays of the broadcast shape, and the rounds work
    on them in place; the four output words are four of them.
    """
    shape = np.broadcast_shapes(c0.shape, c3.shape)
    free = list(scratch)
    ours = {id(a) for a in scratch}

    def mul(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the low words overwrite a grid-wide x, which no later step reads
        return _mulhilo(m, x, free.pop(), x, free[-3:]) if id(x) in ours else _mulhilo(m, x)

    def xor(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
        # a ^ b ^ k, into a grid-wide operand, else a free array if it spans the grid
        if id(b) in ours:
            a, b = b, a
        if id(a) in ours:
            out = a
        else:
            out = free.pop() if np.broadcast_shapes(a.shape, b.shape) == shape else None
        out = np.bitwise_xor(a, b, out=out)
        out ^= np.uint64(k)
        if id(b) in ours:
            free.append(b)
        return out

    c1 = c2 = np.zeros((1, 1), dtype=np.uint64)
    k0, k1 = seed, 0
    for _ in range(_PHILOX_ROUNDS):
        hi0, c0 = mul(_PHILOX_M[0], c0)
        hi0 = xor(hi0, c3, k1)  # before the second product, so eight arrays suffice
        hi1, c3 = mul(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = xor(hi1, c1, k0), c3, hi0, c0
        k0 = (k0 + _PHILOX_W[0]) % 2**64
        k1 = (k1 + _PHILOX_W[1]) % 2**64
    return c0, c1, c2, c3


def _fill_grid(seed: int, first: int, out: np.ndarray, tile: np.ndarray | None = None) -> None:
    """Fill row ``i`` of ``out`` with trial ``first + i``'s draws, tile by tile.

    ``tile`` is the kernel's scratch, an ``(8, _TILE_BLOCKS)`` uint64 array (a
    new one if omitted) holding ``_philox``'s eight word arrays.  Each block's
    word ``j`` is converted in place and written straight into columns ``j::4``.
    """
    if tile is None:
        tile = np.empty((8, _TILE_BLOCKS), dtype=np.uint64)
    n_streams, draws = out.shape
    steps = -(-draws // 4)
    c0 = np.arange(1, steps + 1, dtype=np.uint64)[None, :]
    rows = max(1, _TILE_BLOCKS // steps)
    for lo in range(0, n_streams, rows):
        hi = min(lo + rows, n_streams)
        size = (hi - lo) * steps
        c3 = np.arange(hi - lo, dtype=np.uint64)[:, None] + np.uint64(first + lo + 1)
        words = [word[:size].reshape(hi - lo, steps) for word in tile]
        for j, word in enumerate(_philox(seed, c0, c3, words)[:draws]):
            word = word[:, : -(-(draws - j) // 4)]
            word >>= np.uint64(11)
            np.multiply(word, _INV_2_53, out=out[lo:hi, j::4])


def _fill_rows(seed: int, first: int, out: np.ndarray, native=None) -> int:
    """Same as ``_fill_grid``: advance one native Philox per row, ``Generator.random`` into it.

    ``native`` is a ``(generator, position)`` pair whose Philox is keyed by
    ``seed`` and has its counter at ``position`` (a new one at 0 if omitted).
    Returns the counter position after the last row.
    """
    gen, position = native or (np.random.Generator(np.random.Philox(key=seed)), 0)
    steps = -(-out.shape[1] // 4)  # Philox emits 4 uint64 per counter step
    for i in range(out.shape[0]):
        target = (first + i + 1) << _BLOCK_SHIFT
        gen.bit_generator.advance((target - position) % 2**256)  # the counter wraps
        gen.random(out=out[i])
        position = target + steps
    return position


class SeededStream:
    """Seeded Philox stream; ``substream(i)`` is a pure function of (seed, i)."""

    def __init__(self, seed: int, _block: int = 0):
        self.seed = check_seed(int(seed))
        self._block = int(_block)
        self._rows_at = 0  # the counter position of _rows' Philox

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
        # _tile; each call advances it from where the last one left it
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
            self._rows_at = _fill_rows(self.seed, first, out, (self._rows, self._rows_at))
        return out
