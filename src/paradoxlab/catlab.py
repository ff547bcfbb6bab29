"""Premeasurement chains: atom -> device (-> cat) under purely unitary coupling.

The coupling maps |up> x |ready> to |up> x |fired> and leaves the |down>
branch alone, so a superposed atom drags every attached pointer into the
superposition instead of collapsing it.  For two devices the second pointer
plays the cat: fired = dead (the up branch triggers the poison), unfired =
live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qcore
from .errors import DimensionError, DomainError
from .montecarlo import run_chunks
from .rng import DEFAULT_SEED, SeededStream, check_seed

POINTER_READY = (1.0, 0.0)
MAX_DEVICES = 3


@dataclass(frozen=True)
class ChainConfig:
    alpha: complex
    beta: complex
    n_devices: int = 1
    trials: int = 0
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        weight = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(weight - 1.0) <= 1e-12:
            raise DomainError(f"|alpha|^2 + |beta|^2 = {weight}, must be 1")
        if not 1 <= self.n_devices <= MAX_DEVICES:
            raise DimensionError(
                f"n_devices must be between 1 and {MAX_DEVICES}, got {self.n_devices}"
            )
        if self.trials < 0:
            raise DomainError(f"trials must be nonnegative, got {self.trials}")
        check_seed(self.seed)


class BornStats(NamedTuple):
    f_up: float
    f_down: float
    stderr: float


@dataclass(frozen=True)
class ChainResult:
    final_state: qcore.StateVector
    global_purity: float
    reduced_atom: qcore.DensityMatrix
    atom_entropy_bits: float
    branch_weights: tuple[float, float]
    born_frequencies: BornStats | None = None


def premeasurement_unitary(n_systems: int) -> qcore.Operator:
    """Unitary coupling an atom to ``n_systems - 1`` two-state pointers.

    Acting on the computational basis (atom qubit first): every pointer
    flips ready -> fired when the atom is |up>, and nothing moves when the
    atom is |down>.  The atom itself never changes, and the action on the
    remaining basis states completes the map to a permutation.
    """
    if not 2 <= n_systems <= MAX_DEVICES + 1:
        raise DimensionError(f"n_systems must be between 2 and {MAX_DEVICES + 1}, got {n_systems}")
    n_pointers = n_systems - 1
    dim = 2**n_systems
    pointer_mask = (1 << n_pointers) - 1
    matrix = np.zeros((dim, dim), dtype=complex)
    for source in range(dim):
        atom_down = source >> n_pointers
        if atom_down:
            target = source
        else:
            target = source ^ pointer_mask
        matrix[target, source] = 1.0
    return qcore.Operator(matrix, unitary=True)


def _initial_chain_state(cfg: ChainConfig) -> qcore.StateVector:
    state = qcore.make_state((2,), (cfg.alpha, cfg.beta))
    for _ in range(cfg.n_devices):
        state = qcore.tensor(state, qcore.make_state((2,), POINTER_READY))
    return state


def run_chain(cfg: ChainConfig) -> ChainResult:
    """Apply the premeasurement unitary and report entanglement diagnostics."""
    initial = _initial_chain_state(cfg)
    coupling = premeasurement_unitary(cfg.n_devices + 1)
    final = qcore.apply(coupling, initial)
    dm = qcore.density(final)
    reduced = qcore.partial_trace(dm, final.dims, keep=(0,))
    born = born_statistics(cfg) if cfg.trials > 0 else None
    return ChainResult(
        final_state=final,
        global_purity=qcore.purity(dm),
        reduced_atom=reduced,
        atom_entropy_bits=qcore.entropy_bits(reduced),
        branch_weights=(abs(cfg.alpha) ** 2, abs(cfg.beta) ** 2),
        born_frequencies=born,
    )


def born_statistics(cfg: ChainConfig) -> BornStats:
    """Monte Carlo spin-z measurements on fresh copies of the atom state.

    Each trial draws one uniform from substream (seed, trial) and compares
    it to the Born weight of the down outcome, exactly mirroring the
    cumulative sampling of the projective measurement.
    """
    if cfg.trials < 1:
        raise DomainError("born_statistics needs trials >= 1")
    state = qcore.make_state((2,), (cfg.alpha, cfg.beta))
    observable = qcore.spin_observable(qcore.SpinDirection(0.0, 0.0, 1.0))
    pairs = qcore.born_probabilities(state, qcore.eigen_projectors(observable))
    p_down = pairs[0][1]
    stream = SeededStream(cfg.seed)

    def worker(lo: int, hi: int) -> int:
        u = stream.uniform_block(hi - lo, 1, first=lo)
        return int(np.sum(u[:, 0] >= p_down))

    ups = sum(run_chunks(cfg.trials, worker, 1))
    f_up = ups / cfg.trials
    return BornStats(
        f_up=f_up,
        f_down=1.0 - f_up,
        stderr=math.sqrt(f_up * (1.0 - f_up) / cfg.trials),
    )


def no_collapse_witness(result: ChainResult) -> bool:
    """True when unitary evolution produced entanglement, not an outcome.

    Global purity must still be 1 (no collapse happened) while the reduced
    atom carries positive entropy (the device is entangled with it).
    """
    return abs(result.global_purity - 1.0) <= 1e-12 and result.atom_entropy_bits > 1e-9
