"""Exact finite-dimensional quantum mechanics.

States, operators, tensor products, analytic single-qubit evolution,
Born-rule projective measurement, density matrices, and entanglement
diagnostics.  Everything is dense complex linear algebra with dimension
capped at 16; all values are immutable after construction.
`measure`, the only function that draws random numbers, is the one-sample
reference for the experiments' bulk Monte Carlo kernels.

Basis convention: |up> = (1, 0), |down> = (0, 1); Pauli matrices in the
standard representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionError,
    DirectionError,
    HermiticityError,
    NumericalError,
    UnitarityError,
    ZeroNormError,
)
from .rng import SeededStream

UNIT_TOL = 1e-12  # |n|^2, ||psi||^2, sum p and Tr rho must be 1 within this
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
DEGENERACY_TOL = 1e-9  # eigenvalues closer than this share one projector
IMAG_RESIDUE_TOL = 1e-9
MAX_DIM = 16

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_hermitian(mat: np.ndarray, what: str = "operator"):
    if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
        raise HermiticityError(f"{what} is not Hermitian")


@dataclass(frozen=True)
class SpinDirection:
    """Unit vector fixing a spin measurement axis."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self):
        norm_sq = self.nx**2 + self.ny**2 + self.nz**2
        if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > UNIT_TOL:
            raise DirectionError(f"direction must be a unit vector, |n|^2 = {norm_sq}")


def xy_axis(angle: float) -> SpinDirection:
    """Axis in the x-y plane at ``angle`` radians from +x."""
    return SpinDirection(math.cos(angle), math.sin(angle), 0.0)


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude vector over a tensor product of subsystems."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        amps = _frozen_array(self.amplitudes, complex)
        object.__setattr__(self, "amplitudes", amps)
        if not dims or any(d <= 0 for d in dims):
            raise DimensionError(f"subsystem dimensions must be positive, got {dims}")
        if amps.ndim != 1 or amps.size != math.prod(dims):
            raise DimensionError(
                f"amplitude vector of length {amps.size} does not match dims {dims}"
            )
        if not np.isfinite(amps).all():
            raise NumericalError("amplitudes must be finite")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > UNIT_TOL:
            raise NumericalError(f"state norm squared {norm_sq} is not 1; use make_state")

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def make_state(dims: Sequence[int], amplitudes) -> StateVector:
    """Build a normalized state, scaling the input by 1/norm.

    Raises ZeroNormError on a zero vector and DimensionError when the
    amplitude count does not match the product of ``dims``.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if not np.isfinite(amps).all():
        raise NumericalError("amplitudes must be finite")
    # entries whose squares would leave the normal doubles are scaled to magnitude 1
    largest = float(np.max(np.abs([amps.real, amps.imag]), initial=0.0))
    if largest > 0.0 and not 1e-150 <= largest <= 1e150:
        amps = amps / largest
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ZeroNormError("cannot normalize the zero vector")
    return StateVector(dims, amps / norm)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product state on the concatenated subsystem list."""
    return StateVector(a.dims + b.dims, np.kron(a.amplitudes, b.amplitudes))


@dataclass(frozen=True)
class Operator:
    """Dense complex square matrix with structure flags, verified here on read-only entries."""

    entries: np.ndarray
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self):
        mat = _frozen_array(self.entries, complex)
        object.__setattr__(self, "entries", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"operator must be square, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise NumericalError("operator entries must be finite")
        if self.hermitian:
            _check_hermitian(mat, "operator flagged hermitian")
        if self.unitary:
            defect = mat @ mat.conj().T - np.eye(mat.shape[0])
            if np.max(np.abs(defect)) > UNITARY_TOL:
                raise UnitarityError("unitary flag set but matrix is not unitary")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def spin_observable(n: SpinDirection) -> Operator:
    """Spin component along ``n``: nx*sx + ny*sy + nz*sz, eigenvalues +-1."""
    mat = n.nx * PAULI_X + n.ny * PAULI_Y + n.nz * PAULI_Z
    return Operator(mat, hermitian=True)


def evolve_spin(state: StateVector, B: float, t: float) -> StateVector:
    """Evolve a single qubit under the precession Hamiltonian mu*B*sz.

    The up amplitude picks up exp(-i*mu*B*t/hbar) and the down amplitude
    exp(+i*mu*B*t/hbar); the norm is untouched.
    """
    if state.dims != (2,):
        raise DimensionError(f"evolve_spin needs a single qubit, got dims {state.dims}")
    phase = B * t
    factors = np.array([np.exp(-1j * phase), np.exp(1j * phase)])
    return StateVector((2,), state.amplitudes * factors)


def unitary_exp(H: Operator, t: float) -> Operator:
    """exp(-i*H*t/hbar) for Hermitian H, by Hermitian eigendecomposition."""
    mat = H.entries
    if not H.hermitian:
        _check_hermitian(mat)
    if H.dim > MAX_DIM:
        raise DimensionError(f"dimension {H.dim} exceeds the cap of {MAX_DIM}")
    w, v = np.linalg.eigh(mat)
    return Operator((v * np.exp(-1j * w * t)) @ v.conj().T, unitary=True)


def apply(op: Operator, state: StateVector) -> StateVector:
    """Apply an operator to a state; the result must stay normalized."""
    if op.dim != state.dim:
        raise DimensionError(f"operator dim {op.dim} != state dim {state.dim}")
    return StateVector(state.dims, op.entries @ state.amplitudes)


def expectation(state: StateVector, obs: Operator) -> float:
    """<psi|obs|psi> for Hermitian obs; the imaginary residue is checked."""
    if obs.dim != state.dim:
        raise DimensionError(f"operator dim {obs.dim} != state dim {state.dim}")
    if not obs.hermitian:
        _check_hermitian(obs.entries)
    value = complex(np.vdot(state.amplitudes, obs.entries @ state.amplitudes))
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        raise NumericalError(f"expectation has imaginary residue {value.imag}")
    return value.real


def eigen_projectors(obs: Operator) -> list[tuple[float, np.ndarray]]:
    """(eigenvalue, projector) pairs in ascending eigenvalue order.

    Eigenvalues within ``DEGENERACY_TOL`` of their neighbor are merged into a
    single projector so numerically degenerate spectra do not split the
    Born probabilities.
    """
    if not obs.hermitian:
        _check_hermitian(obs.entries)
    w, v = np.linalg.eigh(obs.entries)
    groups: list[tuple[float, np.ndarray]] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > DEGENERACY_TOL:
            block = v[:, start:i]
            value = float(np.mean(w[start:i]))
            groups.append((value, block @ block.conj().T))
            start = i
    return groups


def born_probabilities(
    state: StateVector, projectors: Iterable[tuple[float, np.ndarray]]
) -> list[tuple[float, float]]:
    """(eigenvalue, probability) pairs; probabilities must sum to 1."""
    psi = state.amplitudes
    pairs = []
    for value, proj in projectors:
        p = float(np.vdot(psi, proj @ psi).real)
        pairs.append((value, max(p, 0.0)))
    total = sum(p for _, p in pairs)
    if abs(total - 1.0) > UNIT_TOL:
        raise NumericalError(f"Born probabilities sum to {total}")
    return pairs


def measure(state: StateVector, obs: Operator, rng: SeededStream) -> tuple[float, StateVector]:
    """One projective measurement of ``obs`` drawing one uniform: (eigenvalue, post state)."""
    if obs.dim != state.dim:
        raise DimensionError(f"operator dim {obs.dim} != state dim {state.dim}")
    projectors = eigen_projectors(obs)
    pairs = born_probabilities(state, projectors)
    u = rng.uniform() * sum(p for _, p in pairs)
    index = len(pairs) - 1
    acc = 0.0
    for i, (_, p) in enumerate(pairs):
        acc += p
        if u < acc:
            index = i
            break
    value = pairs[index][0]
    projected = projectors[index][1] @ state.amplitudes
    post = StateVector(state.dims, projected / np.linalg.norm(projected))
    return value, post


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-1 matrix."""

    entries: np.ndarray

    def __post_init__(self):
        mat = _frozen_array(self.entries, complex)
        object.__setattr__(self, "entries", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"density matrix must be square, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise NumericalError("density matrix entries must be finite")
        _check_hermitian(mat, "density matrix")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > UNIT_TOL:
            raise NumericalError(f"density matrix trace {trace} is not 1")
        if float(np.min(np.linalg.eigvalsh(mat))) < -1e-10:
            raise NumericalError("density matrix has a negative eigenvalue")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def density(state: StateVector) -> DensityMatrix:
    """|psi><psi|."""
    psi = state.amplitudes
    return DensityMatrix(np.outer(psi, psi.conj()))


def partial_trace(
    dm: DensityMatrix, dims: Sequence[int], keep: Iterable[int]
) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``."""
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) != dm.dim:
        raise DimensionError(f"dims {dims} do not factor dimension {dm.dim}")
    kept = sorted(set(int(i) for i in keep))
    if not kept or kept[0] < 0 or kept[-1] >= len(dims):
        raise DimensionError(f"keep indices {kept} out of range for {len(dims)} subsystems")
    n = len(dims)
    tensor_form = dm.entries.reshape(dims + dims)
    bra = list(range(n))
    ket = [n + i if i in kept else i for i in range(n)]
    out = [i for i in kept] + [n + i for i in kept]
    reduced = np.einsum(tensor_form, bra + ket, out)
    side = math.prod(dims[i] for i in kept)
    return DensityMatrix(reduced.reshape(side, side))


def purity(dm: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states."""
    return float(np.trace(dm.entries @ dm.entries).real)


def entropy_bits(dm: DensityMatrix) -> float:
    """Von Neumann entropy in bits, with 0*log(0) taken as 0."""
    w = np.linalg.eigvalsh(dm.entries)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))
