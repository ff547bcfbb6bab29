"""Entangled-pair correlations, the CHSH statistic, and the classical bound.

Settings are spin axes in the x-y plane.  On the singlet state the exact
correlation is E(a, b) = -cos(angle_a - angle_b), which at the optimal
CHSH settings reaches Tsirelson's value |S| = 2*sqrt(2); every local
deterministic assignment stays at |S| <= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping

import numpy as np

from . import qcore
from .errors import DimensionError, DomainError, NumericalError
from .montecarlo import run_chunks
from .rng import SeededStream

TSIRELSON = 2.0 * math.sqrt(2.0)
OPTIMAL_ANGLES = (0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0)  # a, a', b, b'

OUTCOMES = (-1, 1)

# joint outcome cells of one setting pair, A's sign then B's; index 2*a_plus + b_plus
CELLS = ("--", "-+", "+-", "++")
DRAWS_PER_TRIAL = 2  # uniforms per sampled pair: the A outcome, then B conditioned on it


@dataclass(frozen=True)
class MeasurementSetting:
    """Spin axis (cos(angle), sin(angle), 0) in the x-y plane."""

    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise DomainError(f"setting angle must be finite, got {self.angle}")

    def observable(self) -> qcore.Operator:
        return qcore.spin_observable(qcore.xy_axis(self.angle))


@dataclass(frozen=True)
class ChshSettings:
    a: MeasurementSetting
    a_prime: MeasurementSetting
    b: MeasurementSetting
    b_prime: MeasurementSetting

    @classmethod
    def from_angles(cls, a, a_prime, b, b_prime) -> "ChshSettings":
        return cls(
            MeasurementSetting(a),
            MeasurementSetting(a_prime),
            MeasurementSetting(b),
            MeasurementSetting(b_prime),
        )

    @classmethod
    def optimal(cls) -> "ChshSettings":
        """Settings maximizing |S| on the singlet: ``OPTIMAL_ANGLES``."""
        return cls.from_angles(*OPTIMAL_ANGLES)


@dataclass(frozen=True)
class ChshResult:
    exact_s: float
    estimated_s: float
    stderr: float
    exact_correlations: tuple[float, float, float, float]
    counts: Mapping[str, Mapping[str, int]]

    def __post_init__(self):
        if abs(self.exact_s) > TSIRELSON + 1e-9:
            raise NumericalError(f"|S| = {abs(self.exact_s)} exceeds the Tsirelson bound")


def singlet() -> qcore.StateVector:
    """(|ud> - |du>) / sqrt(2) on two qubits."""
    return qcore.make_state((2, 2), (0.0, 1.0, -1.0, 0.0))


def _check_pair(state: qcore.StateVector):
    if state.dims != (2, 2):
        raise DimensionError(f"two-qubit state required, got dims {state.dims}")


def _joint_observable(a: MeasurementSetting, b: MeasurementSetting) -> qcore.Operator:
    mat = np.kron(a.observable().entries, b.observable().entries)
    return qcore.Operator(mat, hermitian=True)


def correlation(
    state: qcore.StateVector, a: MeasurementSetting, b: MeasurementSetting
) -> float:
    """Exact <(a.sigma) x (b.sigma)> on a two-qubit state."""
    _check_pair(state)
    return qcore.expectation(state, _joint_observable(a, b))


def _side_projectors(setting: MeasurementSetting, side: int) -> dict[int, np.ndarray]:
    """Full-space projectors for one wing, keyed by outcome -1/+1."""
    eye = np.eye(2, dtype=complex)
    out = {}
    for value, proj in qcore.eigen_projectors(setting.observable()):
        full = np.kron(proj, eye) if side == 0 else np.kron(eye, proj)
        out[int(round(value))] = full
    return out


def joint_probabilities(
    state: qcore.StateVector, a: MeasurementSetting, b: MeasurementSetting
) -> dict[tuple[int, int], float]:
    """Exact joint outcome distribution via sequential collapse.

    Measure (a.sigma) x I first, renormalize the projected state, then
    measure I x (b.sigma) on it.
    """
    _check_pair(state)
    proj_a = _side_projectors(a, 0)
    proj_b = _side_projectors(b, 1)
    psi = state.amplitudes
    joint = {}
    for oa in OUTCOMES:
        branch = proj_a[oa] @ psi
        p_a = float(np.vdot(branch, branch).real)
        if p_a <= 0.0:
            for ob in OUTCOMES:
                joint[(oa, ob)] = 0.0
            continue
        collapsed = branch / math.sqrt(p_a)
        for ob in OUTCOMES:
            leaf = proj_b[ob] @ collapsed
            joint[(oa, ob)] = p_a * float(np.vdot(leaf, leaf).real)
    return joint


def sample_pair(
    state: qcore.StateVector,
    a: MeasurementSetting,
    b: MeasurementSetting,
    rng: SeededStream,
) -> tuple[int, int]:
    """One sequentially collapsed sample: measure wing A, then wing B."""
    _check_pair(state)
    eye = np.eye(2, dtype=complex)
    op_a = qcore.Operator(np.kron(a.observable().entries, eye), hermitian=True)
    value_a, post = qcore.measure(state, op_a, rng)
    op_b = qcore.Operator(np.kron(eye, b.observable().entries), hermitian=True)
    value_b, _ = qcore.measure(post, op_b, rng)
    return int(round(value_a)), int(round(value_b))


def _sample_counts(
    state: qcore.StateVector,
    a: MeasurementSetting,
    b: MeasurementSetting,
    stream: SeededStream,
    n: int,
    first: int,
) -> dict[str, int]:
    """Tally ``n`` sequential-collapse samples over ``CELLS``, using per-trial substreams.

    Trial i consumes two uniforms from substream (seed, first + i): one for
    the A outcome, one for the B outcome conditioned on it, with the
    conditional distribution taken from the collapsed state.
    """
    joint = joint_probabilities(state, a, b)
    p_a_minus = joint[(-1, -1)] + joint[(-1, 1)]
    p_a_plus = joint[(1, -1)] + joint[(1, 1)]
    cond_minus = joint[(-1, -1)] / p_a_minus if p_a_minus > 0 else 0.0
    cond_plus = joint[(1, -1)] / p_a_plus if p_a_plus > 0 else 0.0

    def worker(lo: int, hi: int) -> np.ndarray:
        u = stream.uniform_block(hi - lo, DRAWS_PER_TRIAL, first=first + lo)
        a_plus = u[:, 0] >= p_a_minus
        b_plus = u[:, 1] >= np.where(a_plus, cond_plus, cond_minus)
        return np.bincount(2 * a_plus + b_plus, minlength=4)

    totals = np.sum(run_chunks(n, worker, DRAWS_PER_TRIAL), axis=0)
    return dict(zip(CELLS, totals.tolist()))


def chsh(
    state: qcore.StateVector,
    settings: ChshSettings,
    trials: int,
    rng: SeededStream,
) -> ChshResult:
    """S = E(a,b) + E(a',b) + E(a',b') - E(a,b'), exact and estimated.

    The trial budget is split evenly over the four setting pairs; each pair
    owns a contiguous block of trial indices so reruns are reproducible.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    pairs = [
        ("ab", settings.a, settings.b, 1.0),
        ("apb", settings.a_prime, settings.b, 1.0),
        ("apbp", settings.a_prime, settings.b_prime, 1.0),
        ("abp", settings.a, settings.b_prime, -1.0),
    ]
    per_pair = max(trials // 4, 1)
    exact = []
    estimated_s = 0.0
    variance = 0.0
    counts: dict[str, dict[str, int]] = {}
    for index, (label, sa, sb, sign) in enumerate(pairs):
        exact.append(correlation(state, sa, sb))
        tally = _sample_counts(state, sa, sb, rng, per_pair, first=index * per_pair)
        agree = tally["++"] + tally["--"]
        disagree = tally["+-"] + tally["-+"]
        estimate = (agree - disagree) / per_pair
        estimated_s += sign * estimate
        variance += (1.0 - estimate**2) / per_pair
        counts[label] = tally
    exact_s = exact[0] + exact[1] + exact[2] - exact[3]
    return ChshResult(
        exact_s=exact_s,
        estimated_s=estimated_s,
        stderr=math.sqrt(variance),
        exact_correlations=tuple(exact),
        counts=counts,
    )


def local_deterministic_bound() -> float:
    """Max |S| over all 16 deterministic assignments; equals 2."""
    best = 0.0
    for a1, a2, b1, b2 in product((-1, 1), repeat=4):
        s = a1 * b1 + a2 * b1 + a2 * b2 - a1 * b2
        best = max(best, abs(float(s)))
    return best
