"""Closed-form uncertainty bounds: field-measurement floor and energy-time product."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

H = 2.0 * math.pi  # Planck constant h = 2*pi*hbar, with hbar = 1


@dataclass(frozen=True)
class UncertaintyReport:
    """Energy-time product against the hbar/2 threshold."""

    delta_e: float
    delta_t: float
    product: float
    threshold: float
    satisfied: bool

    @property
    def apparent_violation(self) -> bool:
        return not self.satisfied


def landau_peierls_min(T: float) -> float:
    """Minimum uncertainty of a field-magnitude measurement lasting time T.

    sqrt(hbar*c) / (c*T)**2, which is 1/T**2 in natural units.
    """
    if not (math.isfinite(T) and T > 0):
        raise DomainError(f"measurement duration must be positive, got {T}")
    return 1.0 / T**2


def landau_peierls_floors(durations: np.ndarray) -> np.ndarray:
    """``landau_peierls_min`` over an array of durations, bit for bit.

    The scalar runs on Python floats, because numpy's power is not always
    bit-identical to Python's ``**``.
    """
    durations = np.asarray(durations, dtype=np.float64)
    # a memoryview yields one Python float at a time: no list of the whole array
    floors = map(landau_peierls_min, memoryview(durations))
    return np.fromiter(floors, np.float64, len(durations))


def energy_time_product(delta_e: float, delta_t: float) -> UncertaintyReport:
    """Evaluate delta_e * delta_t against the hbar/2 threshold."""
    if delta_e < 0 or delta_t < 0:
        raise DomainError(f"uncertainties must be nonnegative, got ({delta_e}, {delta_t})")
    if not (math.isfinite(delta_e) and math.isfinite(delta_t)):
        raise DomainError("uncertainties must be finite")
    product = delta_e * delta_t
    threshold = 0.5  # hbar / 2
    return UncertaintyReport(
        delta_e=delta_e,
        delta_t=delta_t,
        product=product,
        threshold=threshold,
        satisfied=product >= threshold - 1e-15,
    )
