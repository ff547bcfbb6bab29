"""Closed-form uncertainty bounds: field-measurement floor and energy-time product."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DomainError

_BLOCK = 16384

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

    The durations are checked once; each floor is then the scalar expression
    on Python floats, because numpy's power is not always bit-identical to
    Python's ``**``.
    """
    durations = np.asarray(durations, dtype=np.float64)
    bad = ~(np.isfinite(durations) & (durations > 0))
    if bad.any():
        T = float(durations[bad][0])
        raise DomainError(f"measurement duration must be positive, got {T}")
    n = len(durations)
    # Python floats a block at a time, never the whole array as a list
    values = chain.from_iterable(
        durations[lo : lo + _BLOCK].tolist() for lo in range(0, n, _BLOCK)
    )
    return np.fromiter((1.0 / T**2 for T in values), np.float64, n)


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
