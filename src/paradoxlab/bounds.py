"""Closed-form uncertainty bounds: field-measurement floor and energy-time product."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

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

    Each square is Python's ``T**2`` (libm ``pow(T, 2.0)``), made one Python
    float at a time from a memoryview, and then ``1.0 / T**2`` is one numpy
    division, which IEEE arithmetic rounds as Python does.  ``d * d`` and
    ``np.square`` are correctly rounded and glibc's ``pow`` is not: they
    differ in 87 of the 100,000 durations of ``bounds points=100000``.

    Two reductions check that every square is a finite normal double.  If
    one is not, or a duration is not positive and finite, the scalar runs
    over the whole array and raises (or overflows to inf) as it does alone.
    """
    durations = np.asarray(durations, dtype=np.float64)
    n = len(durations)
    if n and not (2.0**-511 <= durations.min() and durations.max() < 2.0**512):
        return np.fromiter(map(landau_peierls_min, memoryview(durations)), np.float64, n)
    squares = np.fromiter(map(pow, memoryview(durations), repeat(2.0)), np.float64, n)
    return np.divide(1.0, squares, out=squares)


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
