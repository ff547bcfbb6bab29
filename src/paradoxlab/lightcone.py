"""Special-relativistic geometry of collapse in 1+1 dimensions.

Interval classification, past-lightcone membership (boundary inclusive),
the collapse-allowed intersection region of two measurement events, and
Lorentz boosts showing that spacelike-separated measurements have
frame-dependent ordering while timelike pairs never reorder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BoostError, DomainError

A_FIRST = "a_first"
B_FIRST = "b_first"
SIMULTANEOUS = "simultaneous"


@dataclass(frozen=True)
class Event:
    """Spacetime point (t, x)."""

    t: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise DomainError(f"event coordinates must be finite, got ({self.t}, {self.x})")


class Boost:
    """Velocity boost with its Lorentz factor."""

    def __init__(self, v: float):
        if not math.isfinite(v) or abs(v) >= 1.0 - 1e-12:
            raise BoostError(f"|v| must stay below c, got v = {v}")
        self.v = float(v)
        self.gamma = 1.0 / math.sqrt(1.0 - v * v)


def interval(e1: Event, e2: Event) -> tuple[float, str]:
    """Invariant interval dt^2 - dx^2 and its causal kind."""
    dt = e2.t - e1.t
    dx = e2.x - e1.x
    dt2 = dt**2
    dx2 = dx**2
    s2 = dt2 - dx2
    if abs(s2) <= 1e-12 * max(dt2, dx2):
        kind = "lightlike"
    elif s2 > 0:
        kind = "timelike"
    else:
        kind = "spacelike"
    return s2, kind


def in_past_cone(p: Event, apex: Event) -> bool:
    """Closed past lightcone: p can causally influence the apex."""
    return p.t <= apex.t and abs(p.x - apex.x) <= apex.t - p.t


def collapse_allowed(p: Event, a: Event, b: Event) -> bool:
    """Inside the intersection of the past cones of both measurement events."""
    return in_past_cone(p, a) and in_past_cone(p, b)


def collapse_region(t: np.ndarray, x: np.ndarray, a: Event, b: Event) -> np.ndarray:
    """``collapse_allowed`` at every point (t[i], x[i]), by the same comparisons."""

    def past_cone(apex: Event) -> np.ndarray:
        return (t <= apex.t) & (np.abs(x - apex.x) <= apex.t - t)

    return past_cone(a) & past_cone(b)


def boost(e: Event, frame: Boost) -> Event:
    """Lorentz transform into a frame moving at frame.v."""
    t_prime = frame.gamma * (e.t - frame.v * e.x)
    x_prime = frame.gamma * (e.x - frame.v * e.t)
    return Event(t_prime, x_prime)


@dataclass(frozen=True)
class FrameOrdering:
    velocity: float
    t_a: float
    t_b: float
    order: str


@dataclass(frozen=True)
class OrderingReport:
    interval_s2: float
    interval_kind: str
    orderings: tuple[FrameOrdering, ...]
    admits_reversal: bool


def ordering_report(a: Event, b: Event, velocities: Sequence[float]) -> OrderingReport:
    """Time ordering of two events across a family of inertial frames.

    The interval kind is frame invariant; spacelike pairs can show either
    ordering depending on the frame, timelike pairs cannot.
    """
    s2, kind = interval(a, b)
    orderings = []
    seen = set()
    for v in velocities:
        frame = Boost(v)
        t_a = boost(a, frame).t
        t_b = boost(b, frame).t
        if t_a < t_b:
            order = A_FIRST
        elif t_b < t_a:
            order = B_FIRST
        else:
            order = SIMULTANEOUS
        seen.add(order)
        orderings.append(FrameOrdering(velocity=float(v), t_a=t_a, t_b=t_b, order=order))
    return OrderingReport(
        interval_s2=s2,
        interval_kind=kind,
        orderings=tuple(orderings),
        admits_reversal=A_FIRST in seen and B_FIRST in seen,
    )
