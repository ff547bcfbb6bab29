"""Two-slit complementarity, quantitatively.

Fringe geometry, the which-path momentum threshold, the uncertainty-driven
washout chain, and a numeric interference pattern smeared by the screen's
position uncertainty.  An ideal pattern 1 + cos(2*pi*x/D) convolved with a
zero-mean Gaussian of standard deviation sigma has visibility
exp(-2*pi**2*sigma**2/D**2), which the numeric convolution must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import H
from .errors import DomainError, GeometryError, ResolutionError

KERNEL_REACH_SIGMAS = 8.0  # Gaussian truncation; residual mass < 1e-14
MIN_GRID = 64
MIN_SPAN_FRINGES = 4.0


@dataclass(frozen=True)
class TwoSlitGeometry:
    """Wavelength, slit separation, and slit-to-screen distance."""

    wavelength: float
    slit_separation: float
    screen_distance: float

    def __post_init__(self):
        for name in ("wavelength", "slit_separation", "screen_distance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise GeometryError(f"{name} must be positive, got {value}")

    @property
    def paraxial(self) -> bool:
        """Small-angle validity: slit separation at most a tenth of the distance."""
        return self.slit_separation / self.screen_distance <= 0.1


@dataclass(frozen=True)
class ComplementarityReport:
    delta_p_threshold: float
    delta_p_s: float
    delta_x_s_min: float
    fringe_spacing: float
    which_path_resolved: bool
    pattern_washed_out: bool


@dataclass(frozen=True)
class IntensityProfile:
    """Uniformly sampled transverse intensity with its fringe spacing."""

    xs: np.ndarray
    intensities: np.ndarray
    fringe_spacing: float


def fringe_spacing(g: TwoSlitGeometry) -> float:
    """Dark-band separation D = wavelength * distance / slit separation."""
    return g.wavelength * g.screen_distance / g.slit_separation


def which_path_threshold(g: TwoSlitGeometry) -> float:
    """Momentum accuracy needed to tell the slits apart: (d/L)*(h/lambda).

    The transverse-kick difference between the two paths is the longitudinal
    momentum h/lambda times d/L, so this threshold equals h/D.
    """
    return (g.slit_separation / g.screen_distance) * (H / g.wavelength)


def complementarity_report(g: TwoSlitGeometry, delta_p_s: float) -> ComplementarityReport:
    """Which-path resolution versus washout for a momentum accuracy delta_p_s.

    Position uncertainty h/delta_p_s at or beyond one fringe spacing wipes
    the pattern; resolving which-path therefore always washes it out.  The
    `or resolved` term keeps that implication exact at the float boundary.
    """
    if not (math.isfinite(delta_p_s) and delta_p_s > 0):
        raise DomainError(f"delta_p_s must be positive, got {delta_p_s}")
    threshold = which_path_threshold(g)
    spacing = fringe_spacing(g)
    delta_x = H / delta_p_s
    resolved = delta_p_s <= threshold
    washed = delta_x >= spacing or resolved
    return ComplementarityReport(
        delta_p_threshold=threshold,
        delta_p_s=delta_p_s,
        delta_x_s_min=delta_x,
        fringe_spacing=spacing,
        which_path_resolved=resolved,
        pattern_washed_out=washed,
    )


def sample_points(spacing: float, grid: int, span: float) -> np.ndarray:
    """``pattern``'s ``grid`` positions across ``span``, spaced below ``spacing / 8``."""
    xs = np.linspace(-span / 2.0, span / 2.0, grid)
    dx, limit = xs[1] - xs[0], spacing / 8.0
    if not dx < limit:
        raise ResolutionError(
            f"sample step {dx} must be below {limit}, an eighth of the fringe spacing {spacing}"
        )
    return xs


def pattern(
    g: TwoSlitGeometry,
    smear_sigma: float,
    grid: int = 2048,
    span: float | None = None,
) -> IntensityProfile:
    """Ideal fringes convolved with a Gaussian screen-position smear.

    The ideal profile is 1 + cos(2*pi*x/D); the convolution is evaluated on
    an extended grid so the returned window carries no edge artifacts.
    """
    if smear_sigma < 0 or not math.isfinite(smear_sigma):
        raise DomainError(f"smear_sigma must be nonnegative, got {smear_sigma}")
    spacing = fringe_spacing(g)
    if span is None:
        span = 8.0 * spacing
    if grid < MIN_GRID:
        raise ResolutionError(f"grid must be >= {MIN_GRID}, got {grid}")
    if span < MIN_SPAN_FRINGES * spacing:
        raise ResolutionError(
            f"span {span} covers fewer than {MIN_SPAN_FRINGES:g} fringes of {spacing}"
        )
    xs = sample_points(spacing, grid, span)
    dx = xs[1] - xs[0]
    if smear_sigma == 0.0:
        intensities = 1.0 + np.cos(2.0 * math.pi * xs / spacing)
        return IntensityProfile(xs, intensities, spacing)
    halfwidth = int(math.ceil(KERNEL_REACH_SIGMAS * smear_sigma / dx))
    offsets = np.arange(-halfwidth, grid + halfwidth) * dx + xs[0]
    ideal = 1.0 + np.cos(2.0 * math.pi * offsets / spacing)
    # a square beyond the double range is weight exp(-inf) = 0
    with np.errstate(over="ignore"):
        kernel = np.exp(-0.5 * (np.arange(-halfwidth, halfwidth + 1) * dx / smear_sigma) ** 2)
    kernel /= kernel.sum()
    intensities = np.convolve(ideal, kernel, mode="valid")
    return IntensityProfile(xs, np.maximum(intensities, 0.0), spacing)


def _refine_extremum(values: np.ndarray, index: int) -> float:
    """Parabolic refinement of an extremum through three samples."""
    if index == 0 or index == values.size - 1:
        return float(values[index])
    y0, y1, y2 = values[index - 1], values[index], values[index + 1]
    curvature = y0 - 2.0 * y1 + y2
    if abs(curvature) < 1e-12 * max(abs(y0), abs(y1), abs(y2), 1.0):
        return float(y1)
    return float(y1 - (y0 - y2) ** 2 / (8.0 * curvature))


def visibility(p: IntensityProfile) -> float:
    """(I_max - I_min)/(I_max + I_min) over the interior fringes.

    Half a fringe is excluded at each boundary and the surviving extrema
    are refined with a local parabola, so the estimate converges fast in
    the grid resolution.
    """
    span = p.xs[-1] - p.xs[0]
    if span < 2.0 * p.fringe_spacing:
        raise ResolutionError(f"span {span} covers fewer than 2 fringes")
    margin = p.fringe_spacing / 2.0
    interior = np.nonzero(
        (p.xs >= p.xs[0] + margin) & (p.xs <= p.xs[-1] - margin)
    )[0]
    values = p.intensities
    i_max = interior[np.argmax(values[interior])]
    i_min = interior[np.argmin(values[interior])]
    high = _refine_extremum(values, int(i_max))
    low = _refine_extremum(values, int(i_min))
    total = high + low
    if total <= 0.0:
        return 0.0
    return max((high - low) / total, 0.0)
