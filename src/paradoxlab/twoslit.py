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
DEFAULT_GRID = 2048
DEFAULT_SPAN_FRINGES = 8.0


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


def _profile_inputs(
    g: TwoSlitGeometry, smear_sigma: float, grid: int, span: float | None
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray | None]:
    """Checked sample points, fringe spacing, ideal profile and smear kernel.

    Without a smear the kernel is None and the ideal profile 1 + cos(2*pi*x/D)
    is sampled at the points.  With one, the ideal profile runs half a kernel
    beyond each end, so its valid convolution with the kernel carries no edge
    artifacts.
    """
    if smear_sigma < 0 or not math.isfinite(smear_sigma):
        raise DomainError(f"smear_sigma must be nonnegative, got {smear_sigma}")
    spacing = fringe_spacing(g)
    if span is None:
        span = DEFAULT_SPAN_FRINGES * spacing
    if grid < MIN_GRID:
        raise ResolutionError(f"grid must be >= {MIN_GRID}, got {grid}")
    if span < MIN_SPAN_FRINGES * spacing:
        raise ResolutionError(
            f"span {span} covers fewer than {MIN_SPAN_FRINGES:g} fringes of {spacing}"
        )
    xs = sample_points(spacing, grid, span)
    if smear_sigma == 0.0:
        return xs, spacing, 1.0 + np.cos(2.0 * math.pi * xs / spacing), None
    dx = xs[1] - xs[0]
    halfwidth = int(math.ceil(KERNEL_REACH_SIGMAS * smear_sigma / dx))
    # built in place, one array each, with the roundings, in order, of
    # 1 + cos(2*pi*(n*dx + x_0)/D) and exp(-0.5*(m*dx/sigma)**2)
    ideal = np.arange(-halfwidth, grid + halfwidth) * dx
    ideal += xs[0]
    ideal *= 2.0 * math.pi
    ideal /= spacing
    np.cos(ideal, out=ideal)
    ideal += 1.0
    kernel = np.arange(-halfwidth, halfwidth + 1) * dx
    # a square beyond the double range is weight exp(-inf) = 0
    with np.errstate(over="ignore"):
        kernel /= smear_sigma
        np.square(kernel, out=kernel)
        kernel *= -0.5
        np.exp(kernel, out=kernel)
    kernel /= kernel.sum()
    return xs, spacing, ideal, kernel


def pattern(
    g: TwoSlitGeometry,
    smear_sigma: float,
    grid: int = DEFAULT_GRID,
    span: float | None = None,
) -> IntensityProfile:
    """Ideal fringes 1 + cos(2*pi*x/D) convolved with a Gaussian screen-position smear."""
    xs, spacing, ideal, kernel = _profile_inputs(g, smear_sigma, grid, span)
    intensities = ideal if kernel is None else _smeared(ideal, kernel, 0, grid)
    return IntensityProfile(xs, intensities, spacing)


def _smeared(ideal: np.ndarray, kernel: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Smeared intensities at samples ``lo .. hi - 1``, clamped at 0.

    Each is one dot product of the kernel with the ideal samples from its own
    index on, so a window has the same bits as the whole grid.
    """
    return np.maximum(np.convolve(ideal[lo : hi + kernel.size - 1], kernel, mode="valid"), 0.0)


def _extremum_windows(xs: np.ndarray, spacing: float, kernel: np.ndarray) -> list[tuple[int, int]]:
    """Output index ranges ``[lo, hi)``, in order, that hold every candidate interior extremum.

    ``smeared_visibility``'s docstring derives them.
    """
    u, taps, x0, dx = 2.0**-53, kernel.size, float(xs[0]), float(xs[1] - xs[0])
    halfwidth = taps // 2
    reach = abs(x0) + (xs.size + halfwidth) * dx  # bounds |offset| and |m*dx|
    error = 2.0 * (2.0 * taps * u + u * (14.0 * math.pi * reach / spacing + 10.0))
    phases = np.arange(-halfwidth, halfwidth + 1, dtype=np.float64)
    phases *= 2.0 * math.pi * dx / spacing
    gain = float(np.dot(kernel, np.cos(phases, out=phases))) - error
    floor = math.cos(math.pi * dx / spacing) - 2.0 * error / gain if gain > 0.0 else -1.0
    radius = math.acos(max(floor, -1.0)) * spacing / (2.0 * math.pi * dx)  # in samples
    windows: list[tuple[int, int]] = []
    for half in range(math.floor(2.0 * x0 / spacing) - 1, math.ceil(2.0 * xs[-1] / spacing) + 2):
        centre = (half * (spacing / 2.0) - x0) / dx
        lo = max(math.floor(centre - radius) - 2, 0)
        hi = min(math.ceil(centre + radius) + 3, xs.size)
        if windows and lo <= windows[-1][1]:
            windows[-1] = (windows[-1][0], hi)  # lo and hi never decrease
        elif lo < hi:
            windows.append((lo, hi))
    return windows


def smeared_visibility(
    g: TwoSlitGeometry,
    smear_sigma: float,
    grid: int = DEFAULT_GRID,
    span: float | None = None,
) -> float:
    """``visibility(pattern(g, smear_sigma, grid, span))`` bit for bit, convolving
    only the samples that can hold its interior extrema.

    Output ``i`` of ``pattern``'s convolution is one dot product of the K
    kernel weights ``w`` with ideal samples ``i .. i + K - 1``, so computing
    outputs ``lo .. hi - 1`` alone makes the same dot products and gives the
    same bits.  Which outputs are needed follows from a bound.  The kernel is
    symmetric bit for bit, so in exact arithmetic output ``i`` is
    ``S + G*cos(2*pi*t_i/D)``, with ``t_i = x_0 + i*dx``, ``S = sum(w)`` and
    ``G = sum_m w_m*cos(2*pi*m*dx/D)``.  With ``u = 2**-53`` and ``R`` bounding
    every offset of the extended grid, rounding moves an output by at most
    ``E = S*(2*K*u + u*(14*pi*R/D + 10))``: the dot product's ``gamma_K`` bound
    over terms that sum to at most ``2*S``, plus the error of one ideal sample
    (the offset's two roundings, the argument's two, ``2*math.pi``'s own error,
    ``cos`` within 4 ulp, and the final add).  The clamp at 0 keeps order, so
    an interior index ``i`` can be the first argmax only if
    ``G*(c_max - c_i) <= 2*E``, and the first argmin only if
    ``G*(c_i - c_min) <= 2*E``, where ``c_i = cos(2*pi*t_i/D)``.  The interior
    spans at least three fringes, so it holds a sample within ``dx/2`` of a
    peak and of a trough: ``c_max >= cos(pi*dx/D) >= -c_min``.  Every candidate
    therefore lies within ``D*acos(cos(pi*dx/D) - 2*E/G)/(2*pi)`` of a multiple
    of ``D/2``.  The windows convolved hold those positions, with two samples to
    spare on each side: one for the parabolic refinement's neighbour, one for
    the rounding of the window ends.  The code doubles ``E`` (which also covers
    ``S <= 1 + K*u``) and lowers the computed ``G`` by it, more than ``G``'s own
    rounding.  When ``G`` is not positive, or no position is excluded, the
    windows merge into the whole grid, which is ``pattern``'s computation.
    Every sample outside the windows is NaN, which ``visibility`` reads as no
    sample; the spare samples keep each refined extremum's neighbours finite.
    """
    xs, spacing, values, kernel = _profile_inputs(g, smear_sigma, grid, span)
    if kernel is not None:
        ideal, values = values, np.full(grid, np.nan)
        for lo, hi in _extremum_windows(xs, spacing, kernel):
            values[lo:hi] = _smeared(ideal, kernel, lo, hi)
    return visibility(IntensityProfile(xs, values, spacing))


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

    Half a fringe is excluded at each boundary, a NaN intensity counts as no
    sample, and the surviving extrema are refined with a local parabola, so
    the estimate converges fast in the grid resolution.
    """
    xs, values, spacing = p.xs, p.intensities, p.fringe_spacing
    span = xs[-1] - xs[0]
    if span < 2.0 * spacing:
        raise ResolutionError(f"span {span} covers fewer than 2 fringes")
    margin = spacing / 2.0
    interior = np.where((xs >= xs[0] + margin) & (xs <= xs[-1] - margin), values, np.nan)
    if np.isnan(interior).all():
        raise ResolutionError(f"no sample lies half a fringe of {spacing} inside both ends")
    high = _refine_extremum(values, int(np.nanargmax(interior)))
    low = _refine_extremum(values, int(np.nanargmin(interior)))
    total = high + low
    if total <= 0.0:
        return 0.0
    return max((high - low) / total, 0.0)
