"""Fringe geometry, which-path threshold, and the washout chain."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paradoxlab import twoslit
from paradoxlab.errors import DomainError, GeometryError, ResolutionError

H = 2.0 * math.pi  # Planck constant in natural units

GEOMETRY = twoslit.TwoSlitGeometry(
    wavelength=1.0, slit_separation=2.0, screen_distance=100.0
)


def gaussian_visibility(sigma_over_spacing):
    return math.exp(-2.0 * math.pi**2 * sigma_over_spacing**2)


class TestFringeSpacing:
    def test_reference_geometry(self):
        assert twoslit.fringe_spacing(GEOMETRY) == 50.0

    def test_linear_in_distance(self):
        doubled = twoslit.TwoSlitGeometry(1.0, 2.0, 200.0)
        assert twoslit.fringe_spacing(doubled) == 2.0 * twoslit.fringe_spacing(GEOMETRY)

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(GeometryError):
            twoslit.TwoSlitGeometry(0.0, 2.0, 100.0)
        with pytest.raises(GeometryError):
            twoslit.TwoSlitGeometry(1.0, -2.0, 100.0)

    def test_paraxial_flag(self):
        assert GEOMETRY.paraxial
        assert not twoslit.TwoSlitGeometry(1.0, 20.0, 100.0).paraxial


class TestWhichPathThreshold:
    def test_reference_value(self):
        # (d/L)*(h/lambda) with h = 2*pi in natural units
        assert twoslit.which_path_threshold(GEOMETRY) == pytest.approx(
            0.12566370614359174, abs=1e-15
        )

    def test_equals_h_over_fringe_spacing(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            geometry = twoslit.TwoSlitGeometry(
                wavelength=rng.uniform(0.2, 5.0),
                slit_separation=rng.uniform(0.2, 5.0),
                screen_distance=rng.uniform(10.0, 500.0),
            )
            threshold = twoslit.which_path_threshold(geometry)
            spacing = twoslit.fringe_spacing(geometry)
            assert abs(threshold * spacing - H) <= 1e-12

    def test_transverse_kick_ratio(self):
        # momentum-difference over longitudinal momentum equals d/L
        longitudinal = H / GEOMETRY.wavelength
        ratio = twoslit.which_path_threshold(GEOMETRY) / longitudinal
        assert ratio == pytest.approx(
            GEOMETRY.slit_separation / GEOMETRY.screen_distance, rel=1e-14
        )


class TestComplementarityReport:
    def test_resolving_washes_out(self):
        spacing = twoslit.fringe_spacing(GEOMETRY)
        report = twoslit.complementarity_report(GEOMETRY, H / (2.0 * spacing))
        assert report.which_path_resolved
        assert report.pattern_washed_out
        assert report.delta_x_s_min == pytest.approx(2.0 * spacing, rel=1e-14)

    def test_coarse_measurement_preserves_fringes(self):
        spacing = twoslit.fringe_spacing(GEOMETRY)
        report = twoslit.complementarity_report(GEOMETRY, 2.0 * H / spacing)
        assert not report.which_path_resolved
        assert not report.pattern_washed_out
        assert report.delta_x_s_min == pytest.approx(spacing / 2.0, rel=1e-14)

    def test_boundary_sets_both_flags(self):
        report = twoslit.complementarity_report(
            GEOMETRY, twoslit.which_path_threshold(GEOMETRY)
        )
        assert report.which_path_resolved
        assert report.pattern_washed_out

    def test_uncertainty_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            delta_p = rng.uniform(0.01, 10.0)
            report = twoslit.complementarity_report(GEOMETRY, delta_p)
            assert abs(report.delta_x_s_min * delta_p - H) <= 1e-12

    def test_never_resolved_without_washout(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            geometry = twoslit.TwoSlitGeometry(
                wavelength=rng.uniform(0.2, 5.0),
                slit_separation=rng.uniform(0.2, 5.0),
                screen_distance=rng.uniform(10.0, 500.0),
            )
            threshold = twoslit.which_path_threshold(geometry)
            delta_p = threshold * rng.uniform(0.2, 2.0)
            if rng.uniform() < 0.2:
                delta_p = threshold  # exercise the float boundary
            report = twoslit.complementarity_report(geometry, delta_p)
            assert not (report.which_path_resolved and not report.pattern_washed_out)

    def test_rejects_nonpositive_accuracy(self):
        with pytest.raises(DomainError):
            twoslit.complementarity_report(GEOMETRY, 0.0)


class TestPattern:
    def test_unsmeared_visibility_is_unity(self):
        profile = twoslit.pattern(GEOMETRY, 0.0)
        assert abs(twoslit.visibility(profile) - 1.0) <= 1e-6

    def test_gaussian_attenuation_values(self):
        spacing = twoslit.fringe_spacing(GEOMETRY)
        # sigma = D/(2*pi) attenuates by exp(-1/2)
        profile = twoslit.pattern(GEOMETRY, spacing / (2.0 * math.pi))
        vis = twoslit.visibility(profile)
        assert vis == pytest.approx(math.exp(-0.5), rel=1e-3)

    def test_matches_convolution_oracle_on_ratio_grid(self):
        spacing = twoslit.fringe_spacing(GEOMETRY)
        for ratio in (0.05, 0.1, 0.25, 0.5):
            vis = twoslit.visibility(twoslit.pattern(GEOMETRY, ratio * spacing))
            expected = gaussian_visibility(ratio)
            assert abs(vis - expected) / expected <= 1e-3

    def test_full_washout(self):
        spacing = twoslit.fringe_spacing(GEOMETRY)
        vis = twoslit.visibility(twoslit.pattern(GEOMETRY, spacing))
        assert vis < 1e-6

    def test_washout_for_every_resolving_accuracy(self):
        spacing = twoslit.fringe_spacing(GEOMETRY)
        threshold = twoslit.which_path_threshold(GEOMETRY)
        for factor in (1.0, 0.5, 0.25):
            sigma = H / (threshold * factor)
            profile = twoslit.pattern(GEOMETRY, sigma, grid=512, span=4.0 * spacing)
            assert twoslit.visibility(profile) <= 1e-6

    def test_monotone_in_smear(self):
        spacing = twoslit.fringe_spacing(GEOMETRY)
        ratios = np.linspace(0.0, 0.6, 13)
        values = [
            twoslit.visibility(twoslit.pattern(GEOMETRY, r * spacing)) for r in ratios
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_grid_convergence(self):
        spacing = twoslit.fringe_spacing(GEOMETRY)
        coarse = twoslit.visibility(twoslit.pattern(GEOMETRY, 0.3 * spacing, grid=2048))
        fine = twoslit.visibility(twoslit.pattern(GEOMETRY, 0.3 * spacing, grid=4096))
        assert abs(coarse - fine) < 1e-4

    def test_resolution_errors(self):
        with pytest.raises(ResolutionError):
            twoslit.pattern(GEOMETRY, 0.0, grid=32)
        with pytest.raises(ResolutionError):
            twoslit.pattern(GEOMETRY, 0.0, span=2.0 * twoslit.fringe_spacing(GEOMETRY))
        with pytest.raises(ResolutionError):
            # 64 samples over 16 fringes: more than D/8 per sample
            twoslit.pattern(GEOMETRY, 0.0, grid=64, span=16 * 50.0)

    @pytest.mark.parametrize("grid", [64, 65, 66])
    def test_sample_points_follow_the_pattern_rule(self, grid):
        # 8 fringes of 50: the step 400/(grid - 1) must stay below 50/8 = 6.25
        span = 8.0 * twoslit.fringe_spacing(GEOMETRY)
        if grid == 66:
            xs = twoslit.sample_points(50.0, grid, span)
            np.testing.assert_array_equal(twoslit.pattern(GEOMETRY, 0.0, grid, span).xs, xs)
            return
        with pytest.raises(ResolutionError, match="must be below 6.25"):
            twoslit.sample_points(50.0, grid, span)
        with pytest.raises(ResolutionError, match="must be below 6.25"):
            twoslit.pattern(GEOMETRY, 0.0, grid, span)

    def test_negative_smear_rejected(self):
        with pytest.raises(DomainError):
            twoslit.pattern(GEOMETRY, -0.1)


class TestVisibility:
    def test_constant_profile(self):
        xs = np.linspace(-100.0, 100.0, 512)
        profile = twoslit.IntensityProfile(xs, np.ones_like(xs), 50.0)
        assert twoslit.visibility(profile) == 0.0

    def test_span_too_short(self):
        xs = np.linspace(-20.0, 20.0, 512)
        profile = twoslit.IntensityProfile(xs, np.ones_like(xs), 50.0)
        with pytest.raises(ResolutionError):
            twoslit.visibility(profile)

    def test_no_sample_in_the_interior(self):
        # two fringes and more, but no sample half a fringe inside both ends
        xs = np.array([-60.0, 60.0])
        profile = twoslit.IntensityProfile(xs, np.ones_like(xs), 50.0)
        with pytest.raises(ResolutionError, match="no sample lies half a fringe"):
            twoslit.visibility(profile)

    def test_nan_samples_away_from_the_extrema_change_no_bit(self):
        # NaN is no sample: holes near half height, away from every peak and
        # trough and their neighbours, leave the extrema and their refinement
        spacing = twoslit.fringe_spacing(GEOMETRY)
        profile = twoslit.pattern(GEOMETRY, 0.3 * spacing)
        holes = np.abs(np.cos(2.0 * math.pi * profile.xs / spacing)) < 0.9
        assert 2 * holes.sum() > holes.size
        holed = twoslit.IntensityProfile(
            profile.xs, np.where(holes, np.nan, profile.intensities), spacing
        )
        whole = twoslit.visibility(profile)
        assert np.float64(twoslit.visibility(holed)).tobytes() == np.float64(whole).tobytes()

    def test_interior_of_nan_only(self):
        # samples only within half a fringe of an end, the rest NaN
        xs = np.linspace(-100.0, 100.0, 512)
        intensities = np.where(np.abs(xs) <= 75.0, np.nan, 1.0)
        profile = twoslit.IntensityProfile(xs, intensities, 50.0)
        with pytest.raises(ResolutionError, match="no sample lies half a fringe"):
            twoslit.visibility(profile)


def convolved_outputs(monkeypatch):
    """Spy on ``np.convolve``: the list it returns collects each call's output count."""
    counts, convolve = [], np.convolve

    def spy(a, v, mode="full"):
        out = convolve(a, v, mode)
        counts.append(out.size)
        return out

    monkeypatch.setattr(np, "convolve", spy)
    return counts


@st.composite
def smeared_cases(draw):
    geometry = twoslit.TwoSlitGeometry(
        *(draw(st.floats(low, high)) for low, high in [(0.2, 5.0), (0.2, 5.0), (10.0, 500.0)])
    )
    fringes = draw(st.floats(4.0, 16.0))
    # a sample step below D/8, with a sample to spare against rounding
    grid = draw(st.integers(max(twoslit.MIN_GRID, math.floor(8.0 * fringes) + 3), 4096))
    # near 1.2 fringes the rounding noise moves the extrema off the peaks
    ratio = draw(st.floats(0.0, 4.0) | st.floats(1.0, 1.5) | st.sampled_from([0.0, 1.0, 4.0]))
    return geometry, ratio, grid, fringes


class TestSmearedVisibility:
    # sigma runs from 0 up to the CLI's smear cap of 4 fringes
    @settings(max_examples=60, deadline=None)
    @given(smeared_cases())
    @example((GEOMETRY, 1.0, 2048, 8.0))
    @example((GEOMETRY, 4.0, 256, 4.0))
    @example((twoslit.TwoSlitGeometry(0.3, 4.1, 37.0), 0.01, 4096, 16.0))
    @example((GEOMETRY, 1.3, 2048, 16.0))  # both fail if the error bound is dropped
    @example((GEOMETRY, 1.4, 4096, 4.0))
    def test_same_bits_as_the_whole_pattern(self, case):
        geometry, ratio, grid, fringes = case
        spacing = twoslit.fringe_spacing(geometry)
        args = (geometry, ratio * spacing, grid, fringes * spacing)
        whole = twoslit.visibility(twoslit.pattern(*args))
        windowed = twoslit.smeared_visibility(*args)
        assert np.float64(windowed).tobytes() == np.float64(whole).tobytes()

    def test_flat_fringes_convolve_the_whole_grid(self, monkeypatch):
        # at the 4-fringe cap G is about exp(-32 pi^2): the bound excludes nothing
        counts = convolved_outputs(monkeypatch)
        spacing = twoslit.fringe_spacing(GEOMETRY)
        args = (GEOMETRY, 4.0 * spacing, 512, 4.0 * spacing)
        windowed = twoslit.smeared_visibility(*args)
        assert counts == [512]
        assert windowed == twoslit.visibility(twoslit.pattern(*args))

    def test_sweep_convolves_a_quarter_of_the_grid_at_most(self, monkeypatch):
        # the benchmark's grid, with the CLI's default geometry and sweep
        counts = convolved_outputs(monkeypatch)
        spacing = twoslit.fringe_spacing(GEOMETRY)
        for ratio in [i / 10.0 for i in range(1, 11)]:
            counts.clear()
            twoslit.smeared_visibility(GEOMETRY, ratio * spacing, 16384)
            assert 0 < sum(counts) <= 16384 // 4, ratio

    def test_no_smear_convolves_nothing(self, monkeypatch):
        counts = convolved_outputs(monkeypatch)
        profile = twoslit.pattern(GEOMETRY, 0.0)
        assert twoslit.smeared_visibility(GEOMETRY, 0.0) == twoslit.visibility(profile)
        assert counts == []

    def test_rejects_what_pattern_rejects(self):
        with pytest.raises(DomainError):
            twoslit.smeared_visibility(GEOMETRY, -0.1)
        with pytest.raises(ResolutionError):
            twoslit.smeared_visibility(GEOMETRY, 1.0, grid=32)
