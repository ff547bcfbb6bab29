"""Fringe geometry, which-path threshold, and the washout chain."""

import math

import numpy as np
import pytest

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
