"""Field-measurement floor and energy-time inequality arithmetic."""

import math

import numpy as np
import pytest

from paradoxlab import bounds
from paradoxlab.errors import DomainError


class TestLandauPeierls:
    def test_natural_unit_values(self):
        assert bounds.landau_peierls_min(1.0) == 1.0
        assert bounds.landau_peierls_min(2.0) == 0.25

    def test_monotone_decreasing_to_zero(self):
        durations = np.geomspace(0.01, 1e6, 60)
        values = [bounds.landau_peierls_min(float(t)) for t in durations]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-11

    def test_loglog_slope_is_minus_two(self):
        durations = np.geomspace(0.1, 1000.0, 25)
        values = [bounds.landau_peierls_min(float(t)) for t in durations]
        slope = np.polyfit(np.log(durations), np.log(values), 1)[0]
        assert abs(slope + 2.0) <= 1e-9

    def test_nonpositive_duration(self):
        with pytest.raises(DomainError):
            bounds.landau_peierls_min(0.0)
        with pytest.raises(DomainError):
            bounds.landau_peierls_min(-1.0)


class TestLandauPeierlsFloors:
    def test_equals_the_scalar_bit_for_bit(self):
        durations = np.geomspace(0.1, 100.0, 100_000)
        floors = bounds.landau_peierls_floors(durations)
        scalar = np.array([bounds.landau_peierls_min(t) for t in durations.tolist()])
        assert floors.dtype == np.float64
        np.testing.assert_array_equal(floors.view(np.uint64), scalar.view(np.uint64))

    def test_empty(self):
        assert bounds.landau_peierls_floors(np.array([])).shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_first_bad_duration_raises_like_the_scalar(self, bad):
        with pytest.raises(DomainError) as expected:
            bounds.landau_peierls_min(bad)
        with pytest.raises(DomainError) as got:
            bounds.landau_peierls_floors(np.array([1.0, bad, -5.0]))
        assert str(got.value) == str(expected.value)


class TestEnergyTimeProduct:
    def test_zeno_schedule_products(self):
        # delta_E = 2*mu*B = 2, delta_t = T/N with T = pi/2
        duration = math.pi / 2.0
        one = bounds.energy_time_product(2.0, duration / 1)
        assert one.product == pytest.approx(math.pi, abs=1e-15)
        assert one.satisfied and not one.apparent_violation

        ten = bounds.energy_time_product(2.0, duration / 10)
        assert ten.product == pytest.approx(math.pi / 10.0, abs=1e-15)
        assert not ten.satisfied and ten.apparent_violation
        assert ten.threshold == 0.5

    def test_zero_uncertainty(self):
        report = bounds.energy_time_product(0.0, 5.0)
        assert report.product == 0.0
        assert not report.satisfied

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bounds.energy_time_product(-1.0, 1.0)
        with pytest.raises(DomainError):
            bounds.energy_time_product(1.0, -1.0)

    def test_scale_exchange_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            delta_e, delta_t = rng.uniform(0.1, 10.0, size=2)
            scale = rng.uniform(0.1, 10.0)
            base = bounds.energy_time_product(delta_e, delta_t)
            swapped = bounds.energy_time_product(delta_e * scale, delta_t / scale)
            assert abs(base.product - swapped.product) <= 1e-12 * max(1.0, base.product)
