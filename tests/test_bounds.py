"""Field-measurement floor and energy-time inequality arithmetic."""

import math
import tracemalloc

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
        inputs = [
            np.geomspace(0.1, 100.0, 100_000),
            # the whole t_min..t_max range the cli accepts
            np.geomspace(1e-150, 1e150, 100_000),
            # the extreme durations whose squares are finite normal doubles
            np.array([2.0**-511, math.nextafter(2.0**512, 0.0)]),
        ]
        for durations in inputs:
            floors = bounds.landau_peierls_floors(durations)
            scalar = np.array([bounds.landau_peierls_min(t) for t in durations.tolist()])
            assert floors.dtype == np.float64
            np.testing.assert_array_equal(floors.view(np.uint64), scalar.view(np.uint64))

    def test_empty(self):
        assert bounds.landau_peierls_floors(np.array([])).shape == (0,)

    def test_peak_memory_is_the_output_array(self):
        # floors are made one Python float at a time: a list of just 16,384 of
        # the durations would hold 525 KB beyond the 1.6 MB output
        durations = np.geomspace(0.1, 100.0, 200_000)
        tracemalloc.start()
        try:
            floors = bounds.landau_peierls_floors(durations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= floors.nbytes + 64 * 1024

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_first_bad_duration_raises_like_the_scalar(self, bad):
        with pytest.raises(DomainError) as expected:
            bounds.landau_peierls_min(bad)
        # first, middle and last index, with a later bad duration where there is room
        for durations in ([bad, 1.0, -5.0], [1.0, bad, -5.0], [1.0, 2.0, bad]):
            with pytest.raises(DomainError) as got:
                bounds.landau_peierls_floors(np.array(durations))
            assert str(got.value) == str(expected.value)

    def test_squares_outside_the_normal_doubles_act_like_the_scalar(self):
        # 1e-160 squares to a subnormal, so 1.0 / T**2 overflows to inf
        assert bounds.landau_peierls_floors(np.array([1.0, 1e-160]))[1] == math.inf
        with pytest.raises(ZeroDivisionError):  # 1e-200 squares to 0.0
            bounds.landau_peierls_floors(np.array([1.0, 1e-200]))
        with pytest.raises(OverflowError):  # 1e200 squares past the largest double
            bounds.landau_peierls_floors(np.array([1.0, 1e200]))


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
