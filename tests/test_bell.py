"""Singlet correlations, CHSH statistics, and the local deterministic bound."""

import math
from itertools import product

import numpy as np
import pytest

from paradoxlab import bell, qcore
from paradoxlab.errors import DomainError, NumericalError
from paradoxlab.rng import SeededStream

SQRT2 = math.sqrt(2.0)


def pauli_axis(angle):
    return np.array(
        [[0.0, math.cos(angle) - 1j * math.sin(angle)],
         [math.cos(angle) + 1j * math.sin(angle), 0.0]]
    )


def correlation_oracle(state, angle_a, angle_b):
    """Direct 4-dim matrix arithmetic, independent of the library path."""
    observable = np.kron(pauli_axis(angle_a), pauli_axis(angle_b))
    psi = state.amplitudes
    return float(np.vdot(psi, observable @ psi).real)


def random_two_qubit(rng):
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    return qcore.make_state((2, 2), raw)


def random_product_state(rng):
    one = qcore.make_state((2,), rng.normal(size=2) + 1j * rng.normal(size=2))
    two = qcore.make_state((2,), rng.normal(size=2) + 1j * rng.normal(size=2))
    return qcore.tensor(one, two)


def exact_chsh(state, a, ap, b, bp):
    s = bell.ChshSettings.from_angles(a, ap, b, bp)
    return (
        bell.correlation(state, s.a, s.b)
        + bell.correlation(state, s.a_prime, s.b)
        + bell.correlation(state, s.a_prime, s.b_prime)
        - bell.correlation(state, s.a, s.b_prime)
    )


class TestSinglet:
    def test_maximally_mixed_margins(self):
        state = bell.singlet()
        for wing in (0, 1):
            reduced = bell.qcore.partial_trace(
                qcore.density(state), state.dims, keep=(wing,)
            )
            np.testing.assert_allclose(reduced.entries, np.eye(2) / 2.0, atol=1e-14)
            assert qcore.entropy_bits(reduced) == pytest.approx(1.0, abs=1e-12)

    def test_globally_pure(self):
        assert qcore.purity(qcore.density(bell.singlet())) == pytest.approx(
            1.0, abs=1e-12
        )


class TestCorrelation:
    def test_aligned_settings_anticorrelate(self):
        state = bell.singlet()
        for angle in (0.0, 0.4, math.pi / 3):
            setting = bell.MeasurementSetting(angle)
            assert bell.correlation(state, setting, setting) == pytest.approx(
                -1.0, abs=1e-12
            )

    def test_cosine_law_against_matrix_oracle(self):
        state = bell.singlet()
        rng = np.random.default_rng(3)
        for _ in range(100):
            angle_a, angle_b = rng.uniform(-math.pi, math.pi, size=2)
            value = bell.correlation(
                state, bell.MeasurementSetting(angle_a), bell.MeasurementSetting(angle_b)
            )
            assert value == pytest.approx(correlation_oracle(state, angle_a, angle_b), abs=1e-12)
            assert value == pytest.approx(-math.cos(angle_a - angle_b), abs=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            wing_a = qcore.make_state((2,), rng.normal(size=2) + 1j * rng.normal(size=2))
            wing_b = qcore.make_state((2,), rng.normal(size=2) + 1j * rng.normal(size=2))
            state = qcore.tensor(wing_a, wing_b)
            angle_a, angle_b = rng.uniform(-math.pi, math.pi, size=2)
            joint = bell.correlation(
                state, bell.MeasurementSetting(angle_a), bell.MeasurementSetting(angle_b)
            )
            expect_a = qcore.expectation(
                wing_a, qcore.spin_observable(qcore.xy_axis(angle_a))
            )
            expect_b = qcore.expectation(
                wing_b, qcore.spin_observable(qcore.xy_axis(angle_b))
            )
            assert joint == pytest.approx(expect_a * expect_b, abs=1e-12)


class TestSamplePair:
    def test_aligned_outcomes_always_opposite(self):
        state = bell.singlet()
        setting = bell.MeasurementSetting(0.7)
        rng = SeededStream(11)
        for _ in range(500):
            out_a, out_b = bell.sample_pair(state, setting, setting, rng)
            assert out_a == -out_b

    def test_marginal_is_balanced(self):
        state = bell.singlet()
        rng = SeededStream(13)
        a = bell.MeasurementSetting(1.1)
        b = bell.MeasurementSetting(-0.4)
        trials = 4000
        ups = sum(bell.sample_pair(state, a, b, rng)[0] > 0 for _ in range(trials))
        stderr = math.sqrt(0.25 / trials)
        assert abs(ups / trials - 0.5) <= 3.0 * stderr

    def test_measurement_order_irrelevant_exactly(self):
        state = bell.singlet()
        a = bell.MeasurementSetting(0.3)
        b = bell.MeasurementSetting(1.9)
        forward = bell.joint_probabilities(state, a, b)
        # measure wing B first by relabeling the wings on the swapped state
        swapped = qcore.make_state(
            (2, 2), state.amplitudes.reshape(2, 2).T.reshape(4)
        )
        backward = bell.joint_probabilities(swapped, b, a)
        for out_a, out_b in forward:
            assert forward[(out_a, out_b)] == pytest.approx(
                backward[(out_b, out_a)], abs=1e-12
            )

    def test_sampler_matches_joint_distribution(self):
        state = bell.singlet()
        a = bell.MeasurementSetting(0.0)
        b = bell.MeasurementSetting(math.pi / 4)
        trials = 100000
        counts = bell._sample_counts(state, a, b, SeededStream(17), trials, first=0)
        joint = bell.joint_probabilities(state, a, b)
        chi2 = sum(
            (counts[key] - joint[key] * trials) ** 2 / (joint[key] * trials)
            for key in joint
        )
        assert chi2 < 16.27  # chi-square 0.999 quantile, 3 degrees of freedom


class TestChsh:
    def test_tsirelson_value_at_optimal_settings(self):
        result = bell.chsh(
            bell.singlet(), bell.ChshSettings.optimal(), 20000, SeededStream(19)
        )
        assert result.exact_s == pytest.approx(-2.0 * SQRT2, abs=1e-12)
        assert abs(result.estimated_s - result.exact_s) <= 3.0 * result.stderr
        assert result.exact_correlations == pytest.approx(
            (-SQRT2 / 2, -SQRT2 / 2, -SQRT2 / 2, SQRT2 / 2), abs=1e-12
        )

    def test_counts_cover_all_trials(self):
        trials = 8000
        result = bell.chsh(
            bell.singlet(), bell.ChshSettings.optimal(), trials, SeededStream(23)
        )
        for label in ("ab", "apb", "apbp", "abp"):
            assert sum(result.counts[label].values()) == trials // 4

    def test_estimator_converges(self):
        state = bell.singlet()
        settings = bell.ChshSettings.optimal()
        errors = {}
        for trials in (1000, 10000, 100000):
            result = bell.chsh(state, settings, trials, SeededStream(29))
            assert abs(result.estimated_s - result.exact_s) <= 3.0 * result.stderr
            errors[trials] = result.stderr
        assert errors[1000] / errors[10000] == pytest.approx(math.sqrt(10), rel=0.15)
        assert errors[10000] / errors[100000] == pytest.approx(math.sqrt(10), rel=0.15)

    def test_product_states_stay_classical(self):
        rng = np.random.default_rng(31)
        for _ in range(10000):
            state = random_product_state(rng)
            angles = rng.uniform(-math.pi, math.pi, size=4)
            assert abs(exact_chsh(state, *angles)) <= 2.0 + 1e-9

    def test_tsirelson_sanity_over_random_states(self):
        rng = np.random.default_rng(37)
        for _ in range(10000):
            state = random_two_qubit(rng)
            angles = rng.uniform(-math.pi, math.pi, size=4)
            assert abs(exact_chsh(state, *angles)) <= 2.0 * SQRT2 + 1e-9

    def test_result_invariant_guard(self):
        with pytest.raises(NumericalError):
            bell.ChshResult(
                exact_s=3.0,
                estimated_s=0.0,
                stderr=0.0,
                exact_correlations=(0, 0, 0, 0),
                counts={},
            )

    def test_trials_validated(self):
        with pytest.raises(DomainError):
            bell.chsh(bell.singlet(), bell.ChshSettings.optimal(), 0, SeededStream(1))


class TestNoSignalling:
    def test_exact_marginals_independent_of_far_setting(self):
        state = bell.singlet()
        a = bell.MeasurementSetting(0.6)
        for other in (0.0, 1.0, 2.2):
            joint_one = bell.joint_probabilities(state, a, bell.MeasurementSetting(other))
            joint_two = bell.joint_probabilities(state, a, bell.MeasurementSetting(other + 0.9))
            for outcome in (-1, 1):
                marginal_one = joint_one[(outcome, -1)] + joint_one[(outcome, 1)]
                marginal_two = joint_two[(outcome, -1)] + joint_two[(outcome, 1)]
                assert abs(marginal_one - marginal_two) <= 1e-12

    def test_empirical_marginal_consistent(self):
        state = bell.singlet()
        a = bell.MeasurementSetting(0.6)
        trials = 100000
        counts_near = bell._sample_counts(
            state, a, bell.MeasurementSetting(0.0), SeededStream(41), trials, 0
        )
        counts_far = bell._sample_counts(
            state, a, bell.MeasurementSetting(2.0), SeededStream(43), trials, 0
        )
        up_near = counts_near[(1, -1)] + counts_near[(1, 1)]
        up_far = counts_far[(1, -1)] + counts_far[(1, 1)]
        stderr = math.sqrt(2 * trials * 0.25)
        assert abs(up_near - up_far) <= 4.0 * stderr


class TestLocalDeterministicBound:
    def test_bound_is_two(self):
        assert bell.local_deterministic_bound() == 2.0

    def test_every_assignment_reaches_exactly_two(self):
        magnitudes = set()
        for a1, a2, b1, b2 in product((-1, 1), repeat=4):
            magnitudes.add(abs(a1 * b1 + a2 * b1 + a2 * b2 - a1 * b2))
        assert magnitudes == {2}

    def test_shared_randomness_cannot_help(self):
        rng = np.random.default_rng(47)
        assignments = list(product((-1, 1), repeat=4))
        values = [a1 * b1 + a2 * b1 + a2 * b2 - a1 * b2 for a1, a2, b1, b2 in assignments]
        for _ in range(500):
            weights = rng.dirichlet(np.ones(16))
            assert abs(float(np.dot(weights, values))) <= 2.0 + 1e-12
