"""Premeasurement chains: couplings, superposition of evolutions, Born counts."""

import math

import numpy as np
import pytest

from paradoxlab import catlab
from paradoxlab.errors import DimensionError, DomainError

ALPHA_GRID = [
    (1.0, 0.0),
    (0.6, 0.8),
    (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    (0.8, -0.6j),
    (0.28, math.sqrt(1.0 - 0.28**2)),
]


def expected_chain_vector(alpha, beta, n_devices):
    """alpha |up>|fired...> + beta |down>|ready...>, built by direct indexing."""
    vec = np.zeros(2 ** (n_devices + 1), dtype=complex)
    vec[(1 << n_devices) - 1] = alpha  # atom 0, every pointer flipped to 1
    vec[1 << n_devices] = beta  # atom 1, every pointer still 0
    return vec


class TestPremeasurementUnitary:
    @pytest.mark.parametrize("n_systems", [2, 3, 4])
    def test_up_branch_fires_every_pointer(self, n_systems):
        coupling = catlab.premeasurement_unitary(n_systems)
        n_pointers = n_systems - 1
        source = np.zeros(2**n_systems, dtype=complex)
        source[0] = 1.0  # |up> x |ready...>
        target = coupling.entries @ source
        expected = np.zeros_like(source)
        expected[(1 << n_pointers) - 1] = 1.0  # |up> x |fired...>
        np.testing.assert_array_equal(target, expected)

    @pytest.mark.parametrize("n_systems", [2, 3, 4])
    def test_down_branch_untouched(self, n_systems):
        coupling = catlab.premeasurement_unitary(n_systems)
        n_pointers = n_systems - 1
        source = np.zeros(2**n_systems, dtype=complex)
        source[1 << n_pointers] = 1.0  # |down> x |ready...>
        np.testing.assert_array_equal(coupling.entries @ source, source)

    def test_atom_eigenstates_unchanged(self):
        # the coupling must commute with the measured observable on the atom
        coupling = catlab.premeasurement_unitary(2).entries
        sz_full = np.kron(np.diag([1.0, -1.0]), np.eye(2))
        np.testing.assert_allclose(
            coupling @ sz_full, sz_full @ coupling, atol=1e-14
        )

    def test_unitary(self):
        for n_systems in (2, 3, 4):
            coupling = catlab.premeasurement_unitary(n_systems)
            product = coupling.entries @ coupling.entries.conj().T
            np.testing.assert_allclose(product, np.eye(2**n_systems), atol=1e-12)

    def test_system_count_bounds(self):
        with pytest.raises(DimensionError):
            catlab.premeasurement_unitary(1)
        with pytest.raises(DimensionError):
            catlab.premeasurement_unitary(5)


class TestRunChain:
    def test_pure_up_stays_product(self):
        result = catlab.run_chain(catlab.ChainConfig(1.0, 0.0))
        assert result.atom_entropy_bits == pytest.approx(0.0, abs=1e-12)
        assert result.global_purity == pytest.approx(1.0, abs=1e-12)
        assert not catlab.no_collapse_witness(result)

    @pytest.mark.parametrize("alpha,beta", ALPHA_GRID)
    @pytest.mark.parametrize("n_devices", [1, 2, 3])
    def test_superposition_of_evolutions(self, alpha, beta, n_devices):
        result = catlab.run_chain(catlab.ChainConfig(alpha, beta, n_devices=n_devices))
        expected = expected_chain_vector(alpha, beta, n_devices)
        overlap = abs(np.vdot(expected, result.final_state.amplitudes))
        assert abs(overlap - 1.0) <= 1e-12
        assert result.global_purity == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            result.reduced_atom.entries,
            np.diag([abs(alpha) ** 2, abs(beta) ** 2]),
            atol=1e-12,
        )

    def test_balanced_superposition_diagnostics(self):
        inv = 1.0 / math.sqrt(2.0)
        result = catlab.run_chain(catlab.ChainConfig(inv, inv, n_devices=1))
        assert result.atom_entropy_bits == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            result.reduced_atom.entries, np.eye(2) / 2.0, atol=1e-12
        )

    def test_skewed_entropy_frozen_value(self):
        result = catlab.run_chain(catlab.ChainConfig(0.6, 0.8))
        assert result.branch_weights == pytest.approx((0.36, 0.64), abs=1e-15)
        assert result.atom_entropy_bits == pytest.approx(0.9426831892554922, abs=1e-12)

    def test_linearity_of_evolution(self):
        # evolving the superposition equals superposing the evolved branches
        alpha, beta = 0.48 + 0.36j, 0.8
        coupling = catlab.premeasurement_unitary(2).entries
        up_branch = np.zeros(4, dtype=complex)
        up_branch[0] = 1.0
        down_branch = np.zeros(4, dtype=complex)
        down_branch[2] = 1.0
        superposed = catlab.run_chain(
            catlab.ChainConfig(alpha, beta)
        ).final_state.amplitudes
        by_branches = alpha * (coupling @ up_branch) + beta * (coupling @ down_branch)
        np.testing.assert_allclose(superposed, by_branches, atol=1e-12)

    def test_more_devices_cannot_collapse(self):
        entropies = []
        for n_devices in (1, 2, 3):
            result = catlab.run_chain(
                catlab.ChainConfig(0.6, 0.8, n_devices=n_devices)
            )
            entropies.append(result.atom_entropy_bits)
            assert catlab.no_collapse_witness(result)
        assert entropies[0] <= entropies[1] + 1e-12
        assert entropies[1] <= entropies[2] + 1e-12
        assert max(entropies) - min(entropies) <= 1e-12

    def test_incomplete_measurement_geometry(self):
        # the final state never coincides with a single product branch
        alpha, beta = 0.6, 0.8
        result = catlab.run_chain(catlab.ChainConfig(alpha, beta, n_devices=1))
        up_product = expected_chain_vector(1.0, 0.0, 1)
        down_product = expected_chain_vector(0.0, 1.0, 1)
        amps = result.final_state.amplitudes
        assert abs(np.vdot(up_product, amps)) == pytest.approx(alpha, abs=1e-12)
        assert abs(np.vdot(down_product, amps)) == pytest.approx(beta, abs=1e-12)


class TestBornStatistics:
    def test_balanced(self):
        cfg = catlab.ChainConfig(
            1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), trials=100000, seed=3
        )
        stats = catlab.born_statistics(cfg)
        assert abs(stats.f_up - 0.5) <= 3.0 * stats.stderr
        assert stats.f_up + stats.f_down == pytest.approx(1.0, abs=1e-15)

    def test_certain_branch_is_exact(self):
        stats = catlab.born_statistics(catlab.ChainConfig(1.0, 0.0, trials=5000))
        assert stats.f_up == 1.0
        assert stats.stderr == 0.0

    def test_skewed_weights(self):
        cfg = catlab.ChainConfig(0.6, 0.8, trials=100000, seed=11)
        stats = catlab.born_statistics(cfg)
        assert abs(stats.f_up - 0.36) <= 3.0 * stats.stderr

    def test_result_embedding(self):
        result = catlab.run_chain(catlab.ChainConfig(0.6, 0.8, trials=2000, seed=5))
        assert result.born_frequencies is not None
        assert result.born_frequencies.f_up == pytest.approx(0.36, abs=0.05)
        no_trials = catlab.run_chain(catlab.ChainConfig(0.6, 0.8))
        assert no_trials.born_frequencies is None

    def test_requires_trials(self):
        with pytest.raises(DomainError):
            catlab.born_statistics(catlab.ChainConfig(0.6, 0.8, trials=0))


class TestConfigValidation:
    def test_normalization_enforced(self):
        with pytest.raises(DomainError):
            catlab.ChainConfig(1.0, 1.0)

    @pytest.mark.parametrize("alpha", [math.nan, complex(0.0, math.nan)])
    def test_nan_amplitude_rejected(self, alpha):
        with pytest.raises(DomainError):
            catlab.ChainConfig(alpha, 1.0)
        with pytest.raises(DomainError):
            catlab.ChainConfig(1.0, alpha)

    def test_device_count_cap(self):
        with pytest.raises(DimensionError):
            catlab.ChainConfig(1.0, 0.0, n_devices=4)
        with pytest.raises(DimensionError):
            catlab.ChainConfig(1.0, 0.0, n_devices=0)

    def test_negative_trials(self):
        with pytest.raises(DomainError):
            catlab.ChainConfig(1.0, 0.0, trials=-1)
