"""Core quantum mechanics: states, evolution, measurement, density matrices."""

import math

import numpy as np
import pytest

from paradoxlab import bell, qcore
from paradoxlab.errors import (
    DimensionError,
    DirectionError,
    HermiticityError,
    NumericalError,
    UnitarityError,
    ZeroNormError,
)
from paradoxlab.rng import SeededStream

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_hermitian(rng, dim, scale=1.0):
    raw = rng.normal(size=(dim, dim), scale=scale) + 1j * rng.normal(
        size=(dim, dim), scale=scale
    )
    return (raw + raw.conj().T) / 2.0


def random_state(rng, dims):
    size = math.prod(dims)
    raw = rng.normal(size=size) + 1j * rng.normal(size=size)
    return qcore.make_state(dims, raw)


def expm_series(mat, terms=30):
    """Independent matrix exponential: scaled Taylor series, then squaring."""
    norm = np.linalg.norm(mat)
    squarings = 0
    if norm > 0.5:
        squarings = int(math.ceil(math.log2(norm / 0.5)))
    small = mat / 2.0**squarings
    acc = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ small / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


class TestMakeState:
    def test_normalizes(self):
        state = qcore.make_state((2,), (1.0, 1.0))
        np.testing.assert_allclose(
            state.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15
        )

    def test_identity_case(self):
        state = qcore.make_state((2,), (1.0, 0.0))
        np.testing.assert_array_equal(state.amplitudes, [1.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(ZeroNormError):
            qcore.make_state((2,), (0.0, 0.0))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            qcore.make_state((2, 2), (1.0, 0.0))

    def test_direct_construction_requires_unit_norm(self):
        with pytest.raises(NumericalError):
            qcore.StateVector((2,), np.array([1.0, 1.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            qcore.make_state((2,), (float("nan"), 1.0))


class TestTensor:
    def test_basis_product(self):
        up = qcore.make_state((2,), (1.0, 0.0))
        down = qcore.make_state((2,), (0.0, 1.0))
        product = qcore.tensor(up, down)
        assert product.dims == (2, 2)
        np.testing.assert_array_equal(product.amplitudes, [0.0, 1.0, 0.0, 0.0])

    def test_distributes(self):
        plus = qcore.make_state((2,), (1.0, 1.0))
        up = qcore.make_state((2,), (1.0, 0.0))
        product = qcore.tensor(plus, up)
        np.testing.assert_allclose(
            product.amplitudes, [INV_SQRT2, 0.0, INV_SQRT2, 0.0], atol=1e-15
        )

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            product = qcore.tensor(random_state(rng, (2,)), random_state(rng, (2, 2)))
            assert abs(np.linalg.norm(product.amplitudes) - 1.0) < 1e-12


class TestSpinObservable:
    def test_z_axis(self):
        op = qcore.spin_observable(qcore.SpinDirection(0.0, 0.0, 1.0))
        np.testing.assert_array_equal(op.entries, [[1.0, 0.0], [0.0, -1.0]])
        assert op.hermitian

    def test_x_axis(self):
        op = qcore.spin_observable(qcore.SpinDirection(1.0, 0.0, 0.0))
        np.testing.assert_array_equal(op.entries, [[0.0, 1.0], [1.0, 0.0]])

    def test_squares_to_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            op = qcore.spin_observable(qcore.SpinDirection(*v))
            np.testing.assert_allclose(op.entries @ op.entries, np.eye(2), atol=1e-12)

    def test_non_unit_direction(self):
        with pytest.raises(DirectionError):
            qcore.SpinDirection(1.0, 1.0, 0.0)


class TestEvolveSpin:
    def test_matches_phase_formula(self):
        state = qcore.make_state((2,), (1.0, 1.0))
        B, t = 1.3, 0.7
        evolved = qcore.evolve_spin(state, B, t)
        phase = B * t
        expected = np.array([np.exp(-1j * phase), np.exp(1j * phase)]) * INV_SQRT2
        np.testing.assert_allclose(evolved.amplitudes, expected, atol=1e-15)

    def test_zero_time_identity(self):
        state = qcore.make_state((2,), (0.3, 0.7j))
        evolved = qcore.evolve_spin(state, 2.0, 0.0)
        np.testing.assert_array_equal(evolved.amplitudes, state.amplitudes)

    def test_quarter_period_reaches_minus_x(self):
        state = qcore.make_state((2,), (1.0, 1.0))
        quarter = math.pi / 2.0
        evolved = qcore.evolve_spin(state, 1.0, quarter)
        minus_x = qcore.make_state((2,), (1.0, -1.0))
        assert abs(abs(np.vdot(minus_x.amplitudes, evolved.amplitudes)) - 1.0) < 1e-12

    def test_requires_qubit(self):
        with pytest.raises(DimensionError):
            qcore.evolve_spin(qcore.make_state((2, 2), (1, 0, 0, 0)), 1.0, 1.0)


class TestUnitaryExp:
    def test_precession_hamiltonian(self):
        H = qcore.Operator(qcore.PAULI_Z.copy(), hermitian=True)
        t = 0.9
        U = qcore.unitary_exp(H, t)
        expected = np.diag([np.exp(-1j * t), np.exp(1j * t)])
        np.testing.assert_allclose(U.entries, expected, atol=1e-14)

    @pytest.mark.parametrize("a", [0.7, 0.0, -2.0, 1e-12])
    def test_degenerate_2x2_is_a_phase(self, a):
        for H in (a * np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)):
            for t in (0.9, -3.0, 1e4):
                U = qcore.unitary_exp(qcore.Operator(H, hermitian=True), t)
                expected = np.exp(-1j * H[0, 0].real * t) * np.eye(2)
                np.testing.assert_allclose(U.entries, expected, rtol=0, atol=1e-14)

    def test_zero_time(self):
        rng = np.random.default_rng(3)
        H = qcore.Operator(random_hermitian(rng, 4), hermitian=True)
        np.testing.assert_allclose(
            qcore.unitary_exp(H, 0.0).entries, np.eye(4), atol=1e-14
        )

    def test_analytic_2x2_matches_series_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            H = random_hermitian(rng, 2)
            scale = max(np.linalg.norm(H, 2), 1e-6)
            t = rng.uniform(-10.0, 10.0) / scale
            U = qcore.unitary_exp(qcore.Operator(H, hermitian=True), t)
            oracle = expm_series(-1j * H * t)
            assert np.max(np.abs(U.entries - oracle)) <= 1e-10

    def test_eigendecomposition_path_matches_series_oracle(self):
        rng = np.random.default_rng(13)
        for dim in (3, 4, 8, 16):
            for _ in range(25):
                H = random_hermitian(rng, dim)
                t = rng.uniform(-2.0, 2.0)
                U = qcore.unitary_exp(qcore.Operator(H, hermitian=True), t)
                oracle = expm_series(-1j * H * t)
                assert np.max(np.abs(U.entries - oracle)) <= 1e-10

    def test_composition(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            dim = rng.choice([2, 3, 5])
            H = qcore.Operator(random_hermitian(rng, dim), hermitian=True)
            t1, t2 = rng.uniform(-2.0, 2.0, size=2)
            whole = qcore.unitary_exp(H, t1 + t2).entries
            parts = qcore.unitary_exp(H, t1).entries @ qcore.unitary_exp(H, t2).entries
            assert np.max(np.abs(whole - parts)) <= 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            dim = int(rng.choice([2, 3, 4, 8]))
            H = qcore.Operator(random_hermitian(rng, dim), hermitian=True)
            state = random_state(rng, (dim,))
            evolved = qcore.apply(qcore.unitary_exp(H, rng.uniform(-3, 3)), state)
            assert abs(np.linalg.norm(evolved.amplitudes) - 1.0) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            qcore.unitary_exp(qcore.Operator(np.array([[0.0, 1.0], [0.0, 0.0]])), 1.0)

    def test_dimension_cap(self):
        big = qcore.Operator(np.eye(32, dtype=complex), hermitian=True)
        with pytest.raises(DimensionError):
            qcore.unitary_exp(big, 1.0)


class TestExpectation:
    def test_eigenstate(self):
        up = qcore.make_state((2,), (1.0, 0.0))
        sz = qcore.spin_observable(qcore.SpinDirection(0.0, 0.0, 1.0))
        assert qcore.expectation(up, sz) == pytest.approx(1.0, abs=1e-14)

    def test_precessing_spin_x_component(self):
        # <sx> after evolving (|up>+|down>)/sqrt(2) equals cos(2*mu*B*t/hbar)
        sx = qcore.spin_observable(qcore.SpinDirection(1.0, 0.0, 0.0))
        plus = qcore.make_state((2,), (1.0, 1.0))
        quarter = math.pi / 2.0
        for fraction, expected in ((1.0, -1.0), (0.5, 0.0), (0.25, math.cos(math.pi / 4))):
            evolved = qcore.evolve_spin(plus, 1.0, fraction * quarter)
            assert qcore.expectation(evolved, sx) == pytest.approx(expected, abs=1e-12)

    def test_rejects_non_hermitian(self):
        state = qcore.make_state((2,), (1.0, 0.0))
        with pytest.raises(HermiticityError):
            qcore.expectation(state, qcore.Operator(np.array([[0.0, 1.0], [0.0, 0.0]])))


class TestOperatorFlags:
    def test_hermitian_flag_checked(self):
        with pytest.raises(HermiticityError):
            qcore.Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)

    def test_unitary_flag_checked(self):
        with pytest.raises(UnitarityError):
            qcore.Operator(np.array([[1.0, 0.0], [0.0, 2.0]]), unitary=True)

    @pytest.mark.parametrize(
        "bad", [complex(1.0, math.inf), complex(0.0, math.nan)], ids=["1+infj", "nanj"]
    )
    def test_nonfinite_imaginary_part_rejected(self, bad):
        with pytest.raises(NumericalError, match="amplitudes must be finite"):
            qcore.make_state((2,), (bad, 1.0))
        with pytest.raises(NumericalError, match="amplitudes must be finite"):
            qcore.StateVector((2,), np.array([bad, 0.0]))
        with pytest.raises(NumericalError, match="entries must be finite"):
            qcore.Operator(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_unflagged_hermitian_operators_work_in_each_consumer(self):
        sy = qcore.spin_observable(qcore.SpinDirection(0.0, 1.0, 0.0))
        unflagged = qcore.Operator(sy.entries)
        state = qcore.make_state((2,), (0.6, 0.8j))
        assert qcore.expectation(state, unflagged) == qcore.expectation(state, sy)
        for (w1, p1), (w2, p2) in zip(
            qcore.eigen_projectors(unflagged), qcore.eigen_projectors(sy)
        ):
            assert w1 == w2
            np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(
            qcore.unitary_exp(unflagged, 0.7).entries, qcore.unitary_exp(sy, 0.7).entries
        )
        with pytest.raises(HermiticityError):
            qcore.eigen_projectors(qcore.Operator(np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_flagged_operators_are_checked_once(self, monkeypatch):
        calls = []
        check = qcore._check_hermitian

        def counting(mat, what="operator"):
            calls.append(what)
            check(mat, what)

        monkeypatch.setattr(qcore, "_check_hermitian", counting)
        a, b = bell.MeasurementSetting(0.0), bell.MeasurementSetting(math.pi / 4.0)
        bell.correlation(bell.singlet(), a, b)
        # the two spin observables and their product, each where it is made
        assert calls == ["operator flagged hermitian"] * 3


class TestMeasure:
    def test_born_rule_frequencies(self):
        state = qcore.make_state((2,), (0.6, 0.8))
        sz = qcore.spin_observable(qcore.SpinDirection(0.0, 0.0, 1.0))
        rng = SeededStream(19)
        trials = 20000
        ups = sum(qcore.measure(state, sz, rng)[0] > 0 for _ in range(trials))
        f_up = ups / trials
        stderr = math.sqrt(0.36 * 0.64 / trials)
        assert abs(f_up - 0.36) <= 3.0 * stderr

    def test_eigenstate_certain(self):
        up = qcore.make_state((2,), (1.0, 0.0))
        sz = qcore.spin_observable(qcore.SpinDirection(0.0, 0.0, 1.0))
        rng = SeededStream(23)
        for _ in range(100):
            value, post = qcore.measure(up, sz, rng)
            assert value == 1.0
            np.testing.assert_array_equal(post.amplitudes, up.amplitudes)

    def test_repeatability(self):
        rng = SeededStream(29)
        numpy_rng = np.random.default_rng(5)
        sx = qcore.spin_observable(qcore.SpinDirection(1.0, 0.0, 0.0))
        for _ in range(10000):
            state = random_state(numpy_rng, (2,))
            first, post = qcore.measure(state, sx, rng)
            second, _ = qcore.measure(post, sx, rng)
            assert first == second

    def test_degenerate_spectrum_shares_projector(self):
        state = qcore.make_state((2,), (0.6, 0.8j))
        rng = SeededStream(31)
        value, post = qcore.measure(state, qcore.Operator(np.eye(2), hermitian=True), rng)
        assert value == pytest.approx(1.0)
        np.testing.assert_allclose(post.amplitudes, state.amplitudes, atol=1e-15)

    def test_born_completeness(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            dim = int(rng.choice([2, 3, 4]))
            state = random_state(rng, (dim,))
            obs = qcore.Operator(random_hermitian(rng, dim), hermitian=True)
            pairs = qcore.born_probabilities(state, qcore.eigen_projectors(obs))
            assert abs(sum(p for _, p in pairs) - 1.0) <= 1e-12


class TestDensityMatrix:
    def test_product_state_reduction_is_pure(self):
        state = qcore.tensor(
            qcore.make_state((2,), (0.6, 0.8)), qcore.make_state((2,), (1.0, 1.0))
        )
        reduced = qcore.partial_trace(qcore.density(state), state.dims, keep=(0,))
        assert qcore.purity(reduced) == pytest.approx(1.0, abs=1e-12)

    def test_entangled_reduction_by_hand(self):
        # alpha |up>|fired> + beta |down>|ready>, pointers orthonormal
        alpha, beta = 0.6, 0.8
        psi = np.array([0.0, alpha, beta, 0.0], dtype=complex)
        by_hand = np.outer(psi, psi.conj())
        # trace the device qubit by summing its diagonal 2x2 blocks
        expected = np.array(
            [
                [by_hand[0, 0] + by_hand[1, 1], by_hand[0, 2] + by_hand[1, 3]],
                [by_hand[2, 0] + by_hand[3, 1], by_hand[2, 2] + by_hand[3, 3]],
            ]
        )
        state = qcore.make_state((2, 2), psi)
        reduced = qcore.partial_trace(qcore.density(state), (2, 2), keep=(0,))
        np.testing.assert_allclose(reduced.entries, expected, atol=1e-14)
        np.testing.assert_allclose(
            reduced.entries, np.diag([alpha**2, beta**2]), atol=1e-14
        )

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            state = random_state(rng, (2, 2, 2))
            keep = sorted(rng.choice(3, size=int(rng.integers(1, 3)), replace=False))
            reduced = qcore.partial_trace(qcore.density(state), state.dims, keep)
            assert abs(np.trace(reduced.entries).real - 1.0) <= 1e-12

    def test_partial_trace_expectation_consistency(self):
        rng = np.random.default_rng(53)
        sx = qcore.spin_observable(qcore.SpinDirection(1.0, 0.0, 0.0))
        for _ in range(200):
            state = random_state(rng, (2, 2))
            reduced = qcore.partial_trace(qcore.density(state), (2, 2), keep=(0,))
            via_reduced = np.trace(reduced.entries @ sx.entries).real
            full_obs = qcore.Operator(np.kron(sx.entries, np.eye(2)), hermitian=True)
            via_full = qcore.expectation(state, full_obs)
            assert abs(via_reduced - via_full) <= 1e-12

    def test_bad_subsystem_index(self):
        state = qcore.make_state((2, 2), (1, 0, 0, 0))
        with pytest.raises(DimensionError):
            qcore.partial_trace(qcore.density(state), (2, 2), keep=(2,))

    def test_purity_and_entropy(self):
        pure = qcore.density(qcore.make_state((2,), (1.0, 0.0)))
        assert qcore.purity(pure) == pytest.approx(1.0, abs=1e-12)
        assert qcore.entropy_bits(pure) == pytest.approx(0.0, abs=1e-12)

        mixed = qcore.DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        assert qcore.purity(mixed) == pytest.approx(0.5, abs=1e-12)
        assert qcore.entropy_bits(mixed) == pytest.approx(1.0, abs=1e-12)

    def test_entropy_frozen_value(self):
        # -0.36*log2(0.36) - 0.64*log2(0.64), evaluated independently
        skewed = qcore.DensityMatrix(np.diag([0.36, 0.64]).astype(complex))
        assert qcore.entropy_bits(skewed) == pytest.approx(
            0.9426831892554922, abs=1e-12
        )

    def test_invariants_enforced(self):
        with pytest.raises(NumericalError):
            qcore.DensityMatrix(np.diag([0.7, 0.7]).astype(complex))
        with pytest.raises(HermiticityError):
            qcore.DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_entries_rejected(self, bad):
        # NaN passes every "> tol" comparison, so it must be caught up front
        entries = np.diag([0.5, 0.5]).astype(complex)
        entries[0, 1] = entries[1, 0] = bad
        with pytest.raises(NumericalError, match="finite"):
            qcore.DensityMatrix(entries)
        with pytest.raises(NumericalError, match="finite"):
            qcore.DensityMatrix(np.full((2, 2), bad, dtype=complex))


class TestNormDrift:
    def test_thousand_composed_evolutions(self):
        rng = np.random.default_rng(59)
        state = random_state(rng, (2,))
        for _ in range(1000):
            H = qcore.Operator(random_hermitian(rng, 2), hermitian=True)
            state = qcore.apply(qcore.unitary_exp(H, rng.uniform(-1, 1)), state)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
