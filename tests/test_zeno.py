"""Zeno survival law, Monte Carlo agreement, and the dual experiment."""

import math
import tracemalloc

import numpy as np
import pytest

from paradoxlab import montecarlo, qcore, zeno
from paradoxlab.errors import DomainError
from paradoxlab.rng import SeededStream

# cos(pi/20)**20 evaluated independently with 50-digit arithmetic
SURVIVAL_N10 = 0.78054606978114017


def cfg_with(n, trials=1000, seed=101):
    return zeno.ZenoConfig(N=n, trials=trials, seed=seed)


def reference_branch_law(cfg, dual):
    """Per-step -1 probability along the all-+1 branch, simulated step by step.

    The surviving trajectory goes through the generic machinery: evolve for
    T/N (or turn the measurement axis by 2*mu*B*(T/N)/hbar), take the Born
    probabilities, collapse onto the +1 eigenspace, repeat N times.
    """
    dt = zeno.period(cfg) / cfg.N
    sx = qcore.eigen_projectors(qcore.spin_observable(qcore.SpinDirection(1.0, 0.0, 0.0)))
    p_minus = np.empty(cfg.N)
    state = qcore.make_state((2,), (1.0, 1.0))
    for step in range(cfg.N):
        if dual:
            t_k = (step + 1) * dt
            angle = 2.0 * cfg.B * t_k
            projectors = qcore.eigen_projectors(qcore.spin_observable(qcore.xy_axis(angle)))
        else:
            state = qcore.evolve_spin(state, cfg.B, dt)
            projectors = sx
        p_minus[step] = qcore.born_probabilities(state, projectors)[0][1]
        surviving = projectors[1][1] @ state.amplitudes
        state = qcore.StateVector((2,), surviving / np.linalg.norm(surviving))
    return p_minus


class TestAnalyticLaw:
    def test_default_duration_sets_quarter_period(self):
        cfg = zeno.ZenoConfig()
        assert zeno.period(cfg) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_landmark_values(self):
        assert zeno.survival_analytic(cfg_with(1)) == pytest.approx(0.0, abs=1e-12)
        assert zeno.survival_analytic(cfg_with(2)) == pytest.approx(0.25, abs=1e-12)
        assert zeno.survival_analytic(cfg_with(10)) == pytest.approx(
            SURVIVAL_N10, abs=1e-9
        )

    def test_freezing_limit(self):
        assert zeno.survival_analytic(cfg_with(10000)) >= 0.999

    def test_monotone_in_measurement_count(self):
        values = [zeno.survival_analytic(cfg_with(n)) for n in range(2, 1001)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_explicit_duration(self):
        cfg = zeno.ZenoConfig(B=2.0, T=0.3, N=4)
        expected = math.cos(2.0 * 0.3 / 4.0) ** 8
        assert zeno.survival_analytic(cfg) == pytest.approx(expected, abs=1e-15)


class TestRunZeno:
    def test_certain_flip_at_single_measurement(self):
        result = zeno.run_zeno(cfg_with(1, trials=5000))
        assert result.empirical_survival == 0.0
        assert abs(result.empirical_survival - result.analytic_survival) <= 1e-12

    def test_two_measurements_match_quarter(self):
        result = zeno.run_zeno(cfg_with(2, trials=50000))
        assert result.analytic_survival == pytest.approx(0.25, abs=1e-12)
        assert (
            abs(result.empirical_survival - 0.25) <= 3.0 * result.stderr
        )

    def test_per_step_probability(self):
        for n in (1, 2, 7):
            result = zeno.run_zeno(cfg_with(n, trials=10))
            expected = math.cos(math.pi / (2.0 * n)) ** 2
            assert result.per_step_probability == pytest.approx(expected, abs=1e-12)

    def test_jump_times_account_for_every_trial(self):
        result = zeno.run_zeno(cfg_with(5, trials=20000))
        survivors = round(result.empirical_survival * 20000)
        assert sum(result.jump_times) + survivors == 20000

    def test_matches_slow_projective_oracle(self):
        # replay the experiment through the generic measurement path
        n, trials = 3, 3000
        cfg = cfg_with(n, trials=trials, seed=7)
        dt = zeno.period(cfg) / n
        sx = qcore.spin_observable(qcore.SpinDirection(1.0, 0.0, 0.0))
        master = SeededStream(999)
        survived = 0
        for _ in range(trials):
            state = qcore.make_state((2,), (1.0, 1.0))
            outcomes = []
            for _ in range(n):
                state = qcore.evolve_spin(state, cfg.B, dt)
                value, state = qcore.measure(state, sx, master)
                outcomes.append(value)
            survived += all(v > 0 for v in outcomes)
        oracle = survived / trials
        fast = zeno.run_zeno(cfg)
        analytic = zeno.survival_analytic(cfg)
        oracle_err = math.sqrt(oracle * (1 - oracle) / trials)
        assert abs(oracle - analytic) <= 3.0 * oracle_err
        assert abs(fast.empirical_survival - analytic) <= 3.0 * fast.stderr

    def test_first_step_premeasurement_state_phases(self):
        # state just before the first measurement carries exp(-+ i*mu*B*T/(N*hbar))
        cfg = cfg_with(4)
        dt = zeno.period(cfg) / cfg.N
        pre = qcore.evolve_spin(qcore.make_state((2,), (1.0, 1.0)), cfg.B, dt)
        theta = cfg.B * dt
        explicit = np.array([np.exp(-1j * theta), np.exp(1j * theta)]) / math.sqrt(2.0)
        target = qcore.StateVector((2,), explicit)
        assert abs(abs(np.vdot(target.amplitudes, pre.amplitudes)) - 1.0) <= 1e-12


class TestChunking:
    def test_worker_memory_bounded_by_the_draw_budget(self):
        # one 500-trial chunk of 20000 draws would hold an 80 MB uniform block
        p_minus = zeno._step_probability(cfg_with(20000), dual=False)
        zeno._sample_survival(p_minus, 20000, 1, 3)  # loads numpy.random: once per process
        tracemalloc.start()
        try:
            zeno._sample_survival(p_minus, 20000, 500, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * montecarlo.DRAW_BUDGET

    @pytest.mark.parametrize(
        "p_minus, steps, trials, limit",
        [(0.01, 10, 100_000, 3 * 2**20), (1e-8, 20000, 500, 2 * 2**20)],
        ids=["grid-rows", "native-rows"],
    )
    def test_peak_memory_of_a_run(self, p_minus, steps, trials, limit):
        # a one-tile chunk plus the stream's kept kernel scratch (1 MiB) on
        # the grid path; 6.05 and 5.35 MiB with chunks of 2**19 draws
        tracemalloc.start()
        try:
            zeno._sample_survival(p_minus, steps, trials, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    def test_memory_does_not_grow_with_trials_at_the_row_cap(self):
        # rows of 2**19 draws make one chunk per trial, whatever the trial
        # count.  Live at once: the run's int64 histogram, and in the worker
        # either the trial's float64 row and its bool comparison, or that bool
        # row, its copy for a trial that jumped and one int64 bincount.  No
        # trial jumps here, so the traced peak is 17 bytes a step (8.50 MiB)
        steps = 2**19
        hist, row, jumped, bincount = 8 * steps, 8 * steps, steps, 8 * steps
        p_minus = zeno._step_probability(cfg_with(steps), dual=False)
        zeno._sample_survival(p_minus, steps, 1, 3)  # loads numpy.random: once per process
        tracemalloc.start()
        try:
            zeno._sample_survival(p_minus, steps, 8, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= hist + max(row + jumped, 2 * jumped + bincount)

    @pytest.mark.parametrize(
        "budget, steps, trials",
        [(64, 10, 2000), (64, 500, 300), (2**30, 20000, 500)],
        ids=["rows-of-6", "rows-of-1", "one-chunk"],
    )
    def test_counts_do_not_depend_on_the_draw_budget(self, monkeypatch, budget, steps, trials):
        p_minus = 1.0 / steps
        survived, hist = zeno._sample_survival(p_minus, steps, trials, 17)
        monkeypatch.setattr(montecarlo, "DRAW_BUDGET", budget)
        rechunked = zeno._sample_survival(p_minus, steps, trials, 17)
        assert rechunked[0] == survived
        np.testing.assert_array_equal(rechunked[1], hist)


class TestStepLaw:
    @pytest.mark.parametrize("dual", [False, True], ids=["zeno", "dual-zeno"])
    @pytest.mark.parametrize("field", [{}, {"B": 2.5, "T": 0.7}], ids=["default", "B2.5-T0.7"])
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 1000])
    def test_every_step_matches_the_first(self, n, field, dual):
        # the post-measurement state repeats, so one step fixes the whole branch
        cfg = zeno.ZenoConfig(N=n, trials=1, **field)
        p_minus = zeno._step_probability(cfg, dual)
        reference = reference_branch_law(cfg, dual)
        assert np.max(np.abs(reference - p_minus)) <= 4 * 2.0**-53

    @pytest.mark.parametrize("dual", [False, True], ids=["zeno", "dual-zeno"])
    def test_first_step_is_the_reference_bit_for_bit(self, dual):
        cfg = zeno.ZenoConfig(N=9, B=1.3, T=2.0, trials=1)
        p_minus = zeno._step_probability(cfg, dual)
        assert p_minus == reference_branch_law(cfg, dual)[0]
        runner = zeno.run_dual_zeno if dual else zeno.run_zeno
        assert runner(cfg).per_step_probability == 1.0 - p_minus

    @pytest.mark.parametrize("runner", [zeno.run_zeno, zeno.run_dual_zeno])
    def test_core_work_does_not_grow_with_n(self, runner, monkeypatch):
        calls = []
        born = qcore.born_probabilities

        def counting(*args, **kwargs):
            calls.append(1)
            return born(*args, **kwargs)

        monkeypatch.setattr(qcore, "born_probabilities", counting)
        counts = []
        for n in (10, 10000):
            calls.clear()
            runner(cfg_with(n, trials=4))
            counts.append(len(calls))
        assert counts[0] == counts[1] == 1


class TestDualZeno:
    def test_analytic_duality(self):
        for n in (1, 2, 5, 10, 50):
            cfg = cfg_with(n)
            assert zeno.run_dual_zeno(cfg).analytic_survival == zeno.run_zeno(
                cfg
            ).analytic_survival

    def test_two_measurements_match_quarter(self):
        result = zeno.run_dual_zeno(cfg_with(2, trials=50000, seed=55))
        assert result.analytic_survival == pytest.approx(0.25, abs=1e-12)
        assert abs(result.empirical_survival - 0.25) <= 3.0 * result.stderr

    def test_per_step_probability_same_law(self):
        for n in (2, 6):
            result = zeno.run_dual_zeno(cfg_with(n, trials=10))
            expected = math.cos(math.pi / (2.0 * n)) ** 2
            assert result.per_step_probability == pytest.approx(expected, abs=1e-12)

    def test_surviving_branch_ends_on_reversed_axis(self):
        # condition every measurement on +1: the final state must be the +1
        # eigenstate of the axis at angle 2*mu*B*T/hbar = pi, i.e. -x
        cfg = cfg_with(8)
        duration = zeno.period(cfg)
        state = qcore.make_state((2,), (1.0, 1.0))
        for step in range(cfg.N):
            angle = 2.0 * cfg.B * (step + 1) * duration / cfg.N
            observable = qcore.spin_observable(qcore.xy_axis(angle))
            _, plus_projector = qcore.eigen_projectors(observable)[1]
            projected = plus_projector @ state.amplitudes
            state = qcore.StateVector((2,), projected / np.linalg.norm(projected))
        minus_x_plus_eigenstate = qcore.make_state((2,), (1.0, -1.0))
        overlap = np.vdot(minus_x_plus_eigenstate.amplitudes, state.amplitudes)
        assert abs(abs(overlap) - 1.0) <= 1e-12

    def test_freezing_limit_empirical(self):
        result = zeno.run_dual_zeno(cfg_with(200, trials=2000, seed=77))
        assert result.analytic_survival > 0.98
        assert abs(result.empirical_survival - result.analytic_survival) <= max(
            3.0 * result.stderr, 1e-12
        )


class TestJumpResolution:
    def test_single_measurement_no_violation(self):
        report = zeno.jump_resolution_report(cfg_with(1))
        assert report.product == pytest.approx(math.pi, abs=1e-14)
        assert not report.apparent_violation

    def test_dense_schedule_violates(self):
        report = zeno.jump_resolution_report(cfg_with(10))
        assert report.product == pytest.approx(math.pi / 10.0, abs=1e-15)
        assert report.apparent_violation

    def test_threshold_is_half_hbar(self):
        for n in (1, 3, 20):
            assert zeno.jump_resolution_report(cfg_with(n)).threshold == 0.5

    def test_inputs_echoed(self):
        report = zeno.jump_resolution_report(cfg_with(4))
        assert report.delta_e == 2.0
        assert report.delta_t == pytest.approx(math.pi / 8.0, abs=1e-15)


class TestConfigValidation:
    def test_bad_counts(self):
        with pytest.raises(DomainError):
            zeno.ZenoConfig(N=0)
        with pytest.raises(DomainError):
            zeno.ZenoConfig(trials=0)

    def test_bad_field_and_duration(self):
        with pytest.raises(DomainError):
            zeno.ZenoConfig(B=0.0)
        with pytest.raises(DomainError):
            zeno.ZenoConfig(T=-1.0)

    def test_bad_seed(self):
        with pytest.raises(DomainError):
            zeno.ZenoConfig(seed=-5)
