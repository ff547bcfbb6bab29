"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Monte Carlo checks use the documented default seed; binomial
agreement is asserted at three standard errors with a 1e-12 absolute floor
for the zero-probability cases.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from paradoxlab import bell, bounds, catlab, lightcone, qcore, twoslit, zeno
from paradoxlab.cli import parse_config, run
from paradoxlab.constants import NATURAL
from paradoxlab.rng import SeededStream

SEED = 0xC0FFEE

# cos(pi/20)**20, evaluated independently with 50-digit arithmetic
SURVIVAL_N10 = 0.78054606978114017


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {label}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {label}")


def within_sigma(empirical, expected, stderr, sigmas=3.0):
    return abs(empirical - expected) <= sigmas * stderr + 1e-12


def test_criterion_01_zeno_survival_law():
    with criterion(1, "Zeno survival law, analytic and Monte Carlo"):
        started = time.perf_counter()
        assert abs(zeno.survival_analytic(zeno.ZenoConfig(N=1))) <= 1e-12
        assert abs(zeno.survival_analytic(zeno.ZenoConfig(N=2)) - 0.25) <= 1e-12
        assert (
            abs(zeno.survival_analytic(zeno.ZenoConfig(N=10)) - SURVIVAL_N10) <= 1e-9
        )
        assert zeno.survival_analytic(zeno.ZenoConfig(N=10000)) >= 0.999
        for n in (1, 2, 5, 10, 50):
            cfg = zeno.ZenoConfig(N=n, trials=100000, seed=SEED)
            result = zeno.run_zeno(cfg)
            assert within_sigma(
                result.empirical_survival, result.analytic_survival, result.stderr
            )
        assert time.perf_counter() - started < 30.0


def test_criterion_02_dual_zeno_matches():
    with criterion(2, "Dual rotating-axis experiment obeys the same law"):
        for n in (1, 2, 5, 10, 50):
            cfg = zeno.ZenoConfig(N=n, trials=1, seed=SEED)
            assert zeno.survival_analytic(cfg) == zeno.run_dual_zeno(
                zeno.ZenoConfig(N=n, trials=1, seed=SEED)
            ).analytic_survival
        result = zeno.run_dual_zeno(zeno.ZenoConfig(N=10, trials=100000, seed=SEED))
        assert within_sigma(
            result.empirical_survival, result.analytic_survival, result.stderr
        )


def test_criterion_03_energy_time_boundary():
    with criterion(3, "Energy-time product flips at N = 7"):
        for n in range(1, 11):
            report = zeno.jump_resolution_report(zeno.ZenoConfig(N=n))
            assert report.product == math.pi * 2.0 / (2.0 * n)  # pi*hbar/N exactly
            assert report.apparent_violation == (n >= 7)
        assert not zeno.jump_resolution_report(zeno.ZenoConfig(N=6)).apparent_violation
        assert zeno.jump_resolution_report(zeno.ZenoConfig(N=7)).apparent_violation


def test_criterion_04_bell_violation():
    with criterion(4, "CHSH reaches -2*sqrt(2); classical bound stays at 2"):
        started = time.perf_counter()
        state = bell.singlet()
        result = bell.chsh(state, bell.ChshSettings.optimal(), 100000, SeededStream(SEED))
        assert abs(result.exact_s + 2.0 * math.sqrt(2.0)) <= 1e-12
        assert bell.local_deterministic_bound() == 2.0
        assert abs(result.estimated_s - result.exact_s) <= 3.0 * result.stderr
        setting = bell.MeasurementSetting(0.6)
        for far_angle in (0.0, 1.3):
            one = bell.joint_probabilities(state, setting, bell.MeasurementSetting(far_angle))
            two = bell.joint_probabilities(
                state, setting, bell.MeasurementSetting(far_angle + 1.1)
            )
            for outcome in (-1, 1):
                assert (
                    abs(
                        one[(outcome, -1)]
                        + one[(outcome, 1)]
                        - two[(outcome, -1)]
                        - two[(outcome, 1)]
                    )
                    <= 1e-12
                )
        assert time.perf_counter() - started < 10.0


def test_criterion_05_two_slit_washout():
    with criterion(5, "Numeric washout matches the Gaussian attenuation law"):
        geometry = twoslit.TwoSlitGeometry(1.0, 2.0, 100.0)
        spacing = twoslit.fringe_spacing(geometry)
        for ratio in (0.05, 0.1, 0.25, 0.5):
            vis = twoslit.visibility(twoslit.pattern(geometry, ratio * spacing))
            expected = math.exp(-2.0 * math.pi**2 * ratio**2)
            assert abs(vis - expected) / expected <= 1e-3
        assert twoslit.visibility(twoslit.pattern(geometry, spacing)) < 1e-6
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            random_geometry = twoslit.TwoSlitGeometry(
                wavelength=rng.uniform(0.2, 5.0),
                slit_separation=rng.uniform(0.2, 5.0),
                screen_distance=rng.uniform(10.0, 500.0),
            )
            threshold = twoslit.which_path_threshold(random_geometry)
            assert (
                abs(threshold * twoslit.fringe_spacing(random_geometry) - NATURAL.h)
                <= 1e-12
            )
            report = twoslit.complementarity_report(random_geometry, threshold)
            assert abs(report.delta_x_s_min * report.delta_p_s - NATURAL.h) <= 1e-12


def test_criterion_06_cat_chain():
    with criterion(6, "Premeasurement chain stays a verified superposition"):
        weights = (0.04, 0.25, 0.5, 0.75, 0.96)
        for weight in weights:
            alpha = math.sqrt(weight)
            beta = math.sqrt(1.0 - weight)
            for n_devices in (1, 2, 3):
                result = catlab.run_chain(
                    catlab.ChainConfig(alpha, beta, n_devices=n_devices)
                )
                expected = np.zeros(2 ** (n_devices + 1), dtype=complex)
                expected[(1 << n_devices) - 1] = alpha
                expected[1 << n_devices] = beta
                overlap = abs(np.vdot(expected, result.final_state.amplitudes))
                assert abs(overlap - 1.0) <= 1e-12
                assert (
                    np.max(
                        np.abs(
                            result.reduced_atom.entries
                            - np.diag([weight, 1.0 - weight])
                        )
                    )
                    <= 1e-12
                )
                assert abs(result.global_purity - 1.0) <= 1e-12
        for weight in weights:
            stats = catlab.born_statistics(
                catlab.ChainConfig(
                    math.sqrt(weight), math.sqrt(1.0 - weight), trials=100000, seed=SEED
                )
            )
            assert within_sigma(stats.f_up, weight, stats.stderr)


def test_criterion_07_lightcone_geometry():
    with criterion(7, "Collapse-allowed region and frame orderings"):
        alice = lightcone.Event(5.0, -3.0)
        bob = lightcone.Event(5.0, 3.0)
        assert lightcone.collapse_allowed(lightcone.Event(2.0, 0.0), alice, bob)
        assert not lightcone.collapse_allowed(
            lightcone.Event(2.0 + 1e-9, 0.0), alice, bob
        )
        rng = np.random.default_rng(SEED)
        for _ in range(10000):
            e1 = lightcone.Event(*rng.uniform(-20, 20, size=2))
            e2 = lightcone.Event(*rng.uniform(-20, 20, size=2))
            frame = lightcone.Boost(rng.uniform(-0.99, 0.99))
            s2, _ = lightcone.interval(e1, e2)
            s2_boosted, _ = lightcone.interval(
                lightcone.boost(e1, frame), lightcone.boost(e2, frame)
            )
            assert abs(s2 - s2_boosted) <= 1e-10 * (1.0 + abs(s2))
        spacelike = lightcone.ordering_report(alice, bob, [-0.5, 0.5])
        assert spacelike.interval_kind == "spacelike"
        assert spacelike.admits_reversal
        sweep = np.linspace(-0.99, 0.99, 199).tolist()
        timelike = lightcone.ordering_report(
            lightcone.Event(0.0, 0.0), lightcone.Event(5.0, 1.0), sweep
        )
        assert timelike.interval_kind == "timelike"
        assert not timelike.admits_reversal
        assert len({o.order for o in timelike.orderings}) == 1


def test_criterion_08_landau_peierls():
    with criterion(8, "Field-measurement floor values and scaling"):
        assert bounds.landau_peierls_min(1.0) == 1.0
        assert bounds.landau_peierls_min(2.0) == 0.25
        durations = np.geomspace(0.05, 2000.0, 40)
        values = [bounds.landau_peierls_min(float(t)) for t in durations]
        slope = np.polyfit(np.log(durations), np.log(values), 1)[0]
        assert abs(slope + 2.0) <= 1e-9


def test_criterion_09_core_numerics():
    with criterion(9, "Analytic exponential, norm drift, partial-trace consistency"):
        rng = np.random.default_rng(SEED)

        def series_exponential(mat, terms=30):
            norm = np.linalg.norm(mat)
            squarings = int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
            small = mat / 2.0**squarings
            acc = np.eye(mat.shape[0], dtype=complex)
            term = np.eye(mat.shape[0], dtype=complex)
            for k in range(1, terms + 1):
                term = term @ small / k
                acc = acc + term
            for _ in range(squarings):
                acc = acc @ acc
            return acc

        for _ in range(1000):
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            hamiltonian = (raw + raw.conj().T) / 2.0
            scale = max(np.linalg.norm(hamiltonian, 2), 1e-6)
            t = rng.uniform(-10.0, 10.0) / scale
            computed = qcore.unitary_exp(
                qcore.Operator(hamiltonian, hermitian=True), t
            ).entries
            assert np.max(np.abs(computed - series_exponential(-1j * hamiltonian * t))) <= 1e-10

        state = qcore.make_state((2,), rng.normal(size=2) + 1j * rng.normal(size=2))
        for _ in range(1000):
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            hamiltonian = qcore.Operator((raw + raw.conj().T) / 2.0, hermitian=True)
            state = qcore.apply(qcore.unitary_exp(hamiltonian, rng.uniform(-1, 1)), state)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

        sx = qcore.spin_observable(qcore.SpinDirection(1.0, 0.0, 0.0))
        full = qcore.Operator(np.kron(sx.entries, np.eye(2)), hermitian=True)
        for _ in range(200):
            pair = qcore.make_state((2, 2), rng.normal(size=4) + 1j * rng.normal(size=4))
            reduced = qcore.partial_trace(qcore.density(pair), (2, 2), keep=(0,))
            via_reduced = float(np.trace(reduced.entries @ sx.entries).real)
            assert abs(via_reduced - qcore.expectation(pair, full)) <= 1e-12


def test_criterion_10_byte_identical_reruns(tmp_path):
    with criterion(10, "Byte-identical reruns"):
        for tokens in (
            ["experiment=zeno", "N=5", "trials=20000", "sweep=1,2,5"],
            ["experiment=bell", "trials=20000"],
            ["experiment=cat", "trials=20000", "n_devices=2"],
            ["experiment=twoslit"],
            ["experiment=lightcone"],
        ):
            blobs = []
            for label in ("a", "b"):
                out = tmp_path / tokens[0].split("=")[1] / label
                assert run(parse_config(tokens, output_dir=out)) == 0
                blobs.append(
                    {p.name: p.read_bytes() for p in sorted(out.iterdir())}
                )
            assert blobs[0] == blobs[1]
            record = json.loads(
                (tmp_path / tokens[0].split("=")[1] / "a" / "result.json").read_text()
            )
            assert record["seed"] == SEED
