"""Quantum Zeno experiments.

A spin precessing in a magnetic field is measured N times at equal
intervals; the survival probability (all outcomes +1) follows
cos(mu*B*T/(N*hbar))**(2N) and approaches 1 as N grows.  The dual
experiment measures a rotating spin component with no field and obeys the
same law.

Every factor of that law is the same.  A +1 outcome leaves the spin in the
same eigenstate each time, and the next interval has the same geometry: T/N
of precession, or an axis turned by 2*mu*B*(T/N)/hbar from the last one.  So
the -1 probability of the first measurement holds at every step, and
``_step_probability`` computes it once with the exact core; the samplers
compare each trial's N uniforms against that one number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .bounds import UncertaintyReport, energy_time_product
from .constants import NATURAL, PhysicalConstants
from .errors import DomainError
from .montecarlo import run_chunks
from .rng import DEFAULT_SEED, SeededStream, check_seed


@dataclass(frozen=True)
class ZenoConfig:
    B: float = 1.0
    T: float | None = None  # None selects h / (4 mu B)
    N: int = 10
    trials: int = 100000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not (math.isfinite(self.B) and self.B > 0):
            raise DomainError(f"field strength must be positive, got {self.B}")
        if self.T is not None and not (math.isfinite(self.T) and self.T > 0):
            raise DomainError(f"duration must be positive, got {self.T}")
        if self.N < 1:
            raise DomainError(f"measurement count must be >= 1, got {self.N}")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        check_seed(self.seed)


@dataclass(frozen=True)
class ZenoResult:
    analytic_survival: float
    empirical_survival: float
    stderr: float
    per_step_probability: float
    jump_times: tuple[int, ...] | None = None


def period(cfg: ZenoConfig, k: PhysicalConstants = NATURAL) -> float:
    """Total duration; defaults to a quarter precession period h/(4 mu B)."""
    if cfg.T is not None:
        return cfg.T
    return k.h / (4.0 * k.mu * cfg.B)


def survival_analytic(cfg: ZenoConfig, k: PhysicalConstants = NATURAL) -> float:
    """cos(mu*B*T/(N*hbar)) ** (2N)."""
    theta = k.mu * cfg.B * period(cfg, k) / (cfg.N * k.hbar)
    return math.cos(theta) ** (2 * cfg.N)


def _step_probability(cfg: ZenoConfig, k: PhysicalConstants, dual: bool) -> float:
    """Probability of the -1 outcome at the first measurement, hence at every one.

    ``zeno`` evolves |+x> for T/N and projects on the sigma_x spectrum;
    ``dual`` projects |+x> on the x-y axis at angle 2*mu*B*(T/N)/hbar.
    """
    dt = period(cfg, k) / cfg.N
    state = qcore.make_state((2,), (1.0, 1.0))
    if dual:
        axis = qcore.xy_axis(2.0 * k.mu * cfg.B * dt / k.hbar)
    else:
        axis = qcore.SpinDirection(1.0, 0.0, 0.0)
        state = qcore.evolve_spin(state, cfg.B, dt, k)
    projectors = qcore.eigen_projectors(qcore.spin_observable(axis))
    return float(qcore.born_probabilities(state, projectors)[0][1])


def _sample_survival(
    p_minus: float, steps: int, trials: int, seed: int
) -> tuple[int, np.ndarray]:
    """Count surviving trials and histogram the first-jump step index.

    Trial ``i`` draws one uniform per step from substream (seed, i); the
    chain stops logically at the first -1 outcome.
    """
    stream = SeededStream(seed)

    def worker(lo: int, hi: int) -> tuple[int, np.ndarray]:
        jumped = stream.uniform_block(hi - lo, steps, first=lo) < p_minus
        any_jump = jumped.any(axis=1)
        hist = np.bincount(jumped[any_jump].argmax(axis=1), minlength=steps)
        return int((~any_jump).sum()), hist

    parts = run_chunks(trials, worker)
    survived = sum(p[0] for p in parts)
    hist = np.sum([p[1] for p in parts], axis=0)
    return survived, hist


def _result(cfg: ZenoConfig, k: PhysicalConstants, dual: bool) -> ZenoResult:
    p_minus = _step_probability(cfg, k, dual)
    survived, hist = _sample_survival(p_minus, cfg.N, cfg.trials, cfg.seed)
    empirical = survived / cfg.trials
    return ZenoResult(
        analytic_survival=survival_analytic(cfg, k),
        empirical_survival=empirical,
        stderr=math.sqrt(empirical * (1.0 - empirical) / cfg.trials),
        per_step_probability=1.0 - p_minus,
        jump_times=tuple(int(c) for c in hist),
    )


def run_zeno(cfg: ZenoConfig, k: PhysicalConstants = NATURAL) -> ZenoResult:
    """Monte Carlo of N sigma_x measurements on a spin precessing over T."""
    return _result(cfg, k, dual=False)


def run_dual_zeno(cfg: ZenoConfig, k: PhysicalConstants = NATURAL) -> ZenoResult:
    """Monte Carlo of N rotating-axis measurements with H = 0.

    The axis at step k points at angle 2*mu*B*t_k/hbar in the x-y plane;
    consecutive axes differ by 2*mu*B*T/(N*hbar), so the survival law is
    identical to the in-field experiment.
    """
    return _result(cfg, k, dual=True)


def jump_resolution_report(
    cfg: ZenoConfig, k: PhysicalConstants = NATURAL
) -> UncertaintyReport:
    """Energy-time product for jump timing resolved to T/N.

    The energy spread is capped by the level splitting 2*mu*B, while the
    jump time is pinned to within T/N, so dense measurement schedules give
    an apparent violation of the hbar/2 bound.
    """
    return energy_time_product(2.0 * k.mu * cfg.B, period(cfg, k) / cfg.N, k)
