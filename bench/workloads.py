"""The benchmark's workloads: fixed lists of `paradox-lab` invocations.

A workload is a list of (experiment, overrides) pairs.  Each invocation gets
its own `seed=` token derived from the workload seed, so the whole list is a
pure function of (workload, workload seed).  No invocation passes `threads`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any

# Effective defaults of each experiment's config, as the output checks assume
# them.  The checks compare them with the config echo in result.json, so a
# changed default shows as a failure instead of silently changing the work.
DEFAULTS: dict[str, dict[str, Any]] = {
    "zeno": {"B": 1.0, "T": None, "N": 10, "trials": 100000, "sweep": "1,2,5,10,50"},
    "bell": {
        "trials": 100000,
        "theta_a": 0.0,
        "theta_a_prime": math.pi / 2.0,
        "theta_b": math.pi / 4.0,
        "theta_b_prime": 3.0 * math.pi / 4.0,
    },
    "twoslit": {
        "wavelength": 1.0,
        "slit_separation": 2.0,
        "screen_distance": 100.0,
        "delta_p_s": None,
        "grid": 2048,
        "span_fringes": 8.0,
        "sweep": True,
    },
    "cat": {
        "alpha_re": 1.0 / math.sqrt(2.0),
        "alpha_im": 0.0,
        "beta_re": 1.0 / math.sqrt(2.0),
        "beta_im": 0.0,
        "n_devices": 1,
        "trials": 100000,
    },
    "bounds": {"t_min": 0.1, "t_max": 100.0, "points": 25, "delta_e": None, "delta_t": None},
    "lightcone": {
        "a_t": 5.0,
        "a_x": -3.0,
        "b_t": 5.0,
        "b_x": 3.0,
        "velocities": "-0.9,-0.5,0,0.5,0.9",
        "grid_t_min": -1.0,
        "grid_t_max": 6.0,
        "grid_x_min": -6.0,
        "grid_x_max": 6.0,
        "grid_step": 0.25,
    },
}
DEFAULTS["dual-zeno"] = DEFAULTS["zeno"]

_DEEP = {"N": 20000, "trials": 500, "sweep": "1"}

PLANS: dict[str, list[tuple[str, dict[str, Any]]]] = {
    "mc-default": [("zeno", {}), ("dual-zeno", {}), ("cat", {}), ("bell", {})],
    "mc-deep": [
        ("zeno", _DEEP),
        ("dual-zeno", _DEEP),
        ("zeno", {"N": 5000, "trials": 2000, "sweep": "1"}),
    ],
    "exact-grid": [
        ("lightcone", {"grid_step": 0.02}),
        ("twoslit", {"grid": 16384}),
        ("bounds", {"points": 100000}),
    ],
}

WORKLOADS = tuple(PLANS)

DEFAULT_SEED = 0  # the workload seed whose output bytes are pinned in digests.json

# Output files each experiment writes with the default formats.
OUTPUT_FILES = {
    "zeno": ("result.json", "zeno_sweep.csv"),
    "dual-zeno": ("result.json", "dual_zeno_sweep.csv"),
    "bell": ("result.json", "bell_counts.csv"),
    "cat": ("result.json", "cat_born_vs_weight.csv"),
    "twoslit": ("result.json", "twoslit_pattern.csv", "twoslit_visibility_sweep.csv"),
    "bounds": ("result.json", "bounds_landau_peierls.csv"),
    "lightcone": ("result.json", "lightcone_region.csv"),
}

CAT_WEIGHTS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _token(value: Any) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def sweep_values(config: dict[str, Any]) -> list[int]:
    return [int(part) for part in config["sweep"].split(",") if part.strip()]


@dataclass(frozen=True)
class Invocation:
    index: int
    experiment: str
    overrides: dict[str, Any]
    seed: int

    @property
    def label(self) -> str:
        return f"{self.index}-{self.experiment}"

    @property
    def config(self) -> dict[str, Any]:
        """The effective config: defaults, then overrides, then the seed."""
        return {**DEFAULTS[self.experiment], **self.overrides, "seed": self.seed}

    def argv(self, out_dir) -> list[str]:
        settings = [f"{key}={_token(value)}" for key, value in self.overrides.items()]
        return [self.experiment, *settings, f"seed={self.seed}", "--out", str(out_dir)]

    @property
    def trials(self) -> int:
        """Monte Carlo trials run, counting every sweep point and weight row."""
        cfg = self.config
        if self.experiment in ("zeno", "dual-zeno"):
            return cfg["trials"] * (1 + len(sweep_values(cfg)))
        if self.experiment == "cat":
            return cfg["trials"] * (1 + len(CAT_WEIGHTS)) if cfg["trials"] > 0 else 0
        if self.experiment == "bell":
            return max(cfg["trials"] // 4, 1) * 4
        return 0


def invocation_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocation list; a pure function of its arguments."""
    return [
        Invocation(index, experiment, dict(overrides), invocation_seed(workload, seed, index))
        for index, (experiment, overrides) in enumerate(PLANS[workload])
    ]
