"""Frozen outputs: the runs below must reproduce their files byte for byte.

`tests/golden/<experiment>/` holds the `result.json` and CSVs of every
experiment at default config.  `tests/golden_variants/<case>/` holds one run
for each branch of the result records that the defaults do not reach.  Both
use the default seed: `PARADOX_LAB_SEED` is unset for every run.  Regenerate
them only for a deliberate, documented change of the output bytes:

    PYTHONPATH=src python3 tests/test_golden.py

That runs each case as `python3 -m paradoxlab.cli <experiment> [key=value ...]
--out <dir>`.  A command given after the script name, for example the
installed `paradox-lab`, takes the place of `python3 -m paradoxlab.cli`.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from paradoxlab.cli import EXPERIMENTS, main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
VARIANTS = HERE / "golden_variants"

GOLDEN_CASES = {experiment: (experiment,) for experiment in sorted(EXPERIMENTS)}
VARIANT_CASES = {
    "bounds-energy-time-satisfied": ("bounds", "delta_e=0.5", "delta_t=2"),
    "bounds-energy-time-violated": ("bounds", "delta_e=0.1", "delta_t=0.1", "points=7"),
    "cat-no-trials": ("cat", "trials=0"),
    "cat-two-devices": ("cat", "n_devices=2", "alpha_re=0.6", "beta_re=0.8", "trials=1000"),
    "cat-three-devices-complex": ("cat", "n_devices=3", "alpha_im=0.3", "trials=10"),
    "twoslit-no-sweep": ("twoslit", "sweep=false", "delta_p_s=0.5"),
    "twoslit-washed-out": ("twoslit", "delta_p_s=100", "grid=512"),
    "lightcone-timelike": ("lightcone", "a_t=5", "a_x=0", "b_t=6", "b_x=0.5", "grid_step=0.5"),
    "lightcone-one-frame": ("lightcone", "velocities=0", "grid_step=0.5"),
    "zeno-short-sweep": ("zeno", "N=7", "trials=500", "sweep=3,7"),
    "dual-zeno-short-sweep": ("dual-zeno", "T=0.7", "B=2.5", "N=3", "trials=300", "sweep=1,3"),
    "bell-odd-trials": ("bell", "trials=1001", "theta_a=0.3"),
}


def _assert_same_files(argv, expected: Path, tmp_path: Path, monkeypatch) -> None:
    monkeypatch.delenv("PARADOX_LAB_SEED", raising=False)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in expected.iterdir()
    )
    for path in expected.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_every_experiment_is_frozen():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(EXPERIMENTS)


def test_every_variant_is_frozen():
    assert sorted(p.name for p in VARIANTS.iterdir()) == sorted(VARIANT_CASES)


@pytest.mark.parametrize("experiment", sorted(GOLDEN_CASES))
def test_outputs_match_golden_bytes(experiment, tmp_path, monkeypatch):
    _assert_same_files(GOLDEN_CASES[experiment], GOLDEN / experiment, tmp_path, monkeypatch)


@pytest.mark.parametrize("case", sorted(VARIANT_CASES))
def test_variant_outputs_match_golden_bytes(case, tmp_path, monkeypatch):
    _assert_same_files(VARIANT_CASES[case], VARIANTS / case, tmp_path, monkeypatch)


def regenerate(command: list[str]) -> None:
    """Rewrite every golden directory from scratch by running ``command`` on each case."""
    env = {key: value for key, value in os.environ.items() if key != "PARADOX_LAB_SEED"}
    for root, cases in ((GOLDEN, GOLDEN_CASES), (VARIANTS, VARIANT_CASES)):
        for name, argv in cases.items():
            out = root / name
            shutil.rmtree(out, ignore_errors=True)
            subprocess.run([*command, *argv, "--out", str(out)], check=True, env=env)


if __name__ == "__main__":
    regenerate(sys.argv[1:] or [sys.executable, "-m", "paradoxlab.cli"])
