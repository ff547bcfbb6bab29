"""Frozen outputs: every experiment at default config must reproduce its files byte for byte.

`tests/golden/<experiment>/` holds the `result.json` and CSVs of
`paradox-lab <experiment> --out tests/golden/<experiment>` at default config
and the default seed, with `PARADOX_LAB_SEED` unset.  Regenerate them only
for a deliberate, documented change of the output bytes:

    for e in zeno dual-zeno bell twoslit cat bounds lightcone; do
        env -u PARADOX_LAB_SEED PYTHONPATH=src python3 -m paradoxlab.cli $e --out tests/golden/$e
    done
"""

from pathlib import Path

import pytest

from paradoxlab.cli import EXPERIMENTS, main

GOLDEN = Path(__file__).parent / "golden"


def test_every_experiment_is_frozen():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_outputs_match_golden_bytes(experiment, tmp_path, monkeypatch):
    monkeypatch.delenv("PARADOX_LAB_SEED", raising=False)
    assert main([experiment, "--out", str(tmp_path)]) == 0
    expected = GOLDEN / experiment
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in expected.iterdir()
    )
    for path in expected.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
