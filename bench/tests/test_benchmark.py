"""Self-tests of the benchmark: invocation lists, output checks and tracing.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for entry in (str(BENCH), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from paradoxlab import cli, montecarlo, zeno  # noqa: E402

from onepass import trace_report  # noqa: E402
from outputs import binomial_consistent, check_invocation, file_digests  # noqa: E402
from run import layer_metrics  # noqa: E402
from spans import LAYERS, LayerTracer  # noqa: E402
from workloads import WORKLOADS, Invocation, invocations  # noqa: E402

SMALL = [
    ("zeno", {"N": 10, "trials": 2000, "sweep": "1,2"}),
    ("dual-zeno", {"N": 8, "trials": 1000, "sweep": "3"}),
    ("bell", {"trials": 4000}),
    ("cat", {"trials": 1000, "n_devices": 2}),
    ("twoslit", {"grid": 512}),
    ("bounds", {"points": 50}),
    ("lightcone", {}),
]
# uniforms drawn by SMALL: zeno 2000*(10+1+2), dual-zeno 1000*(8+3),
# bell 4 pairs * 1000 trials * 2, cat 1000 * (1 + 5 weight rows)
SMALL_DRAWS = 26000 + 11000 + 8000 + 6000


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("PARADOX_LAB_SEED", raising=False)


def _run(invs, out: Path):
    for inv in invs:
        assert cli.main(inv.argv(out / inv.label)) == 0


def _small() -> list[Invocation]:
    return [Invocation(i, exp, dict(over), 11 + i) for i, (exp, over) in enumerate(SMALL)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_invocation_list_is_a_pure_function_of_the_seed(workload):
    first = invocations(workload, 7)
    assert first == invocations(workload, 7)
    other = invocations(workload, 8)
    assert [inv.seed for inv in first] != [inv.seed for inv in other]
    assert len({inv.seed for inv in first}) == len(first)
    for inv in first:
        assert 0 <= inv.seed < 2**64
        argv = inv.argv("out")
        assert f"seed={inv.seed}" in argv
        assert not any(token.startswith("threads=") for token in argv)


def test_sparse_counts_use_exact_binomial_tails():
    p = math.cos(math.pi / 40000) ** 40000  # N=20000 survival, 500 trials
    assert binomial_consistent(500, 500, p)
    assert binomial_consistent(497, 500, p)  # 3 jumps: rare but possible
    assert not binomial_consistent(495, 500, p)  # 5 jumps: tail below 3e-7
    assert binomial_consistent(5000, 10000, 0.5)
    assert not binomial_consistent(5300, 10000, 0.5)  # z = 6
    assert binomial_consistent(0, 100, 0.0) and not binomial_consistent(1, 100, 0.0)


def test_output_check_rejects_tampered_outputs(tmp_path):
    invs = _small()[:3]
    _run(invs, tmp_path)
    for inv in invs:
        assert check_invocation(inv, tmp_path / inv.label) == []
    zeno_inv, _, bell_inv = invs

    pinned = file_digests(bell_inv, tmp_path / bell_inv.label)
    assert check_invocation(bell_inv, tmp_path / bell_inv.label, pinned) == []
    wrong = {name: "0" * 64 for name in pinned}
    assert check_invocation(bell_inv, tmp_path / bell_inv.label, wrong)

    path = tmp_path / bell_inv.label / "result.json"
    record = json.loads(path.read_text())
    counts = record["result"]["counts"]["ab"]
    counts["++"], counts["+-"] = counts["+-"], counts["++"]
    path.write_text(json.dumps(record))
    assert check_invocation(bell_inv, tmp_path / bell_inv.label)

    path = tmp_path / zeno_inv.label / "result.json"
    record = json.loads(path.read_text())
    record["result"]["empirical_survival"] -= 0.1
    path.write_text(json.dumps(record))
    assert check_invocation(zeno_inv, tmp_path / zeno_inv.label)


def test_self_times_add_up_to_the_root_span(tmp_path):
    invs = _small()
    with LayerTracer() as tracer:
        assert zeno.run_chunks is montecarlo.run_chunks
        assert hasattr(zeno.run_chunks, "__wrapped__")
        _run(invs, tmp_path)
    assert not hasattr(zeno.run_chunks, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")
    for inv in invs:
        assert check_invocation(inv, tmp_path / inv.label) == []

    assert tracer.root_layers == {"cli"}
    assert tracer.by_name["cli:main"][0] == len(invs)
    assert math.isclose(sum(tracer.self_s.values()), tracer.root_s, rel_tol=1e-9)
    assert all(tracer.self_s[layer] > 0.0 for layer in LAYERS)
    assert tracer.counts["rng.draws"] == SMALL_DRAWS
    assert tracer.counts["zeno.trials"] == 2000 * 3 + 1000 * 2
    assert tracer.counts["catlab.trials"] == 1000 * 6
    assert tracer.counts["bell.trials"] == 4000
    assert tracer.counts["trace.hook_errors"] == 0

    traced = {"wall_s": tracer.root_s, "trace": trace_report(tracer, 1, 1)}
    plain = {"wall_s": tracer.root_s, "trials": sum(inv.trials for inv in invs)}
    names = set(layer_metrics(plain, traced)) | {"fail_ratio"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert names == {metric["name"] for metric in spec["per_layer"]}
