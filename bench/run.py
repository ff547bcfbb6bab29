"""The paradox-lab benchmark.

    python3 bench/run.py --workload mc-default --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it times the start-up
of a fresh interpreter up to ``paradoxlab.cli`` being imported, then runs as
many untraced passes over the workload's invocation list as fit in
``--seconds`` (at least one), each in a fresh process (bench/onepass.py),
and prints the end-to-end metrics.  With ``--trace 1`` it runs as many pairs
of an untraced and a traced pass as fit and prints the per-layer metrics.
Every invocation's output is checked; the last line of standard output is
the JSON result.  See bench/README.md for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7  # timed, after one untimed probe that fills the bytecode cache
CHILD_TIMEOUT_S = 150
PROBE = "import time, paradoxlab.cli as c; print(time.monotonic()); print(c.__file__)"

KERNELS = ("zeno", "bell", "catlab")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    """The caller's environment with src importable, minus the seed override and
    minus any ban on writing bytecode, so that start-up is timed with a warm cache
    as an installed CLI has it."""
    skip = ("PARADOX_LAB_SEED", "PYTHONDONTWRITEBYTECODE")
    env = {key: value for key, value in os.environ.items() if key not in skip}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_probe(env: dict[str, str]) -> float:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import paradoxlab.cli from {SRC}:\n{proc.stderr}")
    stamp, path = proc.stdout.splitlines()[:2]
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"paradoxlab.cli was imported from {path}, not from {SRC}")
    return float(stamp) - start


def run_pass(workload: str, seed: int, trace: bool, out: Path, env: dict[str, str]) -> dict:
    command = [
        sys.executable,
        str(BENCH / "onepass.py"),
        *("--workload", workload, "--seed", str(seed), "--trace", str(int(trace))),
        *("--out", str(out)),
    ]
    try:
        proc = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass ran over {CHILD_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"a {workload} pass exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


def layer_metrics(plain: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics from one traced pass and the untraced pass beside it."""
    trace = traced["trace"]
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    wall = traced["wall_s"]

    def self_time(layer: str) -> float:
        return self_s.get(layer, 0.0)

    draws = counts.get("rng.draws", 0)
    draws_per_s = _rate(draws, self_time("rng"))
    floor = trace["floor_draws_per_s"]
    m = {
        "trials_per_s": _rate(plain["trials"], plain["wall_s"]),
        "trace.overhead_ratio": wall / plain["wall_s"],
        "cli.self_s": self_time("cli"),
        "rng.self_s": self_time("rng"),
        "rng.calls": calls.get("rng", 0),
        "rng.draws": draws,
        "rng.draws_per_s": draws_per_s,
        "rng.floor_draws_per_s": floor,
        "rng.floor_ratio": draws_per_s / floor,
        "rng.block_bytes_max": counts.get("rng.block_bytes_max", 0),
        "montecarlo.self_s": self_time("montecarlo"),
        "montecarlo.chunks": counts.get("montecarlo.chunks", 0),
    }
    for kernel in KERNELS:
        trials = counts.get(f"{kernel}.trials", 0)
        m[f"{kernel}.self_s"] = self_time(kernel)
        m[f"{kernel}.trials"] = trials
        m[f"{kernel}.trials_per_s"] = _rate(trials, trace["inclusive_s"].get(kernel, 0.0))
    m["qcore.self_s"] = self_time("qcore")
    m["qcore.calls"] = calls.get("qcore", 0)
    m["qcore.us_per_call"] = 1e6 * _rate(self_time("qcore"), calls.get("qcore", 0))
    m["twoslit.self_s"] = self_time("twoslit")
    m["twoslit.points_per_s"] = _rate(counts.get("twoslit.points", 0), self_time("twoslit"))
    for layer in ("lightcone", "bounds"):
        m[f"{layer}.self_s"] = self_time(layer)
        m[f"{layer}.calls"] = calls.get(layer, 0)
    m["serialize.self_s"] = self_time("serialize")
    m["serialize.rows"] = counts.get("serialize.rows", 0)
    m["serialize.bytes"] = counts.get("serialize.bytes", 0)
    m["serialize.bytes_per_s"] = _rate(m["serialize.bytes"], self_time("serialize"))
    for layer in LAYERS:
        m[f"{layer}.share"] = self_time(layer) / wall
    return m


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more repetition, at the mean length so far, ends within ``seconds``."""
    elapsed = time.monotonic() - start
    return elapsed * (done + 1) / done <= seconds


def measure(
    workload: str, seed: int, seconds: float, trace: bool, work: Path
) -> tuple[dict, list]:
    """Metric values and the pass reports they came from."""
    env = child_env()
    passes = []
    if not trace:
        setup_probe(env)
        setup = [setup_probe(env) for _ in range(SETUP_PROBES)]
        start = time.monotonic()
        while not passes or _fits(start, len(passes), seconds):
            passes.append(run_pass(workload, seed, False, work / f"pass{len(passes)}", env))
        times = [t for p in passes for t in p["invocation_s"]]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "invocation_s_p50": statistics.median(times),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        return metrics, passes

    pairs = []
    start = time.monotonic()
    while not pairs or _fits(start, len(pairs), seconds):
        plain = run_pass(workload, seed, False, work / f"pass{len(passes)}", env)
        traced = run_pass(workload, seed, True, work / f"pass{len(passes) + 1}", env)
        passes += [plain, traced]
        pairs.append(layer_metrics(plain, traced))
    metrics = {name: statistics.median(p[name] for p in pairs) for name in pairs[0]}
    attempted = sum(p["attempted"] for p in passes)
    metrics["fail_ratio"] = sum(p["failed"] for p in passes) / attempted
    return metrics, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paradox-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "paradoxlab" / "cli.py").is_file():
        print(f"bench: no paradox-lab sources at {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"run-{os.getpid()}"
    try:
        units = declared_units()
        metrics, passes = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (BenchError, OSError, ValueError) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [message for p in passes for message in p["failures"]]
    for message in failures:
        print(f"bench: FAILED {message}", file=sys.stderr)
    spans: dict[str, list] = {}
    for p in passes:
        for name, (count, seconds) in p.get("trace", {}).get("by_name", {}).items():
            total = spans.setdefault(name, [0, 0.0])
            total[0] += count
            total[1] += seconds
    for name, (count, seconds) in sorted(spans.items(), key=lambda item: -item[1][1])[:20]:
        print(f"bench: span {name}: {count} calls, {seconds:.4f} s", file=sys.stderr)
    invocation_samples = sum(len(p["invocation_s"]) for p in passes if "trace" not in p)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "invocation_samples": invocation_samples,
        "setup_samples": 0 if args.trace else SETUP_PROBES,
    }
    print(json.dumps({"info": info}))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
