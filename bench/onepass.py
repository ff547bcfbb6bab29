"""One pass over a workload's invocation list, in a fresh interpreter.

    python3 bench/onepass.py --workload mc-deep --seed 0 --trace 0 --out DIR

Calls ``paradoxlab.cli.main`` once per invocation, in order, each writing to
its own new directory under DIR, then checks every output and prints one JSON
line: wall time, per-invocation times, peak resident memory, failures and,
with ``--trace 1``, the per-layer trace.  ``--record FILE`` writes the sha256
digests of the outputs instead of comparing them (to re-pin after a
deliberate output change).  ``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from paradoxlab import cli

from outputs import check_invocation, file_digests
from spans import LayerTracer
from workloads import DEFAULT_SEED, OUTPUT_FILES, invocations

DIGESTS = Path(__file__).with_name("digests.json")


def philox_floor(draws: int = 1 << 21, repeats: int = 7) -> float:
    """Raw np.random.Philox draws per second, median of ``repeats`` blocks."""
    bitgen = np.random.Philox(key=DEFAULT_SEED)
    bitgen.random_raw(draws)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        bitgen.random_raw(draws)
        times.append(time.perf_counter() - start)
    return draws / statistics.median(times)


def output_size(out: Path, invs) -> tuple[int, int]:
    """Bytes written and CSV data rows across the pass's output files."""
    size = rows = 0
    for inv in invs:
        for name in OUTPUT_FILES[inv.experiment]:
            data = (out / inv.label / name).read_bytes()
            size += len(data)
            if name.endswith(".csv"):
                rows += data.count(b"\n") - 1
    return size, rows


def run_pass(workload: str, seed: int, trace: bool, out: Path, record: Path | None) -> dict:
    invs = invocations(workload, seed)
    tracer = LayerTracer().install() if trace else None
    codes, times = [], []
    try:
        start = time.perf_counter()
        for inv in invs:
            began = time.perf_counter()
            try:
                code = cli.main(inv.argv(out / inv.label))
            except Exception:  # a crash fails this invocation, not the pass
                traceback.print_exc()
                code = "uncaught exception"
            times.append(time.perf_counter() - began)
            codes.append(code)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if record is not None:
        digests = {}
        for inv in invs:
            digests.update(file_digests(inv, out / inv.label))
        pinned_all = json.loads(record.read_text()) if record.exists() else {}
        pinned_all[workload] = digests
        record.write_text(json.dumps(pinned_all, indent=1, sort_keys=True) + "\n")
    pinned = None
    if seed == DEFAULT_SEED and record is None:
        pinned = json.loads(DIGESTS.read_text()).get(workload, {})
    failures = []
    for inv, code in zip(invs, codes):
        if code != 0:
            failures.append(f"{inv.label}: exit status {code}")
        else:
            failures += check_invocation(inv, out / inv.label, pinned)

    report = {
        "wall_s": wall,
        "invocation_s": times,
        "peak_rss_mb": peak_rss_mb,
        "trials": sum(inv.trials for inv in invs),
        "attempted": len(invs),
        "failed": len(failures),  # at most one message per invocation
        "failures": failures,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer is not None:
        size, rows = output_size(out, invs) if not failures else (0, 0)
        report["trace"] = trace_report(tracer, size, rows)
    return report


def trace_report(tracer: LayerTracer, size: int, rows: int) -> dict:
    return {
        "self_s": dict(tracer.self_s),
        "inclusive_s": dict(tracer.inclusive_s),
        "calls": dict(tracer.calls),
        "counts": {**tracer.counts, "serialize.bytes": size, "serialize.rows": rows},
        "by_name": dict(tracer.by_name),
        "root_s": tracer.root_s,
        "root_layers": sorted(tracer.root_layers),
        "floor_draws_per_s": philox_floor(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args()
    report = run_pass(args.workload, args.seed, bool(args.trace), args.out, args.record)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
