"""Benchmark of selfsim: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload present --seed 1 --seconds 30 --trace 0

Runs the workload's seeded op list in a child process (worker.py), checks
every output against computations made apart from the program (checks.py),
and prints as its last line {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones from tracing.py.  A summary of the run goes to stderr.
Exits non-zero, without a result line, when the child cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 9
CHILD_TIMEOUT_S = 150.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) * n values lie above it
    when n * (1 - q) is whole, so p90 of 100 ops leaves ten beyond."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def run_child(workload: str, ops: list[dict], trace: bool) -> tuple[list[dict], dict]:
    """Op records and summary from the worker process."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py")], cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        proc.stdin.write(json.dumps({"workload": workload, "ops": ops, "trace": trace,
                                     "setup_reps": SETUP_REPS}))
        proc.stdin.close()
        lines = proc.stdout.readlines()  # parsed once the worker is done
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    records = [json.loads(line) for line in lines]
    summary = records.pop()["summary"] if records and "summary" in records[-1] else None
    if proc.returncode != 0 or summary is None or len(records) != len(ops):
        raise RuntimeError(f"worker exited with code {proc.returncode} "
                           f"after {len(records)} of {len(ops)} ops")
    return records, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ops = workloads.build_ops(args.workload, args.seed, args.seconds)
    try:
        records, summary = run_child(args.workload, ops, bool(args.trace))
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"benchmark did not run: {exc}", file=sys.stderr)
        return 1

    problems = checks.check_all(ops, records)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    failed = sum(1 for r in records if r["failed"])
    done = [r["s"] for r in records if not r["failed"]]
    latencies = [r["s"] for r in records]
    ops_per_s = len(done) / summary["wall_s"]
    if args.trace:
        metrics = summary["layers"]
    else:
        metrics = {
            "setup_s": (summary["setup_s"], "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        }
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} ops, "
          f"{failed} failed, wall {summary['wall_s']:.2f} s, {ops_per_s:.3f} ops/s, "
          f"setup runs {[round(s, 4) for s in summary['setup_runs']]}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
