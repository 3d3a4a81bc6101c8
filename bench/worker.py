"""One workload in its own process: set-up, then the timed op list.

Reads {"workload", "ops", "trace", "setup_reps"} as JSON on stdin and
writes JSON lines on stdout: one record per op, in order, then one summary
record.  Run by run.py from the repository root; the outputs are checked
there, after this process has read its own peak memory and exited.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import workloads  # noqa: E402


class OpTimeout(Exception):
    """An op ran past its time limit."""


def _raise_timeout(signum, frame):
    raise OpTimeout


def _purge():
    for name in [m for m in sys.modules if m == "selfsim" or m.startswith("selfsim.")]:
        del sys.modules[name]


def run_op(op: dict, cli_main) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one op."""
    if op["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(op["argv"])
        return rc, out.getvalue(), err.getvalue()
    from selfsim.abelian import cokernel

    signal.setitimer(signal.ITIMER_REAL, op["limit_s"])
    try:
        result = cokernel(op["rows"], op["ncols"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return 0, str(result), ""


def main() -> int:
    job = json.load(sys.stdin)
    ops = job["ops"]
    emit = sys.stdout.write
    setup_runs = []
    for _ in range(job["setup_reps"]):
        _purge()
        t0 = perf_counter()
        cli_main = workloads.setup(job["workload"], ops)
        setup_runs.append(perf_counter() - t0)
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.install()
        cli_main = sys.modules["selfsim.cli"].main
    signal.signal(signal.SIGALRM, _raise_timeout)

    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            rc, out, err = run_op(op, cli_main)
            failed = ""
        except OpTimeout:
            rc, out, err, failed = None, "", "", f"stopped after {op['limit_s']} s"
        except Exception as exc:  # an op that crashes is a failed op, not a dead run
            rc, out, err, failed = None, "", "", repr(exc)
        dt = perf_counter() - t0
        emit(json.dumps({"s": dt, "rc": rc, "out": out, "err": err,
                         "failed": failed}) + "\n")
    wall = perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = {"setup_runs": setup_runs, "setup_s": statistics.median(setup_runs),
               "wall_s": wall, "peak_rss_mb": rss_kb / 1024.0}
    if tracer:
        summary["layers"] = tracer.metrics()
    emit(json.dumps({"summary": summary}) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
