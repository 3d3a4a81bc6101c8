"""Quick self-check of the benchmark: a tiny op list per workload, run end
to end through the worker (untraced and traced), then corrupted outputs
that the checks must reject.  Exits non-zero on any failure.

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def corrupt_relator_entry(op, rec):
    data = json.loads(rec["out"])
    data["relators"]["N"][0]["table"]["entries"][0] = "a"
    return json.dumps(data)


def corrupt_witness(op, rec):
    return "nontrivial (moves 0)\n" if rec["out"].strip() == "trivial" else "trivial\n"


def corrupt_limit_edge(op, rec):
    data = json.loads(rec["out"])
    data["edges"].pop()
    return json.dumps(data)


def corrupt_count(op, rec):
    lines = rec["out"].splitlines()
    n = int(lines[3].split()[2])
    lines[3] = f"family N: {n} relators ({n - 1} verify as identity)"
    return "\n".join(lines) + "\n"


def corrupt_cokernel(op, rec):
    return "Z/7Z" if rec["out"] != "Z/7Z" else "trivial group"


CORRUPTIONS = {"present_json": corrupt_relator_entry, "present": corrupt_count,
               "wp": corrupt_witness, "limit": corrupt_limit_edge, "cokernel": corrupt_cokernel}


def main() -> int:
    bad = 0
    expected = checks.load_expected()
    untried = dict(CORRUPTIONS)
    for workload in sorted(workloads.ROUNDS):
        ops = workloads.tiny_ops(workload, seed=1)
        for trace in (False, True):
            records, summary = run.run_child(workload, ops, trace)
            problems = checks.check_all(ops, records, expected)
            failed = [r["failed"] for r in records if r["failed"]]
            print(f"{workload} trace={int(trace)}: {len(ops)} ops, {len(problems)} problems, "
                  f"{len(failed)} failed")
            for p in problems + failed:
                print("  ", p)
            bad += bool(problems or failed)
            if trace and not summary["layers"]["cli.self_s"][0] > 0:
                print("   traced run reported no command-line time")
                bad += 1
        for op, rec in zip(ops, records):
            corrupt = untried.pop(op["check"], None)
            if corrupt is None:
                continue
            wrong = dict(rec, out=corrupt(op, rec))
            caught = checks.check_all([op], [wrong], expected)
            print(f"  corrupted {op['check']} output {'rejected' if caught else 'ACCEPTED'}")
            bad += not caught
    if untried:
        print(f"no op exercised corruptions {sorted(untried)}")
        bad += 1
    print("self-check", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
