"""Regenerate bench/expected.json, the brute-force values the checks compare
against.

Every value comes from tests/oracles.py or from enumeration in this file,
never from the package's own nucleus, relator or Smith-form code; only the
group definitions are read through the package's parser.  Run from the
repository root (it takes a few minutes):

    python3 bench/expected.py
"""

from __future__ import annotations

import json
import os
import sys
from itertools import permutations, product

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), BENCH]

import oracles  # noqa: E402
from selfsim.catalogue import resolve_group  # noqa: E402

import workloads  # noqa: E402

# the letter whose cylinder the stabilizer tables of the commutation family fix
BASE_LETTER = 0


def oracle_level(group) -> int:
    """Level at which the brute-force signatures separate nucleus states.

    Level 10 merges distinct states of the kneading groups with six
    generators (it reports 15 states where level 12 finds 13), so binary
    groups use twice their generator count when that is deeper.
    """
    if group.d == 2:
        return max(10, 2 * len(group.generators))
    return 6


def length3_count(group, states: dict, level: int) -> int:
    """Ordered triples of nucleus elements whose product acts trivially on
    the level, by composing the elements' level permutations."""
    rank = {v: i for i, v in enumerate(oracles.identity_signature(group, level))}
    perms = [tuple(rank[v] for v in sig) for sig in states]
    inverse = {}
    for k, p in enumerate(perms):
        inv = [0] * len(p)
        for i, j in enumerate(p):
            inv[j] = i
        inverse[tuple(inv)] = k
    count = 0
    for p in perms:
        for q in perms:
            if tuple(p[j] for j in q) in inverse:
                count += 1
    return count


def stabilizer_count(d: int, level: int = 4) -> int:
    """Distinct non-identity prefix permutations of depth at most two that
    fix the base-letter cylinder, plus one exchange of cylinders of unequal
    depth, told apart by their action on every word of length `level`."""
    words_at_level = list(product(range(d), repeat=level))

    def action(rows):
        out = []
        for w in words_at_level:
            for v, u in rows:
                if w[: len(v)] == v:
                    out.append(u + w[len(v):])
                    break
        return tuple(out)

    identity = tuple(words_at_level)
    seen = set()
    for split in product((False, True), repeat=d):
        words = []
        for x in range(d):
            words.extend([(x, y) for y in range(d)] if split[x] else [(x,)])
        movable = [w for w in words if w[0] != BASE_LETTER]
        fixed = [(w, w) for w in words if w[0] == BASE_LETTER]
        for perm in permutations(movable):
            act = action(fixed + list(zip(movable, perm)))
            if act != identity:
                seen.add(act)
    x2 = 1  # the first letter other than the base letter
    lo, hi = (x2, 0), (x2, 1, 0)
    rows = [(lo, hi), (hi, lo), ((x2, 1, 1), (x2, 1, 1))]
    rows += [((x,), (x,)) for x in range(d) if x != x2]
    rows += [((x2, y), (x2, y)) for y in range(2, d)]
    rows += [((x2, 1, y), (x2, 1, y)) for y in range(2, d)]
    seen.add(action(rows))
    return len(seen)


def group_values(spec: str) -> dict:
    group = resolve_group(spec)
    level = oracle_level(group)
    states = oracles.nucleus(group, level=level, cap=2000)
    return {
        "alphabet": group.d,
        "level": level,
        "nucleus": len(states),
        "length3": length3_count(group, states, level),
    }


def main() -> int:
    os.chdir(ROOT)  # definition files are named relative to the root
    specs = sorted(workloads.oracle_specs())
    out = {
        "stabilizers": {str(d): stabilizer_count(d) for d in (2, 3)},
        "groups": {},
    }
    for spec in specs:
        out["groups"][spec] = group_values(spec)
        print(spec, out["groups"][spec], flush=True)
    with open(os.path.join(BENCH, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
