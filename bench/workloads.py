"""The benchmark's workloads: seeded op lists and the program's set-up work.

An op is a dict.  `kind` is "cli" (run `selfsim.cli.main(argv)`) or
"cokernel" (call `selfsim.abelian.cokernel(rows, ncols)` under a time
limit, since the command line has no entry point for a bare matrix).
`check` names the independent check in checks.py that the op's output must
pass.  A run is a whole number of rounds; every round of a workload holds
the same operations in the same proportions, and the seed only draws the
random words and matrices, picks between groups of equal cost and shuffles
the order.
"""

from __future__ import annotations

import random

ODOMETER2 = "bench/groups/odometer2.txt"
ODOMETER3 = "bench/groups/odometer3.txt"

# Nominal seconds one round takes on a 2-core x86-64 container; a run of
# --seconds S does max(1, round(S / ROUND_SECONDS)) rounds.  No clock
# reading decides how many operations run.
ROUND_SECONDS = {"present": 28.0, "wordproblem": 26.0, "analysis": 24.0}

# -- present -------------------------------------------------------------------

# (group, flags, count per round); the text form with --verify is the
# workload, the --json form feeds the independent relator-table check
PRESENT_FIXED = [
    ("trivial:2", "--verify", 14),
    ("adding", "--json", 10),
    ("adding", "--verify", 34),
    ("trivial:3", "--verify", 12),
    ("grigorchuk", "--verify", 12),
    ("basilica", "--verify", 10),
    (ODOMETER3, "--verify", 1),
]
# kneading groups with 2 to 6 generators; a sequence and its complement have
# nuclei of one size and cost the same, so the seed picks one of the two
PRESENT_KNEADING = [("0", "1"), ("0", "1"), ("01", "10"), ("01", "10"),
                    ("001", "110"), ("0101", "1010"), ("10000", "01111")]


def present_round(rng: random.Random) -> list[dict]:
    picks = [(spec, flag) for spec, flag, n in PRESENT_FIXED for _ in range(n)]
    picks += [("kneading:" + rng.choice(pair), "--verify") for pair in PRESENT_KNEADING]
    rng.shuffle(picks)
    return [{"kind": "cli", "argv": ["present", spec, flag, "--no-cache"],
             "check": "present_json" if flag == "--json" else "present", "group": spec}
            for spec, flag in picks]


# -- wordproblem ---------------------------------------------------------------

WP_LENGTHS = (400, 800, 1200, 1600, 2000)
WP_PER_LENGTH = 4
# defining relators of the Grigorchuk group
GRIGORCHUK_RELATORS = ("aa", "bb", "cc", "dd", "bcd", "ad" * 4, "ac" * 8, "ab" * 16)


def _inverse(word: str) -> str:
    return word[::-1].swapcase()


def _reduce(word: str) -> str:
    out: list[str] = []
    for c in word:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def random_reduced(rng: random.Random, letters: str, n: int) -> str:
    out: list[str] = []
    while len(out) < n:
        c = rng.choice(letters)
        if not out or out[-1] != c.swapcase():
            out.append(c)
    return "".join(out)


def grigorchuk_trivial(rng: random.Random, n: int) -> str:
    """Product of conjugates of defining relators, at least n letters after
    free reduction; trivial by construction."""
    word = ""
    while len(word) < n:
        u = random_reduced(rng, "aAbBcCdD", rng.randint(3, 30))
        r = rng.choice(GRIGORCHUK_RELATORS)
        if rng.random() < 0.5:
            r = _inverse(r)
        word = _reduce(word + u + r + _inverse(u))
    return word


def exponent_sum(word: str) -> int:
    return sum(1 if c.islower() else -1 for c in word)


def odometer_word(rng: random.Random, n: int, trivial: bool) -> str:
    """Reduced word over two copies of the odometer with exponent sum zero
    (trivial) or not (nontrivial)."""
    word = random_reduced(rng, "aAbB", n)
    s = exponent_sum(word)
    if trivial:
        pad = "AB" if s > 0 else "ab"
        word = _reduce(word + "".join(pad[i % 2] for i in range(abs(s))))
    elif s == 0:
        word = _reduce(word + ("b" if word[-1] != "B" else "a"))
    return word


def wordproblem_round(rng: random.Random) -> list[dict]:
    ops = []
    for n in WP_LENGTHS:
        for _ in range(WP_PER_LENGTH):
            ops.append(("grigorchuk", grigorchuk_trivial(rng, n), True))
            ops.append(("grigorchuk", random_reduced(rng, "aAbBcCdD", n), False))
            ops.append(("basilica", random_reduced(rng, "aAbB", n), False))
            ops.append((ODOMETER2, odometer_word(rng, n, True), True))
            ops.append((ODOMETER2, odometer_word(rng, n, False), False))
    rng.shuffle(ops)
    return [{"kind": "cli", "argv": ["wp", spec, word], "check": "wp", "group": spec,
             "word": word, "trivial": trivial} for spec, word, trivial in ops]


# -- analysis ------------------------------------------------------------------

# The round is laid out by cost so that both percentiles fall inside a block
# of ops of one cost (on a 2-core x86-64 container): 40 ops under 12 ms,
# then 27 copies of one 67 ms nucleus op holding the median, 18 ops from
# 85 ms to 0.5 s, 8 level-12 quotients of 0.6 s holding the 90th percentile,
# and 7 ops above 0.9 s.  Ops whose cost would straddle a block edge are left
# out.
CHEAP_NUCLEUS = ["adding", "basilica", "grigorchuk", "kneading:0", "kneading:1",
                 "kneading:01", "kneading:10"]
MEDIAN_NUCLEUS, MEDIAN_COPIES = "kneading:000", 27
NUCLEUS_SPECS = CHEAP_NUCLEUS + [MEDIAN_NUCLEUS] + ["kneading:" + v for v in (
    "010101", "100000", "01101", "0000", "1111", "11111", "00000", "0000000")]
# (group, abelianization by theory)
ABEL_SPECS = [("adding", "Z"), ("basilica", "Z"), ("grigorchuk", "trivial group")] + [
    ("kneading:" + v, "Z") for v in ("0", "01", "100000", "01101", "0000", "00000", "11111")]
# (group, level, shape of the level-n graph)
LIMIT_OPS = [(g, n, shape) for g, shape in (("adding", "cycle"), ("grigorchuk", "path"))
             for n in (11, 12, 12, 12, 12, 13)]
SCHREIER_OPS = [("adding", 12, "cycle"), ("adding", 13, "cycle"), ("grigorchuk", 12, "path"),
                ("grigorchuk", 14, "path"), ("basilica", 12, "edges"), ("basilica", 14, "edges")]
# Dense 8x8 matrices with entries in [-5, 5] drawn from these fixed seeds,
# whatever the run's seed: smith_normal_form does not finish on either of
# them (each ran past 60 s).  Each is stopped at the time limit and counted
# as failed.
DENSE_HANG_SEEDS = (1000, 1005)
DENSE_LIMIT_S = 1.0
# seeded dense matrices that finish in milliseconds
DENSE_SIZE = 5
DENSE_COUNT = 28


def dense_matrix(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]


def analysis_round(rng: random.Random) -> list[dict]:
    nucleus = NUCLEUS_SPECS + [MEDIAN_NUCLEUS] * (MEDIAN_COPIES - 1)
    ops = [{"kind": "cli", "argv": ["nucleus", g, "--no-cache"], "check": "nucleus", "group": g}
           for g in nucleus]
    ops += [{"kind": "cli", "argv": ["abel", g, "--no-cache"], "check": "abel", "group": g,
             "expect": expect} for g, expect in ABEL_SPECS]
    ops += [{"kind": "cli", "argv": ["limit", g, "--level", str(n), "--no-cache"],
             "check": "limit", "group": g, "level": n, "shape": shape}
            for g, n, shape in LIMIT_OPS]
    ops += [{"kind": "cli", "argv": ["schreier", g, "--level", str(n)],
             "check": "schreier", "group": g, "level": n, "shape": shape}
            for g, n, shape in SCHREIER_OPS]
    ops += [{"kind": "cokernel", "rows": dense_matrix(random.Random(s), 8), "ncols": 8,
             "limit_s": DENSE_LIMIT_S, "check": "cokernel"} for s in DENSE_HANG_SEEDS]
    ops += [{"kind": "cokernel", "rows": dense_matrix(rng, DENSE_SIZE), "ncols": DENSE_SIZE,
             "limit_s": DENSE_LIMIT_S, "check": "cokernel"} for _ in range(DENSE_COUNT)]
    rng.shuffle(ops)
    return ops


ROUNDS = {"present": present_round, "wordproblem": wordproblem_round,
          "analysis": analysis_round}


def build_ops(workload: str, seed: int, seconds: float) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    return [op for _ in range(rounds) for op in ROUNDS[workload](rng)]


def tiny_ops(workload: str, seed: int) -> list[dict]:
    """For the self-check: of every kind of op in a round (check, expected
    verdict, graph shape, and group for the word problem), the cheapest."""
    cost = {"adding": 0, ODOMETER2: 0, "grigorchuk": 1, "basilica": 1}
    picked: dict = {}
    for op in ROUNDS[workload](random.Random(seed)):
        key = (op["check"], op.get("trivial"), op.get("shape"),
               op["group"] if op["check"] == "wp" else None)
        size = (cost.get(op.get("group"), 9), len(op.get("word", "")), op.get("level", 0),
                op.get("ncols", 0))
        if key not in picked or size < picked[key][0]:
            picked[key] = (size, op)
    return [op for _, op in picked.values()]


def oracle_specs() -> set[str]:
    """Groups whose brute-force values expected.json stores: every group of
    the present workload, and the nucleus ops whose oracle level (twice the
    generator count) stays at 12 or below."""
    specs = {spec for spec, _, _ in PRESENT_FIXED}
    specs |= {"kneading:" + v for pair in PRESENT_KNEADING for v in pair}
    specs |= {g for g in NUCLEUS_SPECS if not g.startswith("kneading:") or len(g) <= 14}
    return specs


# -- set-up ----------------------------------------------------------------------

def setup(workload: str, ops: list[dict]):
    """The program's work before the first timed op: import the package,
    resolve every group of the workload and build its tables or matrices.
    Returns the package's command-line entry point."""
    import selfsim.cli
    from selfsim import abelian, catalogue, presentation

    groups = {op["group"]: catalogue.resolve_group(op["group"]) for op in ops if "group" in op}
    if workload == "present":
        for g in groups.values():
            presentation.choose_ab_tables(g)
            presentation.offcylinder_stabilizer_tables(g)
    elif workload == "wordproblem":
        for op in ops:
            groups[op["group"]].word(op["word"])
    else:
        for op in ops:
            if op["check"] == "abel":
                abelian.sigma_matrix(groups[op["group"]])
    return selfsim.cli.main
