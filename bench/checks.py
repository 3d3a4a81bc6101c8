"""Checks of every op's output against computations made apart from the
program.

Actions of group elements come from tests/oracles.py, which folds raw
factor lists letter by letter; counts of nucleus states and length-3
relations come from bench/expected.json, which bench/expected.py computes
with the same oracles; cokernels are compared with the oracle's
determinantal divisors.  Only the group definitions are read through the
package (as the tests do).  `check_all` returns a list of problems, empty
when every output is right.
"""

from __future__ import annotations

import json
import os
import re
import sys
from itertools import product

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import oracles  # noqa: E402

# level at which entries and sections are compared with the oracle
SIGNATURE_LEVEL = 8


def load_expected() -> dict:
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def factors(text: str) -> tuple:
    """Factor list of a word: lowercase a generator, uppercase its inverse,
    "e" the identity."""
    return tuple((c.lower(), 1 if c.islower() else -1) for c in text if c not in "e ")


def word_of(text: str) -> tuple[int, ...]:
    return () if text == "e" else tuple(int(c) for c in text)


def parse_abelian(text: str) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors) of a printed abelian group."""
    text = text.strip()
    if text == "trivial group":
        return 0, ()
    rank, fs = 0, []
    for part in text.split(" + "):
        if part == "Z":
            rank += 1
        elif m := re.fullmatch(r"Z\^(\d+)", part):
            rank += int(m.group(1))
        elif m := re.fullmatch(r"Z/(\d+)Z", part):
            fs.append(int(m.group(1)))
        else:
            raise ValueError(f"unreadable abelian group {text!r}")
    return rank, tuple(sorted(fs))


def graph_shape(nv: int, edges) -> str:
    """"cycle", "path" or "other" for a simple graph on range(nv)."""
    adj: list[set[int]] = [set() for _ in range(nv)]
    for i, j in edges:
        if i == j or j in adj[i]:
            return "other"
        adj[i].add(j)
        adj[j].add(i)
    seen, stack = {0}, [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    degrees = sorted(len(a) for a in adj)
    if len(seen) != nv:
        return "other"
    if len(edges) == nv and degrees == [2] * nv:
        return "cycle"
    if len(edges) == nv - 1 and degrees[-1] <= 2:
        return "path"
    return "other"


def is_complete_antichain(words, d: int) -> bool:
    ws = sorted(words)
    if len(set(ws)) != len(ws):
        return False
    for a, b in zip(ws, ws[1:]):
        if b[: len(a)] == a:
            return False
    depth = max(len(w) for w in ws)
    return sum(d ** (depth - len(w)) for w in ws) == d ** depth


class Checker:
    def __init__(self, expected: dict):
        from selfsim.catalogue import resolve_group

        self.expected = expected
        self._resolve = resolve_group
        self._groups: dict = {}
        self._sigs: dict = {}

    def group(self, spec: str):
        if spec not in self._groups:
            path = os.path.join(ROOT, spec)
            self._groups[spec] = self._resolve(path if os.path.exists(path) else spec)
        return self._groups[spec]

    def signature(self, spec: str, fs: tuple, level: int = SIGNATURE_LEVEL):
        key = (spec, fs, level)
        if key not in self._sigs:
            self._sigs[key] = oracles.signature(self.group(spec), fs, level)
        return self._sigs[key]

    # -- present ---------------------------------------------------------------

    def family_sizes(self, spec: str) -> tuple[int, dict[str, int]]:
        """Generator count and C/N/S sizes from the brute-force values."""
        g = self.expected["groups"][spec]
        n, d = g["nucleus"], g["alphabet"]
        w = self.expected["stabilizers"][str(d)]
        c = (n - 1) ** 2 * (d * (d - 1) + d * d * (d * d - 1)) + (n - 1) * w
        return n - 1, {"C": c, "N": g["length3"], "S": n}

    def present(self, op: dict, out: str) -> list[str]:
        gens, sizes = self.family_sizes(op["group"])
        lines = out.splitlines()
        got = re.fullmatch(r"generators beyond the prefix-replacement part: (\d+)", lines[0])
        if not got or int(got.group(1)) != gens or len(lines[1].split()) != gens:
            return [f"generators {lines[:2]} but the oracle nucleus gives {gens}"]
        problems = []
        for fam, line in zip("CNS", lines[2:]):
            m = re.fullmatch(rf"family {fam}: (\d+) relators \((\d+) verify as identity\)", line)
            if not m:
                problems.append(f"unreadable line {line!r}")
            elif int(m.group(1)) != sizes[fam] or int(m.group(2)) != sizes[fam]:
                problems.append(f"{line!r}, expected {sizes[fam]} relators, all verified")
        if len(lines) != 5:
            problems.append(f"{len(lines)} lines of output")
        return problems

    def present_json(self, op: dict, out: str) -> list[str]:
        """Counts as for the text form; every relator table maps each domain
        cylinder onto itself by an entry that acts trivially."""
        spec = op["group"]
        gens, sizes = self.family_sizes(spec)
        data = json.loads(out)
        problems = []
        if len(data["generators"]) != gens:
            problems.append(f"{len(data['generators'])} generators, expected {gens}")
        d = self.group(spec).d
        ident = oracles.identity_signature(self.group(spec), SIGNATURE_LEVEL)
        for fam, size in sizes.items():
            rels = data["relators"][fam]
            if len(rels) != size:
                problems.append(f"family {fam}: {len(rels)} relators, expected {size}")
            for rel in rels:
                t = rel["table"]
                dom = [word_of(w) for w in t["domain"]]
                if t["domain"] != t["range"] or not is_complete_antichain(dom, d):
                    problems.append(f"relator {rel['symbolic']} moves a cylinder")
                elif any(self.signature(spec, factors(e)) != ident for e in t["entries"]):
                    problems.append(f"relator {rel['symbolic']} has a nontrivial entry")
        return problems

    # -- wordproblem -------------------------------------------------------------

    def wp(self, op: dict, out: str) -> list[str]:
        out = out.strip()
        if op["trivial"]:
            return [] if out == "trivial" else [f"{out!r} on a word built trivial"]
        m = re.fullmatch(r"nontrivial \(moves (\d+)\)", out)
        if not m:
            return [f"{out!r} on a nontrivial word"]
        v = word_of(m.group(1))
        if oracles.apply_word(self.group(op["group"]), factors(op["word"]), v) == v:
            return [f"witness {m.group(1)} is not moved"]
        return []

    # -- analysis ----------------------------------------------------------------

    def nucleus(self, op: dict, out: str) -> list[str]:
        """State count against the oracle nucleus where it was computed; each
        printed recursion against the oracle's action; generators, their
        inverses and the identity among the states."""
        spec = op["group"]
        group = self.group(spec)
        lines = out.splitlines()
        m = re.fullmatch(r"nucleus of (\S+): (\d+) states", lines[0])
        if not m or m.group(1) != spec:
            return [f"unreadable header {lines[0]!r}"]
        size = int(m.group(2))
        problems = []
        known = self.expected["groups"].get(spec)
        if known and known["nucleus"] != size:
            problems.append(f"{size} states, the oracle nucleus has {known['nucleus']}")
        if len(lines) != size + 1:
            return problems + [f"{len(lines) - 1} state lines for {size} states"]
        states = {}
        for line in lines[1:]:
            sm = re.fullmatch(r"  (\w+) = ((?:\([\d ]*\))+)\(([\w, ]+)\)", line)
            if not sm:
                return problems + [f"unreadable state line {line!r}"]
            perm = list(range(group.d))
            for cyc in re.findall(r"\(([\d ]*)\)", sm.group(2)):
                pts = [int(x) for x in cyc.split()]
                for i, p in enumerate(pts):
                    perm[p] = pts[(i + 1) % len(pts)]
            states[sm.group(1)] = (perm, sm.group(3).split(", "))
        sigs = {self.signature(spec, factors(rep)) for rep in states}
        for rep, (perm, secs) in states.items():
            for x in range(group.d):
                y, sec = oracles.step(group, list(factors(rep)), x)
                if y != perm[x] or secs[x] not in states or \
                        self.signature(spec, tuple(sec)) != self.signature(spec, factors(secs[x])):
                    problems.append(f"recursion of {rep} is wrong at letter {x}")
        for sym in group.generators:
            for fs in (((sym, 1),), ((sym, -1),), ()):
                if self.signature(spec, fs) not in sigs:
                    problems.append(f"{fs} is not a nucleus state")
        return problems

    def abel(self, op: dict, out: str) -> list[str]:
        return [] if out.strip() == op["expect"] else [f"{out.strip()!r}, expected {op['expect']!r}"]

    def limit(self, op: dict, out: str) -> list[str]:
        """Singleton classes of every level word, the expected graph shape on
        them, and the shift dropping the last letter."""
        n = op["level"]
        data = json.loads(out)
        words = ["".join(map(str, v)) for v in product(range(2), repeat=n)]
        if data["level"] != n or data["classes"] != [[w] for w in words]:
            return [f"level {n} classes are not the {len(words)} singletons in order"]
        problems = []
        shape = graph_shape(len(words), [tuple(e) for e in data["edges"]])
        if shape != op["shape"]:
            problems.append(f"level {n} quotient is a {shape}, expected a {op['shape']}")
        if data["shift"] != [int(w[:-1] or "0", 2) for w in words]:
            problems.append("shift does not drop the last letter")
        return problems

    def schreier(self, op: dict, out: str) -> list[str]:
        n = op["level"]
        group = self.group(op["group"])
        data = json.loads(out)
        levels = list(product(range(group.d), repeat=n))
        if data["vertices"] != ["".join(map(str, v)) for v in levels]:
            return [f"level {n} vertices are not every word in order"]
        if op["shape"] != "edges":
            index = {v: i for i, v in enumerate(data["vertices"])}
            shape = graph_shape(len(levels), [(index[a], index[b]) for a, b, _ in data["edges"]])
            return [] if shape == op["shape"] else [f"Schreier graph is a {shape}"]
        want: dict = {}
        for sym in group.generators:
            for v in levels:
                u = oracles.apply_word(group, ((sym, 1),), v)
                if u != v:
                    want.setdefault((min(u, v), max(u, v)), set()).add(sym)
        got = {(word_of(a), word_of(b)): set(labels) for a, b, labels in data["edges"]}
        return [] if got == want else [f"level {n} edges differ from the oracle's action"]

    def cokernel(self, op: dict, out: str) -> list[str]:
        want = oracles.abelian_invariants(op["rows"], op["ncols"])
        got = parse_abelian(out)
        return [] if got == want else [f"cokernel {got}, oracle {want}"]


def check_all(ops: list[dict], records: list[dict], expected: dict | None = None) -> list[str]:
    checker = Checker(expected if expected is not None else load_expected())
    problems = []
    for op, rec in zip(ops, records):
        label = " ".join(op.get("argv", ["cokernel"]))[:60]
        if rec["failed"]:
            if "limit_s" not in op:
                problems.append(f"{label}: {rec['failed']}")
            continue
        if rec["rc"] != 0:
            problems.append(f"{label}: exit code {rec['rc']} {rec['err'].strip()}")
            continue
        try:
            found = getattr(checker, op["check"])(op, rec["out"])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"unreadable output ({exc!r})"]
        problems.extend(f"{label}: {p}" for p in found)
    return problems
