"""Finite-level approximations of the limit dynamical system.

Level-n data: words of length n stand for the pieces of the limit space;
two words touch when a nontrivial nucleus state carries one to the other
(these single-state pairs are exactly the level-n traces of asymptotic
equivalence, because every minimal-nucleus state sits on or below a cycle
of the section graph).  Whole pieces coincide only under states that can
be reached backwards along every letter; those pairs are folded into the
vertex classes, the rest become edges.  Dropping the last letter is the
finite shadow of the shift map and descends to classes.  The action of a
nucleus state or a generator on a whole level is one `level_permutation`
walk, read on the lexicographic list of that level's words.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .nucleus import Nucleus
from .ssgroup import GenWord, GroupDef, level_permutation
from .words import Word, format_word


@dataclass(frozen=True)
class MooreDiagram:
    """Nucleus automaton: per-state permutation realized as labeled edges
    state --(x|y)--> section, with y the image of the letter x."""

    states: tuple[str, ...]
    edges: tuple[tuple[int, int, int, int], ...]  # (src, input, output, dst)

    def to_json(self) -> dict:
        return {
            "states": list(self.states),
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["digraph moore {"]
        for i, s in enumerate(self.states):
            lines.append(f'  n{i} [label="{s}"];')
        for src, x, y, dst in self.edges:
            lines.append(f'  n{src} -> n{dst} [label="{x}|{y}"];')
        lines.append("}")
        return "\n".join(lines)


def moore_diagram(nucleus: Nucleus) -> MooreDiagram:
    edges = []
    for i in nucleus:
        for x in range(nucleus.group.d):
            edges.append((i, x, nucleus.perm(i)[x], nucleus.section(i, x)))
    return MooreDiagram(tuple(str(r) for r in nucleus.reps), tuple(edges))


def _level_words(d: int, n: int, limit: int) -> list[Word]:
    """The level-n words in lexicographic order, the order of the indices
    that `level_permutation` returns."""
    if n < 0 or d ** n > limit:
        raise ValueError(f"level {n} must be at least 0 and have at most {limit} vertices")
    return list(product(range(d), repeat=n))


def _moves(nucleus: Nucleus, states, n: int, limit: int):
    """Index pairs (j, k), j != k, of level-n words such that one of the
    given nucleus states carries the j-th word to the k-th."""
    def step(s):
        return nucleus.perms[s], nucleus.sections[s]
    for s in states:
        for j, k in enumerate(level_permutation(step, s, nucleus.group.d, n, limit)):
            if j != k:
                yield j, k


def _roots(n: int, pairs) -> list[int]:
    """Union-find over 0..n-1 joined along the index pairs; the
    representative of each element's component."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        parent[find(i)] = find(j)
    return [find(i) for i in range(n)]


def level_identifications(nucleus: Nucleus, n: int, limit: int = 1 << 20) -> set[tuple[Word, Word]]:
    """Unordered pairs of distinct level-n words carried into each other by
    a nontrivial nucleus state."""
    words = _level_words(nucleus.group.d, n, limit)
    states = (i for i in nucleus if i != nucleus.identity_index)
    return {(words[min(j, k)], words[max(j, k)]) for j, k in _moves(nucleus, states, n, limit)}


def cylinder_stable_states(nucleus: Nucleus) -> set[int]:
    """Largest set of states each reachable backwards along every input
    letter from within the set; exactly these carry whole cylinders of
    left-infinite sequences onto each other."""
    d = nucleus.group.d
    incoming = {i: [set() for _ in range(d)] for i in nucleus}
    for h in nucleus:
        for x in range(d):
            incoming[nucleus.section(h, x)][x].add(h)
    alive = set(nucleus)
    changed = True
    while changed:
        changed = False
        for s in sorted(alive):
            if any(not (incoming[s][x] & alive) for x in range(d)):
                alive.discard(s)
                changed = True
    return alive


@dataclass(frozen=True)
class LevelQuotient:
    """Level-n model of the limit space: classes of words (fused along
    cylinder-stable identifications), touching edges between classes, and
    the shift into the level below."""

    level: int
    blocks: tuple[tuple[Word, ...], ...]
    edges: frozenset[tuple[int, int]]
    shift: tuple[int, ...] | None  # block index at level n-1

    def class_of(self, word: Word) -> int:
        word = tuple(word)
        for i, block in enumerate(self.blocks):
            if word in block:
                return i
        raise KeyError(format_word(word))

    def is_connected(self) -> bool:
        return len(set(_roots(len(self.blocks), self.edges))) <= 1

    def degree_sequence(self) -> list[int]:
        deg = [0] * len(self.blocks)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def is_cycle(self) -> bool:
        return (
            len(self.edges) == len(self.blocks)
            and self.is_connected()
            and all(d == 2 for d in self.degree_sequence())
        )

    def is_path(self) -> bool:
        if len(self.blocks) == 1:
            return not self.edges
        deg = self.degree_sequence()
        return (
            len(self.edges) == len(self.blocks) - 1
            and self.is_connected()
            and sorted(deg)[:2] == [1, 1]
            and all(d <= 2 for d in deg)
        )

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "classes": [[format_word(w) for w in block] for block in self.blocks],
            "edges": sorted([i, j] for i, j in self.edges),
            "shift": list(self.shift) if self.shift is not None else None,
        }

    def to_dot(self) -> str:
        lines = ["graph levelquotient {"]
        for i, block in enumerate(self.blocks):
            label = ",".join(format_word(w) for w in block)
            lines.append(f'  n{i} [label="{label}"];')
        for i, j in sorted(self.edges):
            lines.append(f"  n{i} -- n{j};")
        lines.append("}")
        return "\n".join(lines)


def _level_blocks(nucleus: Nucleus, n: int, stable: set[int], limit: int) -> tuple[tuple[Word, ...], ...]:
    """Level-n words fused along the cylinder-stable states, each class
    sorted and the classes ordered by their least word."""
    words = _level_words(nucleus.group.d, n, limit)
    roots = _roots(len(words), _moves(nucleus, stable, n, limit))
    block_words: dict[int, list[Word]] = {}
    for root, v in zip(roots, words):
        block_words.setdefault(root, []).append(v)
    return tuple(
        tuple(sorted(ws)) for ws in sorted(block_words.values(), key=lambda ws: min(ws))
    )


def quotient_graph(nucleus: Nucleus, n: int, limit: int = 1 << 20) -> LevelQuotient:
    """Classes, touching edges, and the shift map at level n."""
    stable = cylinder_stable_states(nucleus) - {nucleus.identity_index}
    blocks = _level_blocks(nucleus, n, stable, limit)
    block_of = {w: i for i, ws in enumerate(blocks) for w in ws}

    edges = set()
    for v, u in level_identifications(nucleus, n, limit):
        bi, bj = block_of[v], block_of[u]
        if bi != bj:
            edges.add((min(bi, bj), max(bi, bj)))

    shift = None
    if n >= 1:
        prev_block = {w: i for i, ws in enumerate(_level_blocks(nucleus, n - 1, stable, limit))
                      for w in ws}
        targets = []
        for ws in blocks:
            hits = {prev_block[w[:-1]] for w in ws}
            if len(hits) != 1:
                raise AssertionError("shift does not descend to classes")
            targets.append(hits.pop())
        shift = tuple(targets)
    return LevelQuotient(n, blocks, frozenset(edges), shift)


@dataclass(frozen=True)
class SchreierGraph:
    """Level-n orbit graph: words connected by generator moves."""

    level: int
    vertices: tuple[Word, ...]
    edges: frozenset[tuple[Word, Word]]
    labels: dict  # edge -> sorted generator names

    def is_connected(self) -> bool:
        index = {v: i for i, v in enumerate(self.vertices)}
        pairs = ((index[v], index[u]) for v, u in self.edges)
        return len(set(_roots(len(self.vertices), pairs))) <= 1

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "vertices": [format_word(v) for v in self.vertices],
            "edges": [
                [format_word(v), format_word(u), self.labels[(v, u)]]
                for v, u in sorted(self.edges)
            ],
        }

    def to_dot(self) -> str:
        lines = ["graph schreier {"]
        for v in self.vertices:
            lines.append(f'  "{format_word(v)}";')
        for v, u in sorted(self.edges):
            label = ",".join(self.labels[(v, u)])
            lines.append(f'  "{format_word(v)}" -- "{format_word(u)}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def schreier_graph(group: GroupDef, n: int, limit: int = 1 << 20) -> SchreierGraph:
    """Vertices are the level-n words, one edge per generator move."""
    words = _level_words(group.d, n, limit)
    labels: dict[tuple[Word, Word], set[str]] = {}
    for sym in group.generators:
        for j, k in enumerate(group.perm_on_level(GenWord([(sym, 1)]), n, limit)):
            if j != k:
                labels.setdefault((words[min(j, k)], words[max(j, k)]), set()).add(sym)
    return SchreierGraph(n, tuple(words), frozenset(labels),
                         {k: sorted(v) for k, v in labels.items()})
