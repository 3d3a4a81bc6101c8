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
walk, read on the lexicographic indices of that level's words; a vertex
whose section is the identity leaves that walk with its whole subtree.
A level quotient walks each nontrivial nucleus state once, at level n, and
reads the level n - 1 action it needs for the shift off that walk.

Vertices are those indices throughout: the j-th word of level n is j
written in base d with n digits, and dropping its last letter gives
j // d.  A pair j < k of vertices or classes is one int, j * m + k (m their
count), until a graph is written out: only then are digit-string labels
built, once per level, and the graph writes the text `json.dumps` would.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .nucleus import Nucleus
from .ssgroup import GenWord, GroupDef, check_level, level_permutation
from .words import Word


@dataclass(frozen=True)
class MooreDiagram:
    """Nucleus automaton: per-state permutation realized as labeled edges
    state --(x|y)--> section, with y the image of the letter x."""

    states: tuple[str, ...]
    edges: tuple[tuple[int, int, int, int], ...]  # (src, input, output, dst)

    def json_text(self) -> str:
        edges = ", ".join("[%d, %d, %d, %d]" % e for e in self.edges)
        return '{"states": ["%s"], "edges": [%s]}' % ('", "'.join(self.states), edges)

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
            edges.append((i, x, nucleus.perms[i][x], nucleus.sections[i][x]))
    return MooreDiagram(tuple(str(r) for r in nucleus.reps), tuple(edges))


def _labels(d: int, n: int) -> list[str]:
    """Digit-string labels of the level-n vertices, by index; "e" names the
    root, as `format_word` does."""
    if n == 0:
        return ["e"]
    return ["".join(p) for p in product([str(x) for x in range(d)], repeat=n)]


def _walk(nucleus: Nucleus, s: int, n: int) -> tuple[int, ...]:
    """Level-n permutation of nucleus state s, on lexicographic indices; the
    identity state's subtrees leave the walk."""
    def step(t):
        return nucleus.perms[t], nucleus.sections[t]
    return level_permutation(step, s, nucleus.group.d, n, nucleus.identity_index)


def _components(n: int, pairs) -> list[int]:
    """Union-find over 0..n-1 joined along the index pairs; the component
    of each element, numbered in order of their least elements.  When no
    pair joins two elements, each is its own component and the numbering
    is returned at once."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    joined = False
    for i, j in pairs:
        a, b = find(i), find(j)
        if a != b:
            parent[a] = b
            joined = True
    if not joined:
        return parent
    number: dict[int, int] = {}
    return [number.setdefault(find(i), len(number)) for i in range(n)]


def level_identifications(nucleus: Nucleus, n: int) -> set[tuple[Word, Word]]:
    """Unordered pairs of distinct level-n words carried into each other by
    a nontrivial nucleus state."""
    d = nucleus.group.d
    check_level(d, n)
    words = list(product(range(d), repeat=n))  # by index
    return {(words[min(j, k)], words[max(j, k)])
            for s in nucleus if s != nucleus.identity_index
            for j, k in enumerate(_walk(nucleus, s, n)) if j != k}


def cylinder_stable_states(nucleus: Nucleus) -> set[int]:
    """Largest set of states each reachable backwards along every input
    letter from within the set; exactly these carry whole cylinders of
    left-infinite sequences onto each other."""
    d = nucleus.group.d
    incoming = {i: [set() for _ in range(d)] for i in nucleus}
    for h in nucleus:
        for x in range(d):
            incoming[nucleus.sections[h][x]][x].add(h)
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
    """Level-n model of the limit space: classes of vertices (fused along
    cylinder-stable identifications), touching edges between classes, and
    the shift into the level below.  Classes are numbered by their least
    vertex."""

    level: int
    d: int
    vertex_class: tuple[int, ...]  # class of each vertex index
    edges: tuple[int, ...]  # codes i * len(classes) + j of class pairs i < j, ascending
    shift: tuple[int, ...] | None  # class index at level n-1

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Each class's vertex indices, ascending."""
        out: list[list[int]] = [[] for _ in range(max(self.vertex_class) + 1)]
        for j, c in enumerate(self.vertex_class):
            out[c].append(j)
        return tuple(map(tuple, out))

    def _class_labels(self, sep: str) -> list[str]:
        """Each class's vertex labels joined by sep, in class order; with no
        class of two vertices, the labels themselves."""
        names = _labels(self.d, self.level)
        if max(self.vertex_class) + 1 == len(names):
            return names
        return [sep.join(names[j] for j in c) for c in self.classes]

    def json_text(self) -> str:
        labels = self._class_labels('", "')
        m = len(labels)
        edges = ", ".join([f"[{e // m}, {e % m}]" for e in self.edges])
        shift = "null" if self.shift is None else "[%s]" % ", ".join(map(str, self.shift))
        return '{"level": %d, "classes": [["%s"]], "edges": [%s], "shift": %s}' % (
            self.level, '"], ["'.join(labels), edges, shift)

    def to_dot(self) -> str:
        labels = self._class_labels(",")
        m = len(labels)
        lines = ["graph levelquotient {"]
        lines += [f'  n{i} [label="{label}"];' for i, label in enumerate(labels)]
        lines += [f"  n{e // m} -- n{e % m};" for e in self.edges]
        lines.append("}")
        return "\n".join(lines)


def quotient_graph(nucleus: Nucleus, n: int) -> LevelQuotient:
    """Classes, touching edges, and the shift map at level n.

    Each nontrivial nucleus state is walked once, at level n.  The walks of
    the cylinder-stable states give the vertex classes, and also the
    classes one level up: such a state carries the (j // d)-th word of
    level n - 1 to the (P[j] // d)-th, so reading P at j = 0, d, 2d, ...
    is its level n - 1 permutation.  A stable state only joins vertices it
    has fused, so the edges come from the other states' walks alone."""
    d = nucleus.group.d
    check_level(d, n)
    stable = cylinder_stable_states(nucleus) - {nucleus.identity_index}
    walks = [_walk(nucleus, s, n) for s in sorted(stable)]
    vertex_class = _components(d ** n, ((j, k) for walk in walks
                                        for j, k in enumerate(walk) if j != k))
    m = max(vertex_class) + 1

    edges = set()
    for s in nucleus:
        if s != nucleus.identity_index and s not in stable:
            image_class = map(vertex_class.__getitem__, _walk(nucleus, s, n))
            edges |= {a * m + b if a < b else b * m + a
                      for a, b in zip(vertex_class, image_class) if a != b}

    shift = None
    if n >= 1:
        prev_class = _components(d ** (n - 1), ((j, k) for walk in walks
                                                for j in range(d ** (n - 1))
                                                if (k := walk[j * d] // d) != j))
        m_prev = max(prev_class) + 1
        targets = sorted({c * m_prev + prev_class[j // d] for j, c in enumerate(vertex_class)})
        if len(targets) != m:  # one target per class
            raise AssertionError("shift does not descend to classes")
        shift = tuple(t % m_prev for t in targets)  # sorted codes run in class order
    return LevelQuotient(n, d, tuple(vertex_class), tuple(sorted(edges)), shift)


@dataclass(frozen=True)
class SchreierGraph:
    """Level-n orbit graph.  Vertices are the lexicographic indices of the
    level-n words, and each edge j < k, keyed by its code j * d^n + k, is
    labelled with the comma-joined sorted names of the generators that
    carry one end to the other.  Digit-string labels are built only by
    `json_text` and `to_dot`."""

    level: int
    d: int
    labels: dict[int, str]

    def json_text(self) -> str:
        names = _labels(self.d, self.level)
        m = len(names)
        lists = {label: json.dumps(label.split(",")) for label in set(self.labels.values())}
        edges = ", ".join([f'["{names[c // m]}", "{names[c % m]}", {lists[self.labels[c]]}]'
                           for c in sorted(self.labels)])
        return '{"level": %d, "vertices": ["%s"], "edges": [%s]}' % (
            self.level, '", "'.join(names), edges)

    def to_dot(self) -> str:
        names = _labels(self.d, self.level)
        m = len(names)
        lines = ["graph schreier {"]
        lines.extend(f'  "{name}";' for name in names)
        lines += [f'  "{names[c // m]}" -- "{names[c % m]}" [label="{self.labels[c]}"];'
                  for c in sorted(self.labels)]
        lines.append("}")
        return "\n".join(lines)


def schreier_graph(group: GroupDef, n: int) -> SchreierGraph:
    """One edge per pair of level-n vertices that a generator moves into
    each other."""
    check_level(group.d, n)
    m = group.d ** n
    labels: dict[int, str] = {}
    for sym in sorted(group.generators):
        perm = group.perm_on_level(GenWord([(sym, 1)]), n)
        for code in {j * m + k if j < k else k * m + j for j, k in enumerate(perm) if j != k}:
            labels[code] = labels[code] + "," + sym if code in labels else sym
    return SchreierGraph(n, group.d, labels)
