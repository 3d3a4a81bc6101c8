"""Wreath-recursion engine for self-similar groups.

A group is given by finitely many generators, each carrying a permutation
of the alphabet and a tuple of section words: g(x w) = perm(x) section_x(w).
Elements are freely reduced words over the generators (GenWord), each one
string in which an uppercase letter is an inverse.  Actions and sections on
finite words are evaluated by one walk over the letters through a step
table of the wreath product multiplication, collecting each letter's
section pieces and freely reducing each section once at the end, so the
walk is linear in the word length; the action on a whole level is one
walk down the tree that steps each distinct section once and writes a
trivial section's whole subtree at once; triviality and
equality are decided coinductively over the (possibly infinite) automaton
of sections, and a bisimulation-based interning machine assigns
canonical state ids so that repeated section and equality queries are
cheap.  Words, products of two states and inverses share one interning
routine; products and inverses are read off the machine's tables.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .words import Word

Perm = tuple[int, ...]


def identity_perm(d: int) -> Perm:
    return tuple(range(d))


def invert_perm(perm: Perm) -> Perm:
    out = [0] * len(perm)
    for x, y in enumerate(perm):
        out[y] = x
    return tuple(out)


def perm_from_cycles(text: str, d: int) -> Perm:
    """Parse disjoint cycle notation like "(0 1)(2 3)"; "()" is the
    identity.  A letter appears at most once in all the cycles together."""
    mapping = list(range(d))
    seen: set[int] = set()
    for cyc in re.findall(r"\(([^()]*)\)", text):
        try:
            pts = [int(s) for s in cyc.replace(",", " ").split()]
        except ValueError:
            raise ValueError(f"bad cycle {cyc!r}") from None
        for p in pts:
            if p < 0 or p >= d:
                raise ValueError(f"letter {p} out of range in cycle {cyc!r}")
            if p in seen:
                raise ValueError(f"letter {p} appears twice in cycles {text!r}")
            seen.add(p)
        for i, p in enumerate(pts):
            mapping[p] = pts[(i + 1) % len(pts)]
    return tuple(mapping)


def perm_cycles(perm: Sequence[int]) -> list[list[int]]:
    """The cycles of a permutation of 0..n-1, fixed points included, each
    listed from its least point, in order of that point."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        if cyc:
            cycles.append(cyc)
    return cycles


def perm_to_cycles(perm: Perm) -> str:
    return "".join("(" + " ".join(map(str, cyc)) + ")"
                   for cyc in perm_cycles(perm) if len(cyc) > 1) or "()"


def perm_parity(perm: Sequence[int]) -> int:
    """0 for even permutations, 1 for odd."""
    return (len(perm) - len(perm_cycles(perm))) & 1


# the most vertices a level may have for its whole-level action to be built
LEVEL_VERTICES = 1 << 20

# the most letters a group's alphabet may have: on trivial:256 every command
# ends in about 1 s within 1 GB (2-core x86-64), and at 512 letters `present`
# takes over 3 s
ALPHABET_LETTERS = 1 << 8


def check_level(d: int, n: int) -> None:
    """Raise ValueError unless level n of the d-ary tree exists and has at
    most LEVEL_VERTICES (2^20) vertices.  A level past the bound's bit
    length is rejected before d ** n is built, so a huge n fails at once."""
    if n < 0 or n > LEVEL_VERTICES.bit_length() or d ** n > LEVEL_VERTICES:
        raise ValueError(f"level {n} must be at least 0 and have at most "
                         f"{LEVEL_VERTICES} vertices")


def level_permutation(step, root, d: int, n: int, identity) -> Perm:
    """Level-n permutation, on lexicographic indices, of the automaton state
    `root`; `step(state)` gives a state's first-level permutation and its
    sections, and `identity` is the state that acts trivially.

    The walk goes down one level at a time carrying each vertex's image
    index and state, and calls `step` once per distinct state, never on
    `identity`.  A vertex whose state is `identity` leaves the walk: its
    image index m, moved down by the s = d^(levels left) vertices below
    it, fills its whole subtree at once, out[i*s : i*s + s] = m*s .. m*s +
    s - 1, and nothing is written when m is the vertex i itself.  So a
    bounded automaton walks only the few vertices with a nontrivial
    section.  Until the first vertex leaves, the walk carries no vertex
    list, and the test for `identity` is one lookup in the dict of distinct
    states it builds anyway: a root whose sections are never `identity`
    costs one list comprehension per level, as a walk without the test."""
    check_level(d, n)
    perms, sections = {}, {}
    images, states = [0], [root]
    vertices = out = None  # the walked vertices and the output, once one leaves
    for level in range(n):
        distinct = dict.fromkeys(states)
        if identity in distinct:
            if vertices is None:
                vertices, out = range(len(states)), list(range(d ** n))
            size = d ** (n - level)
            for i, m, s in zip(vertices, images, states):
                if s == identity and m != i:
                    out[i * size:i * size + size] = range(m * size, m * size + size)
            live = [k for k, s in enumerate(states) if s != identity]
            vertices = [vertices[k] for k in live]
            images = [images[k] for k in live]
            states = [states[k] for k in live]
            del distinct[identity]
        for s in distinct:
            if s not in perms:
                perms[s], sections[s] = step(s)
        images = [j * d + y for j, perm in zip(images, map(perms.__getitem__, states))
                  for y in perm]
        states = list(chain.from_iterable(map(sections.__getitem__, states)))
        if vertices is not None:
            vertices = [i * d + x for i in vertices for x in range(d)]
    if out is None:
        return tuple(images)
    for i, m in zip(vertices, images):
        out[i] = m
    return tuple(out)


class GenWord:
    """Freely reduced word over generator symbols; the element representation.

    The word is one string, `text`: a lowercase letter is a generator and
    its uppercase letter that generator's inverse, so no "aA" or "Aa" stands
    next to each other.  The empty word is the identity.  Equality, hashing
    and length are the string's own; `factors` is a (symbol, +1 or -1) view.
    """

    __slots__ = ("text",)

    def __init__(self, factors=()):
        letters = []
        for sym, exp in factors:
            if exp not in (1, -1):
                raise ValueError("factor exponents must be +1 or -1")
            if not (isinstance(sym, str) and sym.isascii() and sym.islower() and len(sym) == 1):
                raise ValueError(f"factor symbol {sym!r} is not one lowercase letter")
            letters.append(sym if exp == 1 else sym.upper())
        self.text = _reduce("".join(letters))

    @classmethod
    def parse(cls, text: str) -> "GenWord":
        """Parse "aB c" style: lowercase = generator, uppercase = inverse,
        "e" = identity; whitespace optional."""
        if not isinstance(text, str):
            raise ValueError(f"not a word: {text!r}")
        letters = "".join(text.split()).replace("e", "")
        if not (letters.isascii() and letters.isalpha()):
            for ch in letters:
                if not (ch.islower() or ch.isupper()):
                    raise ValueError(f"bad symbol {ch!r} in word {text!r}")
            # the Kelvin sign is the one non-ASCII letter whose lowercase,
            # k, can be a generator name
            letters = letters.replace("\u212a", "K")
        return _word(_reduce(letters))

    @property
    def factors(self) -> tuple[tuple[str, int], ...]:
        return tuple((ch.lower(), 1 if ch.islower() else -1) for ch in self.text)

    # words are immutable, so a product with the identity can share its operand
    def inverse(self) -> "GenWord":
        return _word(self.text[::-1].swapcase()) if self.text else self

    def __mul__(self, other: "GenWord") -> "GenWord":
        """Both operands are reduced, so letters cancel only at the seam."""
        a, b = self.text, other.text
        if not b:
            return self
        if not a:
            return other
        k, n = 0, min(len(a), len(b))
        while k < n and a[-1 - k] == b[k].swapcase():
            k += 1
        return _word(a[:len(a) - k] + b[k:])

    def __len__(self):
        return len(self.text)

    def __bool__(self):
        return bool(self.text)

    def __eq__(self, other):
        return isinstance(other, GenWord) and self.text == other.text

    def __hash__(self):
        return hash(self.text)

    def __str__(self):
        return self.text or "e"

    def __repr__(self):
        return f"GenWord({str(self)!r})"


def _word(text: str) -> GenWord:
    """The GenWord of a text that is already freely reduced."""
    w = object.__new__(GenWord)
    w.text = text
    return w


# the most deletion passes `_reduce` makes before it walks the word once
_PASSES = 8


def _reduce(text: str, pairs: frozenset[str] | None = None) -> str:
    """Free reduction: delete cancelling pairs such as "aA" and "Aa" until
    none is left.  `pairs` holds the pairs that can occur, by default those
    of the text's letters: a letter and its uppercase cancel.  Each pass
    deletes every pair it finds, inside `str.replace`; cancellations that
    nest deeper than `_PASSES` passes, as in a long conjugate u r u^-1 with
    r trivial, are finished by one walk with a stack."""
    if len(text) < 2:
        return text
    if pairs is None:
        letters = set(text)
        pairs = frozenset(p for ch in letters if ch.isupper() and ch.lower() in letters
                          and ch.lower().islower() for p in (ch.lower() + ch, ch + ch.lower()))
    for _ in range(_PASSES):
        n = len(text)
        for p in pairs:
            text = text.replace(p, "")
        if len(text) == n:
            return text
    out: list[str] = []
    for ch in text:
        if out and out[-1] + ch in pairs:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


IDENTITY = GenWord()


class Verdict(NamedTuple):
    """Outcome of a (semi-)decision: status plus an optional witness word."""

    status: str
    witness: Word | None = None


class BudgetExceeded(Exception):
    """State exploration hit its configured limit before closing."""


@dataclass(frozen=True)
class Budget:
    """The new states (see `Machine.search`) that one intern may add, which
    bound its section depth too; a group holds one for its machine and word
    problem."""

    max_states: int = 5_000

    def __post_init__(self):
        if self.max_states < 0:
            raise ValueError(f"a budget cannot be negative: {self}")


_NAME_RE = re.compile(r"^[a-df-z]$")  # single letter; "e" is the identity
_HEADER_RE = re.compile(r"alphabet\s*:(.*)", re.IGNORECASE)  # "alphabet: d", any case
# a generator line: name = cycle groups, then one group of sections, with
# only whitespace between the groups
_GENERATOR_RE = re.compile(r"([^=\s]*)\s*=\s*((?:\([^()]*\)\s*)*)\(([^()]*)\)")


class GroupDef:
    """A self-similar group: alphabet size plus one recursion per generator."""

    def __init__(self, d: int, recursion: dict[str, tuple[Perm, tuple[GenWord, ...]]],
                 name: str | None = None):
        if d < 2:
            raise ValueError("alphabet must have at least two letters")
        if d > ALPHABET_LETTERS:
            raise ValueError(f"alphabet must have at most {ALPHABET_LETTERS} letters")
        self.d = d
        self.name = name
        rec: dict[str, tuple[Perm, tuple[GenWord, ...]]] = {}
        for sym, (perm, sections) in recursion.items():
            if not _NAME_RE.match(sym):
                raise ValueError(f"bad generator name {sym!r} (single letter, not 'e')")
            perm = tuple(perm)
            if sorted(perm) != list(range(d)):
                raise ValueError(f"generator {sym!r}: permutation is not a bijection of 0..{d-1}")
            sections = tuple(sections)
            if len(sections) != d:
                raise ValueError(f"generator {sym!r}: expected {d} sections")
            rec[sym] = (perm, sections)
        self.recursion = rec
        self.generators = tuple(rec)
        for sym, (_, sections) in rec.items():
            for s in sections:
                for t, _ in s.factors:
                    if t not in rec:
                        raise ValueError(f"section of {sym!r} uses undeclared symbol {t!r}")
        # each letter's recursion, a generator's and its inverse's, with the
        # sections as texts: the inverse has the inverted permutation, and at
        # x the inverse of the section at the preimage letter
        self._factors: dict[str, tuple[Perm, tuple[str, ...]]] = {}
        for sym, (perm, sections) in rec.items():
            self._factors[sym] = (perm, tuple(s.text for s in sections))
            inv = invert_perm(perm)
            self._factors[sym.upper()] = (
                inv, tuple(sections[inv[x]].inverse().text for x in range(d)))
        self._letters = "".join(self._factors)
        self._pairs = frozenset(p for sym in rec for p in (sym + sym.upper(), sym.upper() + sym))
        # the step table of `wreath`, one dict per tuple of letter images
        self._steps: dict[Perm, dict] = {identity_perm(d): {}}
        self.budget = Budget()
        self._machine: Machine | None = None

    # -- parsing and printing -------------------------------------------

    @classmethod
    def parse(cls, text: str, name: str | None = None) -> "GroupDef":
        """Parse the group-definition text format.

        One header "alphabet: d", then one line per generator:
        name = (cycles)(s_0, s_1, ..., s_{d-1}); '#' starts a comment.
        """
        d = None
        gen_lines: list[tuple[str, str, str]] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            header = _HEADER_RE.match(line)
            if header:
                if d is not None:
                    raise ValueError(f"second alphabet header {line!r}")
                try:
                    d = int(header[1])
                except ValueError:
                    raise ValueError(f"bad alphabet header {line!r}") from None
                continue
            match = _GENERATOR_RE.fullmatch(line)
            if match is None:
                raise ValueError(f"bad generator line {line!r}")
            gen_lines.append(match.groups())
        if d is None:
            raise ValueError("missing 'alphabet: d' header")
        if d > ALPHABET_LETTERS:  # before the cycles build d-letter permutations
            raise ValueError(f"alphabet must have at most {ALPHABET_LETTERS} letters")
        recursion = {}
        for sym, cycles_text, sections_text in gen_lines:
            if sym in recursion:
                raise ValueError(f"generator {sym!r} is defined twice")
            sections = tuple(GenWord.parse(part.strip() or "e")
                             for part in sections_text.split(","))
            perm = perm_from_cycles(cycles_text, d)
            recursion[sym] = (perm, sections)
        return cls(d, recursion, name=name)

    def to_text(self) -> str:
        lines = [f"alphabet: {self.d}"]
        for sym in self.generators:
            perm, sections = self.recursion[sym]
            secs = ", ".join(str(s) for s in sections)
            lines.append(f"{sym} = {perm_to_cycles(perm)}({secs})")
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def __repr__(self):
        label = self.name or ",".join(self.generators) or "trivial"
        return f"GroupDef({label}, d={self.d})"

    # -- element construction -------------------------------------------

    def word(self, text_or_word) -> GenWord:
        """Coerce to a GenWord and validate its symbols against this group."""
        w = text_or_word if isinstance(text_or_word, GenWord) else GenWord.parse(text_or_word)
        unknown = w.text.lstrip(self._letters)  # from the first unknown letter on
        if unknown:
            raise ValueError(f"unknown generator {unknown[0].lower()!r}")
        return w

    # -- wreath recursion ------------------------------------------------

    def wreath(self, word: GenWord) -> tuple[Perm, tuple[GenWord, ...]]:
        """Permutation and section tuple of an element, in one walk over the
        letters, rightmost first (it acts first).

        The walk's state is the tuple of images of all d letters under the
        letters read so far.  A step table, made once per group and filled
        as steps are first met, maps a state and a letter to the next state
        and to the d pieces the letter adds to the sections: at x, the
        letter's section at the current image of x.  The pieces of each
        section are joined once and freely reduced once.  The table holds
        at most |<level-1 permutations>| states and 2k steps per state, for
        k generators.
        """
        d = self.d
        if not word.text:
            return identity_perm(d), (IDENTITY,) * d
        images = identity_perm(d)
        steps = self._steps[images]
        taken: list[str] = []
        for ch in reversed(word.text):
            try:
                steps, images, pieces = steps[ch]
            except KeyError:  # a step met for the first time
                fperm, fsecs = self._factors[ch]
                nxt = tuple(fperm[y] for y in images)
                steps[ch] = (self._steps.setdefault(nxt, {}), nxt, tuple(fsecs[y] for y in images))
                steps, images, pieces = steps[ch]
            taken += pieces
        taken.reverse()  # the piece of section x of the i-th letter is at d * i + d - 1 - x
        pairs = self._pairs
        return images, tuple(_word(_reduce("".join(taken[x::d]), pairs))
                             for x in reversed(range(d)))

    def act(self, word: GenWord, v: Word) -> Word:
        """Image of a finite word; length-preserving and prefix-compatible."""
        out = []
        cur = word
        for x in v:
            perm, sections = self.wreath(cur)
            out.append(perm[x])
            cur = sections[x]
        return tuple(out)

    def section(self, word: GenWord, v: Word) -> GenWord:
        """Element acting below the vertex v: g(v w) = g(v) g|_v(w)."""
        cur = word
        for x in v:
            cur = self.wreath(cur)[1][x]
        return cur

    def perm_on_level(self, word: GenWord, n: int) -> Perm:
        """Permutation of the n-th level, on lexicographic indices; one
        `level_permutation` walk that folds each distinct section once.  The
        walk's states are the words' texts, which hash and compare in C; a
        section that reduces to the empty word leaves the walk."""
        def step(text):
            perm, sections = self.wreath(_word(text))
            return perm, tuple(sec.text for sec in sections)

        return level_permutation(step, word.text, self.d, n, "")

    # -- the word problem --------------------------------------------------

    def is_trivial(self, word: GenWord | str) -> Verdict:
        """Coinductive triviality check.

        An element is trivial iff every section (at every vertex) fixes the
        first level; the exploration revisits each reduced section word once,
        accepting cycles.  Returns a moved word as witness when nontrivial,
        and "undecided" when the search would pass the group's state budget
        before closing: more than `max_states` section words, or one longer
        than both `max_states` and the word.  Each level down adds a word,
        so the state count bounds the depth too.
        """
        word = self.word(word)
        longest = max(self.budget.max_states, len(word))
        seen = {word}
        queue: deque[tuple[GenWord, Word]] = deque([(word, ())])
        while queue:
            cur, path = queue.popleft()
            perm, sections = self.wreath(cur)
            for x in range(self.d):
                if perm[x] != x:
                    return Verdict("nontrivial", path + (x,))
            for x, sec in enumerate(sections):
                if sec not in seen:
                    if len(seen) >= self.budget.max_states or len(sec) > longest:
                        return Verdict("undecided")
                    seen.add(sec)
                    queue.append((sec, path + (x,)))
        return Verdict("trivial")

    def are_equal(self, g: GenWord, h: GenWord) -> Verdict:
        """Equality in the group acting on the tree; reduces to triviality
        of g h^-1.  The witness, if any, is a word the two images disagree on."""
        g, h = self.word(g), self.word(h)
        res = self.is_trivial(g * h.inverse())
        if res.status == "trivial":
            return Verdict("equal")
        if res.status == "nontrivial":
            return Verdict("different", self.act(h.inverse(), res.witness))
        return Verdict("undecided")

    # -- canonical machine states ----------------------------------------

    @property
    def machine(self) -> "Machine":
        if self._machine is None:
            self._machine = Machine(self)
        return self._machine


class Machine:
    """Interning table of canonical automaton states for one group.

    Two elements receive the same state id exactly when they are bisimilar
    (same level-one permutation, pairwise bisimilar sections), i.e. when
    they act identically on the whole tree, so the states form a minimal
    automaton.  Section lookup on interned states is a tuple index.

    A cluster is a strongly connected piece of the section graph; once
    built it never changes.  Its ids are consecutive and its sections
    outside it point to older states.  One registry keys every cluster by
    its rows (permutation, section ids), sorted, with the sections inside
    the cluster blanked: for a state on no cycle that is its own row.
    Ids follow the order in which clusters are built; they stay internal,
    and nothing printed is keyed by them.
    """

    def __init__(self, group: GroupDef):
        self.group = group
        self.perms: list[Perm] = []
        self.kids: list[tuple[int, ...]] = []
        self.reps: list[GenWord] = []
        self._by_word: dict[GenWord, int] = {}
        self._clusters: dict[tuple, tuple[int, ...]] = {}  # key -> first ids
        self._cycle: list[range | None] = []  # cyclic cluster of each state
        self._inverses: dict[int, int] = {}
        self._products: dict[tuple[int, int], int] = {}
        self._base: int | None = None  # states a search started from, less the identity
        self.identity = self.intern(IDENTITY)

    def __len__(self):
        return len(self.perms)

    @contextmanager
    def search(self):
        """Within the block, interns count against the budget the identity
        and every state added since the block began, not only their own."""
        outer, self._base = self._base, len(self.perms) - 1
        try:
            yield
        finally:
            self._base = outer

    def intern(self, word: GenWord) -> int:
        """State of a word.  Besides the budget of `_intern`, a section word
        longer than both the state budget and the word itself raises."""
        word = self.group.word(word)
        longest = max(self.group.budget.max_states, len(word))

        def row(w: GenWord):
            if len(w) > longest:
                raise BudgetExceeded(f"section length exceeded {longest}")
            return self.group.wreath(w)

        return self._intern(word, row, self._by_word, lambda w: w)

    def product_state(self, s1: int, s2: int) -> int:
        return self._intern((s1, s2), self.pair_row, self._products,
                            lambda pair: self.reps[pair[0]] * self.reps[pair[1]])

    def pair_row(self, pair: tuple[int, int]) -> tuple[Perm, tuple[tuple[int, int], ...]]:
        """Permutation and section pairs of the product of a pair of states,
        rightmost acting first: (g*h)|_x = g|_{h(x)} * h|_x."""
        g, h = pair
        ph, kg = self.perms[h], self.kids[g]
        return (tuple(map(self.perms[g].__getitem__, ph)),
                tuple(zip(map(kg.__getitem__, ph), self.kids[h])))

    def inverse_state(self, sid: int) -> int:
        def row(s):  # inverted permutation; at x the inverse of the section at its preimage
            inv = invert_perm(self.perms[s])
            return inv, tuple(map(self.kids[s].__getitem__, inv))

        return self._intern(sid, row, self._inverses, lambda s: self.reps[s].inverse())

    # Collect the root's unknown nodes breadth first, then settle their
    # graph one strongly connected component at a time, descendants first,
    # so that every section leaving a component already has its state.  A
    # node is a word, a pair of states (their product) or a state (its
    # inverse); `row` gives its level-one permutation and section nodes,
    # `memo` the states of nodes met before, and `word_of` a word for it,
    # asked only of nodes of new states, whose rep is the shortest, then
    # least, such word.  The work grows with the new nodes and the clusters
    # they point into, not with the machine.  The budget bounds the new
    # nodes: those of this call, or within a search those of the whole
    # search.  Each level down adds a node, so it bounds the depth too.
    def _intern(self, root, row, memo: dict, word_of) -> int:
        hit = memo.get(root)
        if hit is not None:
            return hit

        max_states = self.group.budget.max_states
        room = max_states if self._base is None else max_states + self._base - len(self.perms)
        unknown: dict = {}  # node -> (perm, refs), each ref ("s", id) or ("n", node)
        queue = deque([root])
        while queue:
            node = queue.popleft()
            if node in unknown or node in memo:
                continue
            perm, sections = row(node)
            if len(unknown) >= room:
                raise BudgetExceeded(f"state budget {max_states} exhausted")
            refs: list[tuple[str, object]] = []
            for sec in sections:
                sid = memo.get(sec)
                if sid is not None:
                    refs.append(("s", sid))
                else:
                    refs.append(("n", sec))
                    queue.append(sec)
            unknown[node] = (perm, refs)

        first = len(self.perms)
        state: dict = {}
        for scc in _tarjan_sccs(unknown, lambda v: (r for k, r in unknown[v][1] if k == "n")):
            self._settle(scc, unknown, state)
        words: dict[int, list[GenWord]] = {}
        for node, sid in state.items():
            if sid >= first:
                words.setdefault(sid, []).append(word_of(node))
        for sid, cands in words.items():
            self.reps[sid] = min(cands, key=lambda w: (len(w), str(w)))
        memo.update(state)
        return state[root]

    def _settle(self, scc: list, unknown: dict, state: dict) -> None:
        """Give each node of one strongly connected component of the node
        graph its state.

        The component is reduced by bisimulation to blocks, then looked up
        whole: first in the cyclic clusters it points into, then among the
        registered clusters of its key; failing both, its blocks are new.
        A cluster it points into is the one match its key misses: the
        component then unrolls part of that very cluster, e.g. the word aa
        or the cycle bb -> cc -> dd -> bb in the Grigorchuk group, all
        bisimilar to the identity.
        """
        # rows over positions in the component: section i inside is ~i,
        # a section outside is its state id
        pos = {v: i for i, v in enumerate(scc)}
        rows = [(perm, [r if k == "s" else ~pos[r] if r in pos else state[r] for k, r in refs])
                for perm, refs in map(unknown.__getitem__, scc)]
        labels: dict[Perm, int] = {}
        block = [labels.setdefault(perm, len(labels)) for perm, _ in rows]
        count = len(labels)
        while len(scc) > 1:  # refine by sections; one node is one block
            sigs: dict[tuple, int] = {}
            block = [sigs.setdefault((b, tuple(~block[~k] if k < 0 else k for k in kids)),
                                     len(sigs))
                     for b, (_, kids) in zip(block, rows)]
            if len(sigs) == count:
                break
            count = len(sigs)
        # blocks as rows of would-be states n, n + 1, ..., numbered by first node
        n = len(self.perms)
        q: list = [None] * count
        for j, (perm, kids) in zip(block, rows):
            if q[j] is None:
                q[j] = (perm, tuple(n + block[~k] if k < 0 else k for k in kids))
        touched = {c for _, kids in q for k in kids if k < n and (c := self._cycle[k])}
        ckey = _cluster_key(q, n)
        registered = (range(s, s + count) for s in self._clusters.get(ckey, ()))
        for t in chain.from_iterable(chain(touched, registered)):
            image = self._walk(q, n, t)
            if image is not None:
                break
        else:
            image = self._add(q, ckey)
        for v, j in zip(scc, block):
            state[v] = image[j]

    def _walk(self, q: list, n: int, t: int) -> list[int] | None:
        """Parallel walk from block 0 and state t that maps each block's
        section blocks onto the state's sections; the image when every row
        agrees, None at the first mismatch."""
        image: list = [None] * len(q)
        image[0] = t
        todo = [0]
        while todo:
            j = todo.pop()
            perm, kids = q[j]
            s = image[j]
            if perm != self.perms[s]:
                return None
            for k, sk in zip(kids, self.kids[s]):
                if k >= n and image[k - n] is None:
                    image[k - n] = sk
                    todo.append(k - n)
                elif (image[k - n] if k >= n else k) != sk:
                    return None
        return image

    def _add(self, q: list, ckey: tuple) -> range:
        """Append the rows `q` as a new cluster and register it."""
        n = len(self.perms)
        self._clusters[ckey] = self._clusters.get(ckey, ()) + (n,)
        ids = range(n, n + len(q))
        cycle = ids if len(q) > 1 or any(k >= n for k in q[0][1]) else None
        for perm, kids in q:
            self.perms.append(perm)
            self.kids.append(kids)
            self.reps.append(None)
            self._cycle.append(cycle)
        return ids

    def reachable(self, roots: Iterable[int]) -> set[int]:
        return reachable(self.kids.__getitem__, roots)


def reachable(successors, roots) -> set:
    """The nodes reachable from `roots` along `successors(node)`, roots
    included."""
    seen = set()
    stack = list(roots)
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        stack.extend(successors(s))
    return seen


def _tarjan_sccs(nodes, successors):
    """Strongly connected components, emitted descendants-first (iterative)."""
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    out: list[list] = []
    counter = [0]
    for start in nodes:
        if start in index:
            continue
        work = [(start, iter(successors(start)))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        onstack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for kid in it:
                if kid not in index:
                    index[kid] = low[kid] = counter[0]
                    counter[0] += 1
                    stack.append(kid)
                    onstack.add(kid)
                    work.append((kid, iter(successors(kid))))
                    advanced = True
                    break
                if kid in onstack:
                    low[node] = min(low[node], index[kid])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                out.append(scc)
    return out


def _cluster_key(rows, first: int) -> tuple:
    """Registry key of a cluster with ids from `first` on: its rows, sorted,
    with every section inside the cluster (an id from `first` on) as -1."""
    return tuple(sorted((perm, tuple(-1 if k >= first else k for k in kids))
                        for perm, kids in rows))

