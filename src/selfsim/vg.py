"""Table calculus: boundary homeomorphisms built from prefix replacements.

An element is a table of rows (v, g, u): the cylinder below v is carried
onto the cylinder below u, acting by the group element g in between, i.e.
v w -> u g(w).  Domain and range columns are complete antichains.  A row
splits into its d children without changing the homeomorphism, which is
what composition, equality and canonical forms are built on.  Tables with
trivial entries realize the prefix-replacement (Higman-Thompson type)
homeomorphisms over the bare alphabet.

Tables are validated where they enter: the public constructor, `from_json`
and `thompson_from_antichains` check every entry and both columns.  Results
built inside the calculus (products, inverses, splits, refinements,
canonical forms) have complete antichain columns by construction and go
through the unchecked `Table._trusted` instead.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter

from .nucleus import NotContractingError, compute_nucleus, nucleus_products
from .ssgroup import BudgetExceeded, GenWord, GroupDef, perm_parity
from .words import (
    Antichain,
    Word,
    coarsen,
    format_word,
    is_complete_antichain,
    is_prefix,
    parse_word,
)

Row = tuple[Word, GenWord, Word]
_domain = itemgetter(0)
_range = itemgetter(2)


class Table:
    """One boundary homeomorphism; rows sorted by domain word."""

    __slots__ = ("group", "rows")

    def __init__(self, group: GroupDef, rows):
        checked: list[Row] = []
        for row in rows:
            try:
                v, g, u = row
            except (TypeError, ValueError):
                raise ValueError(f"row arity mismatch: {row!r}") from None
            checked.append((tuple(v), group.word(g), tuple(u)))
        if not checked:
            raise ValueError("a table needs at least one row")
        checked.sort(key=_domain)
        if not is_complete_antichain([r[0] for r in checked], group.d):
            raise ValueError("domain is not a complete antichain")
        if not is_complete_antichain([r[2] for r in checked], group.d):
            raise ValueError("range is not a complete antichain")
        self.group = group
        self.rows = tuple(checked)

    @classmethod
    def _trusted(cls, group: GroupDef, rows) -> "Table":
        """A table from rows of tuple words and GenWords of `group` whose
        columns are complete antichains by construction: sorted by domain,
        never re-checked.  Outside input goes through `Table(...)`."""
        t = cls.__new__(cls)
        t.group = group
        t.rows = tuple(sorted(rows, key=_domain))
        return t

    @classmethod
    def identity(cls, group: GroupDef) -> "Table":
        return cls._trusted(group, [((), GenWord(), ())])

    @classmethod
    def from_element(cls, group: GroupDef, g) -> "Table":
        """The table of a single group element acting at the root."""
        return cls._trusted(group, [((), group.word(g), ())])

    # -- splitting ---------------------------------------------------------

    def _children(self, row: Row, side: int) -> list[Row]:
        """The d rows that replace `row`, sorted by the chosen column
        (0 domain, 2 range).  A trivial entry fixes every letter, so its
        children are already in range order and need no wreath fold."""
        v, g, u = row
        d = self.group.d
        if not g:
            return [(v + (x,), g, u + (x,)) for x in range(d)]
        perm, sections = self.group.wreath(g)
        kids = [(v + (x,), sections[x], u + (perm[x],)) for x in range(d)]
        if side == 2:
            kids.sort(key=_range)
        return kids

    def split_row(self, i: int) -> "Table":
        """Replace row i by its d children; the action is unchanged."""
        new = list(self.rows[:i]) + list(self.rows[i + 1 :])
        new.extend(self._children(self.rows[i], 0))
        return Table._trusted(self.group, new)

    def _refine(self, target, side: int) -> "Table":
        """Split rows until the chosen column (0 domain, 2 range) equals
        `target`, a complete antichain that must refine it."""
        if not isinstance(target, Antichain):
            target = Antichain(target, self.group.d)
        if not is_complete_antichain(target.words, self.group.d):
            raise ValueError("target antichain is not complete")
        want = set(target.words)
        e = GenWord()
        rows = []
        for row, (w, _, _) in self._paired(self.rows, side, [(w, e, w) for w in want], 0):
            if w not in want:  # a target word had to be split
                raise ValueError("target does not refine the table column")
            rows.append(row)
        return Table._trusted(self.group, rows)

    def _paired(self, a_rows, a_side: int, b_rows, b_side: int):
        """Split two row lists, whose chosen columns are complete antichains,
        until those columns agree; yields the matched row pairs in order of
        the shared column word.  A row is split only when its partner's word
        is deeper, and then once, so each split level is visited once."""
        a = sorted(a_rows, key=itemgetter(a_side), reverse=True)
        b = sorted(b_rows, key=itemgetter(b_side), reverse=True)
        while a and b:
            ra, rb = a.pop(), b.pop()
            wa, wb = ra[a_side], rb[b_side]
            if wa == wb:
                yield ra, rb
            elif len(wa) < len(wb) and wb[: len(wa)] == wa:
                a.extend(reversed(self._children(ra, a_side)))
                b.append(rb)
            elif wa[: len(wb)] == wb:  # wb is shorter: distinct equal lengths fail here
                b.extend(reversed(self._children(rb, b_side)))
                a.append(ra)
            else:
                raise ValueError("columns do not cover the boundary alike")
        if a or b:
            raise ValueError("columns do not cover the boundary alike")

    def refine_domain(self, target) -> "Table":
        """Split until the domain antichain equals `target` (which must
        refine it); the homeomorphism is unchanged."""
        return self._refine(target, 0)

    def refine_range(self, target) -> "Table":
        """Split until the range antichain equals `target`."""
        return self._refine(target, 2)

    # -- group operations --------------------------------------------------

    def compose(self, other: "Table") -> "Table":
        """self after other, as maps of the boundary."""
        if self.group is not other.group and self.group.content_hash() != other.group.content_hash():
            raise ValueError("tables over different groups")
        rows = [(v, g * h, u)
                for (v, h, _), (_, g, u) in self._paired(other.rows, 2, self.rows, 0)]
        return Table._trusted(self.group, rows)

    def __mul__(self, other: "Table") -> "Table":
        return self.compose(other)

    def inverse(self) -> "Table":
        return Table._trusted(self.group, [(u, g.inverse(), v) for v, g, u in self.rows])

    def apply(self, word: Word) -> Word:
        """Image of a finite word long enough to reach the domain antichain."""
        word = tuple(word)
        d = self.group.d
        for x in word:
            if not 0 <= x < d:
                raise ValueError(f"letter {x} is not in the alphabet 0..{d - 1}")
        for v, g, u in self.rows:
            if is_prefix(v, word):
                return u + self.group.act(g, word[len(v) :])
        raise ValueError(f"{format_word(word)} is shorter than the domain antichain")

    def identity_verdict(self) -> str:
        """Whether the table is the identity homeomorphism: "different" at
        the first row that does not map its cylinder onto itself (the
        columns are complete antichains, so the range word must be the
        domain word) by a trivial entry; otherwise "undecided" when some
        entry ran out of word-problem budget, and "equal" when none did."""
        undecided = False
        for v, g, u in self.rows:
            if u != v:
                return "different"
            if g:
                status = self.group.is_trivial(g).status
                if status == "nontrivial":
                    return "different"
                undecided = undecided or status == "undecided"
        return "undecided" if undecided else "equal"

    def equals(self, other: "Table") -> str:
        """"equal", "different", or "undecided" (word-problem budget ran out):
        the `identity_verdict` of self * other^-1.  Composing refines both
        domains to a common one, and each composed entry is g1 g2^-1 for the
        entries g1, g2 the two tables carry there."""
        return (self * other.inverse()).identity_verdict()

    # -- canonical form ------------------------------------------------------

    def canonical_form(self) -> "Table":
        """Merge split sibling rows back, bottom-up, and rewrite entries to
        shortest nucleus representatives.

        The interning machine is minimal, so a state is named by its row:
        its permutation and the states of its sections.  Each entry is
        interned once, and a sibling family merges when its range
        permutation and the states of its entries are the row of a nucleus
        state or of a product of two (`nucleus_products`), into that state's
        representative; the result is a normal form up to that search bound,
        and table equality never depends on it.  Each entry may add as many
        states as the group's budget allows, however many the products
        put there; an entry past that keeps its word and its family
        unmerged.  Without a computable nucleus the table is returned
        merge-free.
        """
        group = self.group
        try:
            nucleus = compute_nucleus(group)
        except NotContractingError:
            return self
        machine = group.machine
        by_row = {(machine.perms[s], machine.kids[s]): s
                  for s in (*nucleus.ids, *nucleus_products(nucleus))}

        def state(g: GenWord) -> int | None:
            try:
                return machine.intern(g)
            except BudgetExceeded:
                return None

        def merge(family):
            # items sorted by domain word: entry x of perm is the image of x
            ranges = [u for _, _, u, _ in family]
            if any(not u or u[:-1] != ranges[0][:-1] for u in ranges):
                return None
            s = by_row.get((tuple(u[-1] for u in ranges), tuple(it[3] for it in family)))
            return None if s is None else (family[0][0][:-1], machine.reps[s], ranges[0][:-1], s)

        items = [(v, g, u, state(g)) for v, g, u in self.rows]
        rows = [(v, machine.reps[s] if s in nucleus.index else g, u)
                for v, g, u, s in coarsen(items, group.d, itemgetter(0), merge)]
        return Table._trusted(group, rows)

    # -- invariants ----------------------------------------------------------

    def sign(self) -> int:
        """Parity of the table (alphabet of odd size, trivial entries only):
        sort by domain, take the parity of the permutation that sorts the
        range column.  Splitting a row preserves it when d is odd."""
        if self.group.d % 2 == 0:
            raise ValueError("sign is undefined for even alphabets "
                             "(every table has an even splitting)")
        for _, g, _ in self.rows:
            if self.group.is_trivial(g).status != "trivial":
                raise ValueError("sign is defined for trivial entries only")
        return perm_parity(sorted(range(len(self.rows)), key=lambda i: self.rows[i][2]))

    def image_of_clopen(self, clopen: Antichain) -> Antichain:
        """Coarsest antichain of the image of a clopen set; each refined
        domain cylinder maps onto the full cylinder below its range word."""
        if clopen.d != self.group.d:
            raise ValueError("alphabet mismatch")
        e = GenWord()
        full = [(w, e, w) for w in clopen.words + clopen.complement().words]
        inside = clopen.words
        hit = []
        for (v, _, u), _ in self._paired(self.rows, 0, full, 0):
            # the last clopen word not after v is the only one that can prefix it
            k = bisect_right(inside, v)
            if k and is_prefix(inside[k - 1], v):
                hit.append(u)
        return Antichain.clopen(hit, self.group.d)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "domain": [format_word(v) for v, _, _ in self.rows],
            "entries": [str(g) for _, g, _ in self.rows],
            "range": [format_word(u) for _, _, u in self.rows],
        }

    @classmethod
    def from_json(cls, group: GroupDef, data: dict) -> "Table":
        if not isinstance(data, dict):
            raise ValueError("a table is a JSON object")
        columns = [data.get(k) for k in ("domain", "entries", "range")]
        if not all(isinstance(c, list) for c in columns) or len({len(c) for c in columns}) != 1:
            raise ValueError("a table's domain, entries and range must be lists of equal length")
        domain, entries, range_ = columns
        rows = zip(
            (parse_word(s) for s in domain),
            (GenWord.parse(s) for s in entries),
            (parse_word(s) for s in range_),
        )
        return cls(group, rows)

    def __eq__(self, other):
        return (
            isinstance(other, Table)
            and self.rows == other.rows
            and self.group.content_hash() == other.group.content_hash()
        )

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        rows = "; ".join(
            f"{format_word(v)}:{g}:{format_word(u)}" for v, g, u in self.rows
        )
        return f"Table[{rows}]"


def _equalized(c1, c2, d: int) -> tuple[list[Word], list[Word]]:
    """Two word lists made equal in length by splitting, on the shorter
    side, its lexicographically least shallowest word, both kept sorted;
    the lengths must agree modulo d-1."""
    c1, c2 = sorted(c1), sorted(c2)
    while len(c1) != len(c2):
        side = c1 if len(c1) < len(c2) else c2
        w = min(side, key=lambda w: (len(w), w))
        side.remove(w)
        side.extend(w + (x,) for x in range(d))
        side.sort()
    return c1, c2


def thompson_from_antichains(group: GroupDef, sources, targets) -> Table:
    """Trivial-entry table sending the cylinder of sources[i] onto that of
    targets[i] by prefix replacement.

    Complete inputs must pair off completely.  Incomplete inputs of equal
    size are extended over the complements canonically: the complement
    antichains are equalized in cardinality by splitting the lexicographically
    least shallowest cylinder on the smaller side, then paired in lexicographic
    order.
    """
    sources = [tuple(w) for w in sources]
    targets = [tuple(w) for w in targets]
    if len(sources) != len(targets):
        raise ValueError("antichain size mismatch")
    a1 = Antichain(sources, group.d)
    a2 = Antichain(targets, group.d)
    if len(a1) != len(sources) or len(a2) != len(targets):
        raise ValueError("repeated words in antichain")
    e = GenWord()
    rows = [(v, e, u) for v, u in zip(sources, targets)]
    if a1.is_complete() != a2.is_complete():
        raise ValueError("one antichain is complete and the other is not")
    if not a1.is_complete():
        c1, c2 = a1.complement().words, a2.complement().words
        if (len(c1) - len(c2)) % (group.d - 1) != 0:
            raise ValueError("complements have mismatched cylinder residues")
        rows.extend((v, e, u) for v, u in zip(*_equalized(c1, c2, group.d)))
    return Table(group, rows)


def same_orbit_clopen(u1: Antichain, u2: Antichain) -> bool:
    """Whether two nonempty proper clopen sets lie in one orbit of the
    prefix-replacement group: exactly when their cylinder-count residues
    agree."""
    if u1.d != u2.d:
        raise ValueError("alphabet mismatch")
    for u in (u1, u2):
        if u.is_empty() or u.is_whole():
            raise ValueError("clopen sets must be nonempty and proper")
    return u1.m_invariant() == u2.m_invariant()


def orbit_witness(group: GroupDef, u1: Antichain, u2: Antichain) -> Table:
    """An element mapping the first clopen set onto the second; exists
    exactly when same_orbit_clopen holds."""
    if not same_orbit_clopen(u1, u2):
        raise ValueError("clopen sets lie in different orbits")
    return thompson_from_antichains(group, *_equalized(u1.words, u2.words, group.d))
