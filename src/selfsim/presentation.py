"""Finite-presentation data for the table group of a contracting group.

Generators: a finite presentation of the prefix-replacement group over the
bare alphabet (kept opaque) together with one letter L(g) per nontrivial
nucleus state, realized concretely as the table acting as g below a fixed
base letter and trivially elsewhere.  Three relator families are emitted,
each both as a symbolic word and as a concrete table product that must
evaluate to the identity:

  C: commutation of embeddings with disjoint supports, and of L(g) with a
     finite stabilizer set of the complementary cylinder;
  N: L(g1) L(g2) L(g3) for every length-at-most-3 nucleus relation;
  S: L(g) rewritten through a level-two permutation, built from the
     state's own permutation, and the embeddings of its sections one level
     down.

Soundness (every relator is the identity) is fully machine-checked.  A C
relator is certified by disjoint supports: the non-identity rows of its two
factors lie below prefix-incomparable words, so the factors commute, and
its commutator table is composed only when read (for `--json`).  Any other
relator, S relators included, is proved by its table's own identity check:
every row maps its cylinder onto itself by a trivial entry.  Completeness
of the presentation is a theorem, not a computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product

from .nucleus import Nucleus, compute_nucleus, length3_index_triples
from .ssgroup import GenWord, GroupDef, Perm
from .vg import Table, thompson_from_antichains
from .words import Antichain, Word, format_word, is_antichain

BASE_LETTER = 0


class UndecidedError(Exception):
    """The word problem ran out of budget while verifying."""


def l_embed(group: GroupDef, v: Word, table: Table) -> Table:
    """Table acting as `table` on the cylinder below v, identically elsewhere."""
    if table.group is not group and table.group.content_hash() != group.content_hash():
        raise ValueError("table over a different group")
    v = tuple(v)
    rows = [(v + a, g, v + b) for a, g, b in table.rows]
    e = GenWord()
    rows.extend((c, e, c) for c in Antichain([v], group.d).complement())
    return Table._trusted(group, rows)


def l_of(group: GroupDef, v: Word, element) -> Table:
    """Embedding of a single group element below the vertex v."""
    return l_embed(group, v, Table.from_element(group, element))


def choose_ab_tables(group: GroupDef) -> tuple[dict, dict]:
    """Canonical prefix movers: a_xy maps the cylinder of y onto that of xy,
    b_x maps the cylinder of the base letter onto that of x (identity at the
    base letter itself).  Completions over the complements are the canonical
    greedy ones."""
    d = group.d
    a_xy = {
        (x, y): thompson_from_antichains(group, [(y,)], [(x, y)])
        for x in range(d)
        for y in range(d)
    }
    b_x = {
        x: Table.identity(group) if x == BASE_LETTER
        else thompson_from_antichains(group, [(BASE_LETTER,)], [(x,)])
        for x in range(d)
    }
    return a_xy, b_x


def embedded_conjugator(group: GroupDef, v: Word, a_xy: dict, b_x: dict) -> Table:
    """Product of movers carrying the base-letter cylinder onto the cylinder
    of v; conjugation by it turns L(g) into the embedding below v."""
    v = tuple(v)
    if not v:
        raise ValueError("cannot conjugate to the empty vertex")
    out = b_x[v[-1]]
    for i in range(len(v) - 1, 0, -1):
        out = a_xy[(v[i - 1], v[i])] * out
    return out


def offcylinder_stabilizer_tables(group: GroupDef) -> list[Table]:
    """Finite stabilizer set of the complement of the base-letter cylinder:
    every permutation table of domain depth at most two fixing that cylinder
    pointwise, plus one exchange of cylinders of unequal depths.  One table
    is built per normal form, in which the d children of a letter that go in
    order onto the d children of one letter merge into that letter's row.
    Splitting the base letter adds only rows that merge back, so the walk
    takes the 2^(d - 1) complete antichains of depth at most two that keep
    the base letter whole, and every permutation of their movable cylinders:
    up to d(d - 1) of them, so alphabets of more than 3 letters raise
    ValueError."""
    d = group.d
    if d > 3:
        raise ValueError(f"the off-cylinder stabilizers are listed for alphabets "
                         f"of at most 3 letters, not {d}")
    e, base = GenWord(), (BASE_LETTER,)
    family = {(x,): tuple((x, y) for y in range(d)) for x in range(d)}
    others = [(x,) for x in range(d) if x != BASE_LETTER]
    found: dict[tuple, Table] = {}  # normal form as (domain, range) pairs
    for split in product((False, True), repeat=d - 1):
        movable = tuple(w for x, s in zip(others, split) for w in (family[x] if s else [x]))
        for perm in permutations(movable):
            if perm == movable:
                continue
            key, i = [(base, base)], 0
            for x, s in zip(others, split):
                if not s:
                    key.append((x, perm[i]))
                    i += 1
                    continue
                kids, i = perm[i:i + d], i + d
                z = kids[0][:1]
                if kids == family[z]:
                    key.append((x, z))
                else:
                    key.extend(zip(family[x], kids))
            key = tuple(key)
            if key not in found:
                found[key] = Table._trusted(
                    group, [(base, e, base)] + [(w, e, u) for w, u in zip(movable, perm)])
    # one exchange of unequal depths, below the first non-base letter
    lo, hi = others[0] + (0,), others[0] + (1, 0)
    t = Table._trusted(group, [(lo, e, hi), (hi, e, lo),
                               *((c, e, c) for c in Antichain([lo, hi], d).complement())])
    found[tuple((v, u) for v, _, u in t.rows)] = t
    return [found[k] for k in sorted(found)]


class Relator:
    """A relator word and its concrete table, which must be the identity.

    A C relator is built from its two factor pairs (t, t^-1) instead, and
    composes its table t1 t2 t1^-1 t2^-1 only when `table` is first read;
    given the `support` of each t, it is certified without composing."""

    __slots__ = ("family", "symbolic", "factors", "supports", "_table")

    def __init__(self, family: str, symbolic: str, table: Table | None = None,
                 factors: tuple[tuple[Table, Table], tuple[Table, Table]] | None = None,
                 supports: tuple[tuple[Word, ...], tuple[Word, ...]] | None = None):
        self.family = family
        self.symbolic = symbolic
        self.factors = factors
        self.supports = supports
        self._table = table

    @property
    def table(self) -> Table:
        if self._table is None:
            (t1, t1_inv), (t2, t2_inv) = self.factors
            self._table = t1 * t2 * t1_inv * t2_inv
        return self._table

    def to_json(self) -> dict:
        return {"family": self.family, "symbolic": self.symbolic,
                "table": self.table.to_json()}


@dataclass
class PresentationBundle:
    group: GroupDef
    s1: list[str]
    relators: dict[str, list[Relator]] = field(repr=False)

    def to_json(self) -> dict:
        return {
            "group": self.group.content_hash(),
            "generators": list(self.s1),
            "relators": {
                fam: [r.to_json() for r in rels]
                for fam, rels in self.relators.items()
            },
        }


def _sym_L(rep: GenWord, v: Word | None = None) -> str:
    at = "" if v is None else f"@{format_word(v)}"
    return f"L{at}[{rep}]"


def _nontrivial_states(nucleus: Nucleus) -> list[int]:
    return [i for i in nucleus if i != nucleus.identity_index]


def _embeddings(nucleus: Nucleus):
    """`embed(v, i)`: the embedding L@v of nucleus state i and its inverse,
    each built once per (v, i) for the life of the returned function."""
    memo: dict[tuple[Word, int], tuple[Table, Table]] = {}

    def embed(v: Word, i: int) -> tuple[Table, Table]:
        pair = memo.get((v, i))
        if pair is None:
            t = l_of(nucleus.group, v, nucleus.reps[i])
            pair = memo[(v, i)] = (t, t.inverse())
        return pair

    return embed


def relators_N(nucleus: Nucleus) -> list[Relator]:
    """One relator L(g1) L(g2) L(g3) per length-at-most-3 nucleus relation."""
    embed = _embeddings(nucleus)
    base = (BASE_LETTER,)
    out = []
    for i, j, k in length3_index_triples(nucleus):
        table = embed(base, i)[0] * embed(base, j)[0] * embed(base, k)[0]
        sym = "*".join(_sym_L(nucleus.reps[t]) for t in (i, j, k))
        out.append(Relator("N", sym, table))
    return out


def relators_C(nucleus: Nucleus) -> list[Relator]:
    """Commutators of embeddings at distinct letters, at distinct depth-two
    vertices, and of L(g) with the off-cylinder stabilizer set."""
    group = nucleus.group
    d = group.d
    states = _nontrivial_states(nucleus)
    if not states:  # no L(g) to commute
        return []
    # each factor's (t, t^-1) pair and support, built once, not per relator
    stabilizers = [((h, h.inverse()), support(h)) for h in offcylinder_stabilizer_tables(group)]
    factor = {}
    for v in [*product(range(d), repeat=1), *product(range(d), repeat=2)]:
        for i in states:
            t = l_of(group, v, nucleus.reps[i])
            factor[v, i] = (_sym_L(nucleus.reps[i], v), (t, t.inverse()), support(t))
    out = []
    for depth in (1, 2):
        for v1, v2 in permutations(product(range(d), repeat=depth), 2):
            for i in states:
                for j in states:
                    (sym1, p1, s1), (sym2, p2, s2) = factor[v1, i], factor[v2, j]
                    out.append(Relator("C", f"[{sym1}, {sym2}]", factors=(p1, p2),
                                       supports=(s1, s2)))
    for i in states:
        _, p1, s1 = factor[(BASE_LETTER,), i]
        for w_index, (p2, s2) in enumerate(stabilizers):
            sym = f"[{_sym_L(nucleus.reps[i])}, W{w_index}]"
            out.append(Relator("C", sym, factors=(p1, p2), supports=(s1, s2)))
    return out


def level2_permutation(group: GroupDef, perm: Perm) -> Table:
    """Trivial-entry level-two table sending (b, y) to (b, perm[y]) for the
    base letter b and fixing every other level-two cylinder: the wreath
    recursion g = perm (g|0, ..., g|d-1) read below the base letter."""
    d, e = group.d, GenWord()
    return Table._trusted(group, [((x, y), e, (x, perm[y]) if x == BASE_LETTER else (x, y))
                                  for x in range(d) for y in range(d)])


def relators_S(nucleus: Nucleus) -> list[Relator]:
    """For each nucleus state g: L(g) equals a level-two permutation times
    the embeddings of its sections below the base letter.  The permutation
    is built from the state's own permutation, and the relator is proved
    by its own identity check."""
    group = nucleus.group
    d = group.d
    embed = _embeddings(nucleus)
    out = []
    for i in nucleus:
        rep = nucleus.reps[i]
        sections = nucleus.sections[i]
        prod = None
        for y in range(d):
            t = embed((BASE_LETTER, y), sections[y])[0]
            prod = t if prod is None else prod * t
        lg = embed((BASE_LETTER,), i)[0]
        h = level2_permutation(group, nucleus.perms[i])
        whole = lg * (h * prod).inverse()
        hmap = ",".join(
            f"{format_word(v)}>{format_word(u)}" for v, _, u in h.rows if v != u
        )
        sym = (
            f"{_sym_L(rep)}*("
            + f"perm<{hmap or 'id'}>*"
            + "*".join(_sym_L(nucleus.reps[sections[y]], (BASE_LETTER, y)) for y in range(d))
            + ")^-1"
        )
        out.append(Relator("S", sym, whole))
    return out


def emit_presentation(group: GroupDef) -> PresentationBundle:
    """Generator letters and the three relator families, with the
    prefix-replacement part of the presentation kept as an opaque import."""
    nucleus = compute_nucleus(group)
    relators = {
        "C": relators_C(nucleus),
        "N": relators_N(nucleus),
        "S": relators_S(nucleus),
    }
    s1 = [_sym_L(nucleus.reps[i]) for i in _nontrivial_states(nucleus)]
    return PresentationBundle(group, s1, relators)


def support(t: Table) -> tuple[Word, ...]:
    """The domain words of t's moving rows, a nonempty entry counting as
    moving even when it is trivial.  t fixes the rest pointwise and maps
    these cylinders onto themselves, so two tables whose supports are
    prefix-incomparable commute."""
    return tuple(v for v, g, u in t.rows if u != v or g)


def verify_relator(relator: Relator) -> bool:
    """Whether the concrete table product is the identity homeomorphism.

    A C relator given its factors' supports is certified without composing
    its table when they are prefix-incomparable.  Otherwise, or when they
    overlap (which proves nothing), the verdict is the table's
    `identity_verdict()`; UndecidedError when no row is wrong but some
    entry ran out of budget."""
    if relator.supports is not None and is_antichain(sum(relator.supports, ())):
        return True
    verdict = relator.table.identity_verdict()
    if verdict == "undecided":
        raise UndecidedError(relator.symbolic)
    return verdict == "equal"
