import functools
import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from oracles import apply_word
from selfsim import GroupDef, resolve_group
from selfsim.nucleus import compute_nucleus
from selfsim.presentation import l_embed
from selfsim.ssgroup import Budget, GenWord, Machine
from selfsim.vg import (
    Table,
    orbit_witness,
    same_orbit_clopen,
    thompson_from_antichains,
)
from selfsim.words import Antichain, parse_word


ODOMETER3 = "alphabet: 3\na = (0 1 2)(e, e, a)\n"


def w(s):
    return parse_word(s)


def swap_table(group):
    return Table(group, [((0,), "e", (1,)), ((1,), "e", (0,))])


def random_complete_antichain(rng, d, max_depth):
    words = []

    def build(prefix):
        if len(prefix) >= max_depth or rng.random() < 0.55:
            words.append(prefix)
        else:
            for x in range(d):
                build(prefix + (x,))

    build(())
    return words


def random_table(rng, group, entries, max_depth=3):
    dom = random_complete_antichain(rng, group.d, max_depth)
    ran = random_complete_antichain(rng, group.d, max_depth)
    while len(ran) != len(dom):
        dom = random_complete_antichain(rng, group.d, max_depth)
        ran = random_complete_antichain(rng, group.d, max_depth)
    rng.shuffle(ran)
    return Table(group, [(v, rng.choice(entries), u) for v, u in zip(dom, ran)])


def catalogue_entries(group):
    nucleus = compute_nucleus(group)
    return list(nucleus.reps)


def test_make_table_examples(trivial2, adding):
    t = Table(trivial2, [((0,), "e", (1,)), ((1,), "e", (0,))])
    assert t.apply((0, 1, 1)) == (1, 1, 1)
    Table(adding, [((0,), "a", (1,)), ((1,), "e", (0,))])
    with pytest.raises(ValueError, match="range"):
        Table(trivial2, [((0,), "e", (0,)), ((1,), "e", (1, 0))])
    with pytest.raises(ValueError, match="domain"):
        Table(trivial2, [((0,), "e", (0,)), ((1, 0), "e", (1,))])
    with pytest.raises(ValueError, match="arity"):
        Table(trivial2, [((0,), "e"), ((1,), "e", (0,))])


def test_apply_rejects_letters_outside_the_alphabet(trivial2):
    t = swap_table(trivial2)
    for word in ((0, 2), (2,)):
        with pytest.raises(ValueError, match="letter 2 is not in the alphabet"):
            t.apply(word)
    with pytest.raises(ValueError, match="letter -1"):
        t.apply((-1, 0))


MALFORMED_TABLES = {
    "incomplete domain": ({"domain": ["0"], "entries": ["a"], "range": ["e"]}, "domain"),
    "overlapping range": ({"domain": ["0", "1"], "entries": ["e", "e"], "range": ["0", "01"]},
                          "range"),
    "bad domain letter": ({"domain": ["0", "2"], "entries": ["e", "e"], "range": ["0", "1"]},
                          "domain"),
    "bad range letter": ({"domain": ["0", "1"], "entries": ["e", "e"], "range": ["0", "2"]},
                         "range"),
    "non-digit letter": ({"domain": ["0", "x"], "entries": ["e", "e"], "range": ["0", "1"]},
                         "not a word"),
    "unknown generator": ({"domain": ["0", "1"], "entries": ["q", "e"], "range": ["1", "0"]},
                          "unknown generator"),
}


@pytest.mark.parametrize("data,message", MALFORMED_TABLES.values(), ids=MALFORMED_TABLES)
def test_from_json_rejects_malformed_tables(adding, data, message):
    """Tables are validated where they enter; the calculus trusts them after."""
    with pytest.raises(ValueError, match=message):
        Table.from_json(adding, data)


def test_permutation_rejects_a_non_bijection(trivial2):
    with pytest.raises(ValueError, match="range"):
        Table(trivial2, [((0,), "e", (0,)), ((1,), "e", (0,))])


def test_split_row_examples(adding, basilica, trivial2):
    t = Table.from_element(adding, "a").split_row(0)
    assert [(w, str(g), u) for w, g, u in t.rows] == [
        ((0,), "e", (1,)),
        ((1,), "a", (0,)),
    ]
    t = Table.from_element(basilica, "a").split_row(0)
    assert [(w, str(g), u) for w, g, u in t.rows] == [
        ((0,), "e", (1,)),
        ((1,), "b", (0,)),
    ]
    t = Table.identity(trivial2).split_row(0)
    assert [(w, str(g), u) for w, g, u in t.rows] == [
        ((0,), "e", (0,)),
        ((1,), "e", (1,)),
    ]


def test_split_preserves_action(adding):
    t = Table.from_element(adding, "a")
    s = t.split_row(0).split_row(1)
    for v in product(range(2), repeat=6):
        assert t.apply(v) == s.apply(v)


def test_refine_domain(adding):
    t = Table.from_element(adding, "a")
    target = Antichain([w("00"), w("01"), w("1")], 2)
    r = t.refine_domain(target)
    assert Antichain([v for v, _, _ in r.rows], 2) == target
    for v in product(range(2), repeat=6):
        assert t.apply(v) == r.apply(v)
    with pytest.raises(ValueError):
        Table.from_element(adding, "a").split_row(0).refine_domain(Antichain([w("e")], 2))


def test_refine_to_level_two(adding, basilica, trivial2):
    level2 = Antichain([w("00"), w("01"), w("10"), w("11")], 2)
    for group, elt in ((adding, "a"), (basilica, "a"), (trivial2, "e")):
        t = Table.from_element(group, elt)
        r = t.refine_domain(level2)
        assert Antichain([v for v, _, _ in r.rows], 2) == level2
        assert t.equals(r) == "equal"
        for v in product(range(2), repeat=4):
            assert t.apply(v) == r.apply(v)


def test_compose_examples(trivial2, adding):
    s = swap_table(trivial2)
    assert (s * s).equals(Table.identity(trivial2)) == "equal"
    ta = Table.from_element(adding, "a")
    assert (ta * ta).equals(Table.from_element(adding, "aa")) == "equal"
    assert (ta * Table.identity(adding)).equals(ta) == "equal"
    perm, secs = adding.wreath(adding.word("aa"))
    split = (ta * ta).refine_domain(Antichain([w("0"), w("1")], 2))
    for (v, g, u), x in zip(split.rows, range(2)):
        assert adding.are_equal(g, secs[x]).status == "equal"
        assert u == (perm[x],)


def test_inverse_examples(trivial2, adding, basilica):
    s = swap_table(trivial2)
    assert s.inverse().equals(s) == "equal"
    ta = Table.from_element(adding, "a")
    assert ta.inverse().rows == Table.from_element(adding, "A").rows
    t = Table(basilica, [((0,), "a", (1, 0)), ((1, 0), "e", (1, 1)), ((1, 1), "b", (0,))])
    inv = t.inverse()
    assert [(v, str(g), u) for v, g, u in inv.rows] == [
        ((0,), "B", (1, 1)),
        ((1, 0), "A", (0,)),
        ((1, 1), "e", (1, 0)),
    ]
    assert (t * inv).equals(Table.identity(basilica)) == "equal"
    assert (inv * t).equals(Table.identity(basilica)) == "equal"


def test_tables_equal_examples(adding, grigorchuk):
    ta = Table.from_element(adding, "a")
    assert ta.equals(ta.split_row(0).split_row(0)) == "equal"
    assert ta.equals(Table.identity(adding)) == "different"
    tb = Table.from_element(grigorchuk, "b")
    tcd = Table.from_element(grigorchuk, "cd")
    assert tb.equals(tcd) == "equal"


def test_tables_equal_undecided_propagates():
    from selfsim.ssgroup import GroupDef

    g = GroupDef.parse("alphabet: 2\na = (0 1)(e, e)\nb = ()(a, c)\nc = ()(a, d)\nd = ()(e, b)\n")
    lhs = Table.from_element(g, "adadadad")
    g.budget = Budget(max_states=3)
    assert lhs.equals(Table.identity(g)) == "undecided"
    g.budget = Budget()
    assert lhs.equals(Table.identity(g)) == "equal"


def test_canonical_form_examples(trivial2, adding):
    t = Table.identity(trivial2).split_row(0).split_row(0)
    assert t.canonical_form().rows == Table.identity(trivial2).rows
    split = Table.from_element(adding, "a").split_row(0)
    assert split.canonical_form().rows == Table.from_element(adding, "a").rows
    s = swap_table(trivial2)
    assert s.canonical_form().rows == s.rows


def test_canonical_form_of_a_deep_identity(trivial2):
    level = list(product(range(2), repeat=11))
    t = Table(trivial2, [(v, "", v) for v in level])
    assert t.canonical_form().rows == Table.identity(trivial2).rows


def test_canonical_form_idempotent(adding):
    rng = random.Random(11)
    entries = catalogue_entries(adding)
    for _ in range(25):
        t = random_table(rng, adding, entries)
        c = t.canonical_form()
        assert t.equals(c) == "equal"
        assert c.canonical_form().rows == c.rows


@pytest.mark.parametrize("spec", ["adding", "basilica", "grigorchuk", "kneading:01", "odometer3"])
def test_canonical_form_equals_the_table(spec):
    """Merging keeps the element: the canonical form of random tables, and
    of products of two nucleus reps split at random rows, equals the table,
    and some of those forms merge rows."""
    group = GroupDef.parse(ODOMETER3) if spec == "odometer3" else resolve_group(spec)
    entries = catalogue_entries(group)
    rng = random.Random(19)
    merged = 0
    for i in range(30):
        if i % 2:
            t = random_table(rng, group, entries)
        else:
            t = Table.from_element(group, rng.choice(entries) * rng.choice(entries))
            for _ in range(rng.randint(1, 4)):
                t = t.split_row(rng.randrange(len(t.rows)))
        c = t.canonical_form()
        merged += len(c.rows) < len(t.rows)
        assert c.equals(t) == "equal", (spec, t, c)
    assert merged


def test_canonical_form_shortens_entries(adding):
    t = Table(adding, [((), "aaA", ())])
    assert str(t.canonical_form().rows[0][1]) == "a"


def test_sign_examples(trivial3):
    assert Table.identity(trivial3).sign() == 0
    tr = Table(trivial3, [((0,), "e", (1,)), ((1,), "e", (0,)), ((2,), "e", (2,))])
    assert tr.sign() == 1
    for i in range(3):
        assert tr.split_row(i).sign() == 1
    with pytest.raises(ValueError):
        swap_table(resolve_group("trivial:2")).sign()


def test_sign_requires_trivial_entries():
    from selfsim.ssgroup import GroupDef

    g3 = GroupDef.parse("alphabet: 3\na = (0 1 2)(e, e, a)\n")
    with pytest.raises(ValueError, match="trivial entries"):
        Table.from_element(g3, "a").sign()
    assert Table.identity(g3).sign() == 0
    assert Table.from_element(g3, "aA").sign() == 0  # reduces to the identity


def test_sign_multiplicative_and_split_invariant(trivial3):
    rng = random.Random(12)
    e = [GenWord()]
    for _ in range(120):
        t1 = random_table(rng, trivial3, e, max_depth=2)
        t2 = random_table(rng, trivial3, e, max_depth=2)
        assert (t1 * t2).sign() == (t1.sign() + t2.sign()) % 2
        i = rng.randrange(len(t1.rows))
        assert t1.split_row(i).sign() == t1.sign()


def test_thompson_from_antichains_examples(trivial2):
    t = thompson_from_antichains(trivial2, [w("0")], [w("1")])
    assert t.apply((0, 1, 1)) == (1, 1, 1)
    t = thompson_from_antichains(trivial2, [w("00")], [w("1")])
    for tail in product(range(2), repeat=3):
        assert t.apply((0, 0) + tail) == (1,) + tail
    ident = thompson_from_antichains(trivial2, [w("0"), w("1")], [w("0"), w("1")])
    assert ident.equals(Table.identity(trivial2)) == "equal"
    with pytest.raises(ValueError):
        thompson_from_antichains(trivial2, [w("0")], [w("0"), w("1")])
    with pytest.raises(ValueError):
        thompson_from_antichains(trivial2, [w("0"), w("1")], [w("0"), w("10")])


def test_thompson_random_incomplete_pairs(trivial2, trivial3):
    rng = random.Random(15)
    for group in (trivial2, trivial3):
        d = group.d
        for _ in range(60):
            full = random_complete_antichain(rng, d, 3)
            if len(full) < 3:
                continue
            size = rng.randint(1, len(full) - 1)
            sources = sorted(rng.sample(full, size))
            full2 = random_complete_antichain(rng, d, 3)
            while len(full2) <= size:
                full2 = random_complete_antichain(rng, d, 3)
            targets = sorted(rng.sample(full2, size))
            t = thompson_from_antichains(group, sources, targets)
            for v, u in zip(sources, targets):
                for tail in product(range(d), repeat=2):
                    assert t.apply(v + tail) == u + tail
            assert (t * t.inverse()).equals(Table.identity(group)) == "equal"


def test_same_orbit_clopen(trivial3):
    d3 = trivial3.d
    assert not same_orbit_clopen(Antichain([w("0")], 3), Antichain([w("0"), w("1")], 3))
    assert same_orbit_clopen(Antichain([w("0")], 3), Antichain([w("00"), w("01"), w("02")], 3))
    # d = 2: everything proper and nonempty is one orbit
    t2 = resolve_group("trivial:2")
    assert same_orbit_clopen(Antichain([w("0")], 2), Antichain([w("10")], 2))
    with pytest.raises(ValueError):
        same_orbit_clopen(Antichain([w("e")], 2), Antichain([w("0")], 2))


def test_orbit_witness(trivial3):
    u1 = Antichain([w("0")], 3)
    u2 = Antichain([w("00"), w("01"), w("02")], 3)
    t = orbit_witness(trivial3, u1, u2)
    assert t.image_of_clopen(u1) == Antichain.clopen(u2.words, 3)


def test_m_invariant_preserved_by_tables(trivial3):
    rng = random.Random(13)
    e = [GenWord()]
    for _ in range(60):
        t = random_table(rng, trivial3, e, max_depth=2)
        words = random_complete_antichain(rng, 3, 2)
        sub = [v for v in words if rng.random() < 0.5]
        if not sub or len(sub) == len(words):
            continue
        clopen = Antichain(sub, 3)
        image = t.image_of_clopen(clopen)
        assert image.m_invariant() == clopen.m_invariant()


def test_group_axioms_random(adding, grigorchuk, trivial3):
    rng = random.Random(14)
    cases = [
        (adding, catalogue_entries(adding)),
        (grigorchuk, catalogue_entries(grigorchuk)),
        (trivial3, [GenWord()]),
    ]
    for group, entries in cases:
        for _ in range(12):
            t1 = random_table(rng, group, entries, max_depth=2)
            t2 = random_table(rng, group, entries, max_depth=2)
            t3 = random_table(rng, group, entries, max_depth=2)
            assert ((t1 * t2) * t3).equals(t1 * (t2 * t3)) == "equal"
            assert (t1 * t1.inverse()).equals(Table.identity(group)) == "equal"
            assert (t1.inverse() * t1).equals(Table.identity(group)) == "equal"


def test_table_json_roundtrip(basilica):
    t = Table(basilica, [((0,), "a", (1, 0)), ((1, 0), "e", (1, 1)), ((1, 1), "b", (0,))])
    again = Table.from_json(basilica, t.to_json())
    assert again.rows == t.rows


HYPOTHESIS_GROUPS = ("adding", "basilica", "grigorchuk", "trivial:3")


@functools.cache
def group_and_entries(name):
    group = resolve_group(name)
    return group, catalogue_entries(group)


def image(table, x):
    """Image of the word x under a table, by the oracle's action of the
    entry of the one row whose domain word begins x."""
    hits = [(v, g, u) for v, g, u in table.rows if x[: len(v)] == v]
    assert len(hits) == 1
    v, g, u = hits[0]
    return u + apply_word(table.group, g.factors, x[len(v):])


def columns_complete(table):
    d = table.group.d
    for column in ([v for v, _, _ in table.rows], [u for _, _, u in table.rows]):
        if any(not 0 <= x < d for v in column for x in v):
            return False
        for i, v in enumerate(column):
            if any(i != j and u[: len(v)] == v for j, u in enumerate(column)):
                return False
        if sum(Fraction(1, d ** len(v)) for v in column) != 1:
            return False
    return True


def words_below(table):
    """Every word two levels below the deepest domain row."""
    depth = max(len(v) for v, _, _ in table.rows) + 2
    return product(range(table.group.d), repeat=depth)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HYPOTHESIS_GROUPS), st.integers(0, 2**32))
def test_random_compose_and_inverse_match_oracle(name, seed):
    group, entries = group_and_entries(name)
    rng = random.Random(seed)
    t1 = random_table(rng, group, entries, max_depth=2)
    t2 = random_table(rng, group, entries, max_depth=2)
    prod = t1 * t2
    inv = t1.inverse()
    for t in (prod, inv):
        assert columns_complete(t)
    for x in words_below(prod):
        assert image(prod, x) == image(t1, image(t2, x))
    for x in words_below(inv):
        assert image(t1, image(inv, x)) == x
    for x in words_below(t1):
        assert image(inv, image(t1, x)) == x


def passes_validation(table):
    """The validating constructor accepts the rows and keeps them as they are."""
    return Table(table.group, table.rows).rows == table.rows


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("adding", "basilica", "trivial:3")), st.integers(0, 2**32))
def test_internal_results_pass_validation(name, seed):
    """Every result the calculus builds without checks would pass them."""
    group, entries = group_and_entries(name)
    rng = random.Random(seed)
    d = group.d
    t1 = random_table(rng, group, entries, max_depth=2)
    t2 = random_table(rng, group, entries, max_depth=2)
    vertex = tuple(rng.randrange(d) for _ in range(rng.randrange(3)))
    domain_target = [v + tail for v, _, _ in t1.rows
                     for tail in random_complete_antichain(rng, d, 2)]
    range_target = [u + tail for _, _, u in t1.rows
                    for tail in random_complete_antichain(rng, d, 2)]
    split = t1.split_row(rng.randrange(len(t1.rows)))
    results = [
        t1 * t2,
        t1.inverse(),
        split,
        t1.refine_domain(domain_target),
        t1.refine_range(range_target),
        split.canonical_form(),
        (t1 * t2 * t1.inverse()).canonical_form(),
        l_embed(group, vertex, t1),
    ]
    for t in results:
        assert passes_validation(t)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HYPOTHESIS_GROUPS), st.integers(0, 2**32))
def test_random_refine_domain_matches_oracle(name, seed):
    group, entries = group_and_entries(name)
    rng = random.Random(seed)
    t = random_table(rng, group, entries, max_depth=2)
    target = [v + tail for v, _, _ in t.rows
              for tail in random_complete_antichain(rng, group.d, 2)]
    r = t.refine_domain(target)
    assert sorted(v for v, _, _ in r.rows) == sorted(target)
    assert columns_complete(r)
    for x in words_below(r):
        assert image(r, x) == image(t, x)


CANON_DIGEST_GROUPS = ("adding", "basilica", "grigorchuk", "kneading:01", "kneading:001",
                       "kneading:0101", "odometer3", "trivial:3")


def canon_digest_tables(rng, group, nucleus):
    """Seeded tables for the canonical-form digest: split products of nucleus
    reps, random tables whose entries are reps, products of reps or short
    generator words, and products of two such tables."""
    letters = list(group.generators) + [s.upper() for s in group.generators]
    reps = list(nucleus.reps)

    def entry():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.choice(reps)
        if kind == 1:
            return rng.choice(reps) * rng.choice(reps)
        return group.word("".join(rng.choice(letters) for _ in range(rng.randint(0, 6))) or "e")

    entries = [entry() for _ in range(12)] if letters else [GenWord()]
    for i in range(40):
        if i % 4 == 0:
            t = Table.from_element(group, rng.choice(entries) * rng.choice(entries))
            for _ in range(rng.randint(1, 5)):
                t = t.split_row(rng.randrange(len(t.rows)))
        elif i % 4 == 3:
            t = random_table(rng, group, entries, max_depth=2) * random_table(
                rng, group, entries, max_depth=2)
        else:
            t = random_table(rng, group, entries)
        yield t


def test_canonical_forms_match_pinned_digest():
    """The canonical forms of 320 seeded tables over eight groups, each group
    fresh so that its machine's states are made in one fixed order, hash to
    the digest the word-pool implementation gave."""
    digest = hashlib.sha256()
    count = 0
    for spec in CANON_DIGEST_GROUPS:
        group = GroupDef.parse(ODOMETER3) if spec == "odometer3" else resolve_group(spec)
        rng = random.Random(spec)
        for t in canon_digest_tables(rng, group, compute_nucleus(group)):
            digest.update(json.dumps(t.canonical_form().to_json()).encode() + b"\n")
            count += 1
    assert count == 320
    assert digest.hexdigest() == (
        "91d1992e0266dfde7bed3c781a2feb1a22cbca9c2d58fd0cb3e2a1c5fa6c3afc")


@pytest.mark.parametrize("spec", ["basilica", "grigorchuk", "kneading:001"])
def test_canonical_form_interns_each_entry_once(monkeypatch, spec):
    """One `canonical_form` call interns every entry of its table exactly
    once, merged families included, and nothing else (the nucleus is
    computed beforehand)."""
    group = resolve_group(spec)
    nucleus = compute_nucleus(group)
    monkeypatch.setattr("selfsim.vg.compute_nucleus", lambda g: nucleus)
    calls = []
    intern = Machine.intern

    def counted(self, word):
        calls.append(str(word))
        return intern(self, word)

    monkeypatch.setattr(Machine, "intern", counted)
    merged = 0
    for t in canon_digest_tables(random.Random(spec), group, nucleus):
        calls.clear()
        c = t.canonical_form()
        merged += len(c.rows) < len(t.rows)
        assert sorted(calls) == sorted(str(g) for _, g, _ in t.rows)
    assert merged
