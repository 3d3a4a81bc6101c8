import random
from itertools import product
from pathlib import Path

import pytest

import oracles
from selfsim import resolve_group
from selfsim.nucleus import compute_nucleus
from selfsim.presentation import (
    Relator,
    choose_ab_tables,
    embedded_conjugator,
    emit_presentation,
    l_embed,
    l_of,
    level2_permutation,
    offcylinder_stabilizer_tables,
    relators_C,
    relators_N,
    relators_S,
    support,
    UndecidedError,
    verify_relator,
)
from selfsim.ssgroup import GenWord, GroupDef
from selfsim.vg import Table
from selfsim.words import is_antichain


def test_choose_ab_defining_properties(adding, trivial3):
    for group in (adding, trivial3):
        a_xy, b_x = choose_ab_tables(group)
        d = group.d
        tails = list(product(range(d), repeat=3))
        for (x, y), t in a_xy.items():
            for tail in tails:
                assert t.apply((y,) + tail) == (x, y) + tail
        for x, t in b_x.items():
            for tail in tails:
                assert t.apply((0,) + tail) == (x,) + tail
        assert b_x[0].equals(Table.identity(group)) == "equal"


def test_l_embed_examples(trivial2, adding):
    swap = Table(trivial2, [((0,), "e", (1,)), ((1,), "e", (0,))])
    assert l_embed(trivial2, (), swap).equals(swap) == "equal"
    t = l_embed(trivial2, (0,), swap)
    for tail in product(range(2), repeat=3):
        assert t.apply((1,) + tail) == (1,) + tail
        assert t.apply((0, 0) + tail) == (0, 1) + tail
        assert t.apply((0, 1) + tail) == (0, 0) + tail


def test_l_embed_homomorphism(adding):
    rng = random.Random(31)
    nucleus = compute_nucleus(adding)
    for _ in range(20):
        s = Table.from_element(adding, rng.choice(nucleus.reps))
        t = Table.from_element(adding, rng.choice(nucleus.reps))
        v = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 2)))
        assert l_embed(adding, v, s * t).equals(
            l_embed(adding, v, s) * l_embed(adding, v, t)) == "equal"
        assert l_embed(adding, v, s.inverse()).equals(
            l_embed(adding, v, s).inverse()) == "equal"


def test_disjoint_embeddings_commute(adding):
    nucleus = compute_nucleus(adding)
    a = nucleus.reps[-1]
    lhs = l_of(adding, (0,), a) * l_of(adding, (1,), a)
    rhs = l_of(adding, (1,), a) * l_of(adding, (0,), a)
    assert lhs.equals(rhs) == "equal"


def test_conjugation_transport(adding):
    # an element carrying cylinder v to u conjugates the embedding at v
    # into the embedding at u
    from selfsim.vg import thompson_from_antichains

    nucleus = compute_nucleus(adding)
    g = nucleus.reps[-1]
    for v, u in (((0,), (1,)), ((0, 1), (1,)), ((1, 0), (0, 0))):
        h = thompson_from_antichains(adding, [v], [u])
        lhs = h * l_of(adding, v, g) * h.inverse()
        assert lhs.equals(l_of(adding, u, g)) == "equal"


def test_embedded_conjugator(adding):
    a_xy, b_x = choose_ab_tables(adding)
    nucleus = compute_nucleus(adding)
    g = nucleus.reps[-1]
    for v in [(1,), (0, 1), (1, 0, 1)]:
        h = embedded_conjugator(adding, v, a_xy, b_x)
        lhs = h * l_of(adding, (0,), g) * h.inverse()
        assert lhs.equals(l_of(adding, v, g)) == "equal"


def test_stabilizer_tables_fix_base_cylinder(adding, trivial3):
    for group in (adding, trivial3):
        tables = offcylinder_stabilizer_tables(group)
        assert tables
        for t in tables:
            for tail in product(range(group.d), repeat=4):
                assert t.apply((0,) + tail) == (0,) + tail
        # at least one exchanges cylinders of unequal depths
        assert any(
            len(v) != len(u) for t in tables for v, _, u in t.rows
        )


def test_stabilizer_tables_match_the_full_walk(adding, trivial2, trivial3):
    """The walk over the antichains that keep the base letter whole lists
    the same tables, with the same rows, in the same order, as the walk over
    every antichain: splitting the base letter only adds rows that merge."""
    odometer3 = resolve_group(str(Path(__file__).parent.parent / "bench" / "groups"
                                  / "odometer3.txt"))
    for group in (adding, trivial2, trivial3, odometer3):
        rows = [[(v, u) for v, g, u in t.rows if not g]
                for t in offcylinder_stabilizer_tables(group)]
        assert rows == oracles.stabilizer_table_rows(group.d)


def test_relator_counts(adding, grigorchuk):
    for group, nsize in ((adding, 3), (grigorchuk, 5)):
        nucleus = compute_nucleus(group)
        bundle = emit_presentation(group)
        assert len(bundle.s1) == nsize - 1
        w_count = len(offcylinder_stabilizer_tables(group))
        assert len(bundle.relators["C"]) == oracles.expected_c_count(nucleus, w_count)
        assert len(bundle.relators["S"]) == nsize


def test_basilica_generator_count(basilica):
    nucleus = compute_nucleus(basilica)
    bundle = emit_presentation(basilica)
    assert len(bundle.s1) == 6  # nucleus size 7 minus the identity
    w_count = len(offcylinder_stabilizer_tables(basilica))
    assert len(bundle.relators["C"]) == oracles.expected_c_count(nucleus, w_count)
    assert len(bundle.relators["S"]) == 7
    for relator in bundle.relators["S"]:
        assert verify_relator(relator)


def test_n_relator_count_matches_bruteforce(grigorchuk):
    bundle = emit_presentation(grigorchuk)
    brute = oracles.nucleus(grigorchuk, level=10)
    sigs = sorted(brute)
    ident = oracles.identity_signature(grigorchuk, 10)
    count = 0
    for s1 in sigs:
        for s2 in sigs:
            for s3 in sigs:
                prod = brute[s1] + brute[s2] + brute[s3]
                if oracles.signature(grigorchuk, prod, 10) == ident:
                    count += 1
    assert len(bundle.relators["N"]) == count


def test_s_relator_solved_permutation(adding, grigorchuk):
    """The level-two permutation of an S relator is built from the state's
    own permutation: a swaps 00 and 01, d fixes level two, and the ternary
    odometer rotates the cylinders below the base letter."""
    nucleus = compute_nucleus(adding)
    i_a = next(i for i in nucleus if str(nucleus.reps[i]) == "a")
    h = level2_permutation(adding, nucleus.perms[i_a])
    assert all(not g for _, g, _ in h.rows)
    assert {v: u for v, _, u in h.rows} == {
        (0, 0): (0, 1), (0, 1): (0, 0), (1, 0): (1, 0), (1, 1): (1, 1)}

    gnuc = compute_nucleus(grigorchuk)
    i_d = next(i for i in gnuc if str(gnuc.reps[i]) == "d")
    h = level2_permutation(grigorchuk, gnuc.perms[i_d])
    assert all(v == u for v, _, u in h.rows)  # d fixes both levels

    h = level2_permutation(GroupDef.parse(ODOMETER3), (1, 2, 0))
    assert [u for _, _, u in h.rows] == [
        (0, 1), (0, 2), (0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


@pytest.mark.parametrize("spec", ["adding", "basilica", "grigorchuk", "kneading:01", "odometer3"])
def test_built_permutation_is_the_quotient_by_the_sections(spec):
    """For every nucleus state g, L(g) divided by the embeddings of its
    sections below the base letter is the built level-two permutation."""
    group = GroupDef.parse(ODOMETER3) if spec == "odometer3" else resolve_group(spec)
    nucleus = compute_nucleus(group)
    for i in nucleus:
        prod = l_of(group, (0, 0), nucleus.reps[nucleus.sections[i][0]])
        for y in range(1, group.d):
            prod = prod * l_of(group, (0, y), nucleus.reps[nucleus.sections[i][y]])
        quotient = l_of(group, (0,), nucleus.reps[i]) * prod.inverse()
        assert quotient.equals(level2_permutation(group, nucleus.perms[i])) == "equal", \
            nucleus.reps[i]


def test_s_relator_trivial_state(adding):
    nucleus = compute_nucleus(adding)
    rels = relators_S(nucleus)
    ident_rel = next(r for r in rels if "[e]" in r.symbolic.split("*")[0])
    assert "perm<id>" in ident_rel.symbolic
    assert verify_relator(ident_rel)


def test_emission_never_asks_whether_the_empty_word_is_trivial(monkeypatch):
    asked = []
    is_trivial = GroupDef.is_trivial

    def recording(self, word, *args, **kwargs):
        asked.append(word)
        return is_trivial(self, word, *args, **kwargs)

    monkeypatch.setattr(GroupDef, "is_trivial", recording)
    for name in ("adding", "basilica", "grigorchuk", "kneading:01"):
        emit_presentation(resolve_group(name))
    assert all(len(word) for word in asked)


def _relators(bundle):
    return [r for family in ("C", "N", "S") for r in bundle.relators[family]]


def test_all_relators_verify(adding, grigorchuk):
    for group in (adding, grigorchuk):
        bundle = emit_presentation(group)
        for relator in _relators(bundle):
            assert verify_relator(relator), relator.symbolic


def test_relator_tables_pass_validation(adding, grigorchuk, trivial3):
    """Relator tables are built without checks; each would pass them."""
    for group in (adding, grigorchuk, trivial3):
        for relator in _relators(emit_presentation(group)):
            t = relator.table
            assert Table(group, t.rows).rows == t.rows, relator.symbolic


def test_l_embed_rejects_a_table_of_another_group(adding, basilica):
    with pytest.raises(ValueError, match="different group"):
        l_embed(adding, (0,), Table.from_element(basilica, "b"))


def test_corrupted_relator_fails(grigorchuk):
    bundle = emit_presentation(grigorchuk)
    relator = bundle.relators["N"][0]
    rows = list(relator.table.rows)
    v, g, u = rows[0]
    rows[0] = (v, grigorchuk.word("a") * g, u)
    bad = Relator("N", relator.symbolic + "~corrupted", Table(grigorchuk, rows))
    assert not verify_relator(bad)


def _corrupted(table: Table) -> list[Table]:
    """Copies of a relator table that should fail: two range words swapped,
    and the first trivial entry replaced by a generator."""
    group, rows = table.group, list(table.rows)
    out = []
    if len(rows) > 1:
        swapped = list(rows)
        (v0, g0, u0), (v1, g1, u1) = rows[0], rows[1]
        swapped[0], swapped[1] = (v0, g0, u1), (v1, g1, u0)
        out.append(Table(group, swapped))
    for k, (v, g, u) in enumerate(rows):
        if not g:
            rows[k] = (v, group.word(group.generators[0]), u)
            out.append(Table(group, rows))
            break
    return out


ODOMETER3 = "alphabet: 3\na = (0 1 2)(e, e, a)\n"


@pytest.mark.parametrize("spec", ["adding", "basilica", "grigorchuk", "kneading:01", "odometer3"])
def test_verify_relator_agrees_with_table_equality(spec):
    """Reading a relator's own rows gives the verdict of comparing its table
    with the identity, on every relator and on corrupted copies of it."""
    group = GroupDef.parse(ODOMETER3) if spec == "odometer3" else resolve_group(spec)
    identity = Table.identity(group)
    for relator in _relators(emit_presentation(group)):
        for table in [relator.table, *_corrupted(relator.table)]:
            probe = Relator(relator.family, relator.symbolic, table)
            assert verify_relator(probe) == (table.equals(identity) == "equal"), \
                relator.symbolic


@pytest.mark.parametrize(
    "spec", ["adding", "basilica", "grigorchuk", "kneading:01", "trivial:3", "odometer3"])
def test_support_certificate_agrees_with_the_row_check(spec):
    """On every C relator, the supports it carries are its factors' own,
    and certifying that they are disjoint gives the verdict of reading the
    rows of the composed commutator table."""
    group = GroupDef.parse(ODOMETER3) if spec == "odometer3" else resolve_group(spec)
    for relator in emit_presentation(group).relators["C"]:
        (t1, _), (t2, _) = relator.factors
        assert relator.supports == (support(t1), support(t2)), relator.symbolic
        composed = Relator("C", relator.symbolic, relator.table)
        assert is_antichain(support(t1) + support(t2)) == verify_relator(composed), \
            relator.symbolic


def test_overlapping_factors_are_not_certified(adding):
    """L@0[a] and L@00[a] overlap and do not commute: the certificate
    refuses them and the row check on their commutator fails."""
    p1, p2 = ((t, t.inverse()) for t in (l_of(adding, (0,), "a"), l_of(adding, (0, 0), "a")))
    supports = (support(p1[0]), support(p2[0]))
    assert not is_antichain(supports[0] + supports[1])
    for given in (None, supports):
        relator = Relator("C", "[L@0[a], L@00[a]]", factors=(p1, p2), supports=given)
        assert not verify_relator(relator)


def test_verifying_c_relators_composes_no_table(monkeypatch, grigorchuk):
    composed = []
    compose = Table.compose

    def recording(self, other):
        composed.append(1)
        return compose(self, other)

    monkeypatch.setattr(Table, "compose", recording)
    relators = relators_C(compute_nucleus(grigorchuk))
    assert relators and all(verify_relator(r) for r in relators)
    assert not composed


def test_verify_relator_undecided_matches_table_equality():
    """The sections of `a` in the doubling group double in length and
    never move a letter, so the word problem runs out of budget on it; a
    relator table with that entry is undecided for both checks."""
    group = GroupDef.parse("alphabet: 2\na = ()(aa, e)\n")
    relator = Relator("N", "probe", Table(group, [((), group.word("a"), ())]))
    undecided = relator.table.equals(Table.identity(group)) == "undecided"
    try:
        verify_relator(relator)
        raised = False
    except UndecidedError:
        raised = True
    assert raised == undecided
    assert raised


def test_bundle_json_roundtrip(adding):
    from dataclasses import fields

    from selfsim.presentation import PresentationBundle

    # the bundle carries only what to_json writes
    assert [f.name for f in fields(PresentationBundle)] == ["group", "s1", "relators"]
    bundle = emit_presentation(adding)
    data = bundle.to_json()
    assert data["generators"] == bundle.s1
    assert set(data["relators"]) == {"C", "N", "S"}
