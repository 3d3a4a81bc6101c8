"""The ternary odometer drives every odd-alphabet code path end to end."""

from itertools import product

import oracles
from selfsim.abelian import AbelGroup, vg_abelianization
from selfsim.limitspace import quotient_graph
from selfsim.nucleus import compute_nucleus, is_level_transitive, is_regular
from selfsim.presentation import (
    emit_presentation,
    offcylinder_stabilizer_tables,
    verify_relator,
)
from selfsim.ssgroup import GroupDef

ODOMETER3 = "alphabet: 3\na = (0 1 2)(e, e, a)\n"


def group():
    return GroupDef.parse(ODOMETER3, name="odometer3")


def test_ternary_odometer_action():
    g = group()
    a = g.word("a")
    # base-3 increment, least significant letter first
    for n in range(1, 6):
        for v in product(range(3), repeat=n):
            value = sum(x * 3**i for i, x in enumerate(v))
            bumped = (value + 1) % 3**n
            expect = tuple((bumped // 3**i) % 3 for i in range(n))
            assert g.act(a, v) == expect


def test_ternary_odometer_nucleus():
    g = group()
    nucleus = compute_nucleus(g)
    assert sorted(str(r) for r in nucleus.reps) == ["A", "a", "e"]
    assert is_regular(nucleus)
    assert is_level_transitive(g, 5)


def test_ternary_odometer_abelianization():
    # odd alphabet: quotient of Z/2 + Z by 1 - sigma_1 with sigma(a) = a and
    # an even top permutation, so nothing is killed: Z/2 + Z
    assert vg_abelianization(group()) == AbelGroup.from_factors(1, [2])


def test_ternary_odometer_presentation_counts():
    g = group()
    nucleus = compute_nucleus(g)
    bundle = emit_presentation(g)
    w_count = len(offcylinder_stabilizer_tables(g))
    assert len(bundle.relators["C"]) == oracles.expected_c_count(nucleus, w_count)
    assert len(bundle.relators["N"]) == 7
    assert len(bundle.relators["S"]) == 3
    for relator in bundle.relators["N"] + bundle.relators["S"]:
        assert verify_relator(relator)
    # the commutation family is large; verify a deterministic slice
    for relator in bundle.relators["C"][:: max(1, len(bundle.relators["C"]) // 50)]:
        assert verify_relator(relator)


def test_ternary_odometer_quotient_cycles():
    nucleus = compute_nucleus(group())
    for n in range(2, 5):
        q = quotient_graph(nucleus, n)
        assert len(q.classes) == 3**n
        edges = [divmod(e, len(q.classes)) for e in q.edges]  # codes i * m + j
        assert oracles.graph_shape(len(q.classes), edges) == "cycle"


def test_m_invariant_preserved_with_group_entries():
    # cylinder residue preservation is not special to trivial entries
    import random

    from selfsim.nucleus import compute_nucleus
    from selfsim.vg import Table
    from selfsim.words import Antichain

    g = group()
    reps = list(compute_nucleus(g).reps)
    rng = random.Random(16)
    level2 = [tuple(v) for v in product(range(3), repeat=2)]
    for _ in range(50):
        ran = level2[:]
        rng.shuffle(ran)
        t = Table(g, [(v, rng.choice(reps), u) for v, u in zip(level2, ran)])
        sub = [v for v in level2 if rng.random() < 0.4]
        if not sub or len(sub) == len(level2):
            continue
        clopen = Antichain(sub, 3)
        assert t.image_of_clopen(clopen).m_invariant() == clopen.m_invariant()
