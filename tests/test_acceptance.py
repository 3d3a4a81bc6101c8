"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check pins its tolerance/bound in place.
"""

import random
import time
from itertools import combinations, product
from pathlib import Path

import pytest

import oracles
from selfsim import GroupDef, kneading_group, resolve_group
from selfsim.abelian import (
    AbelGroup,
    PostCriticalData,
    rational_map_abelianization,
    vg_abelianization,
)
from selfsim.limitspace import level_identifications, quotient_graph
from selfsim.nucleus import NotContractingError, compute_nucleus, is_level_transitive
from selfsim.presentation import (
    Relator,
    emit_presentation,
    offcylinder_stabilizer_tables,
    verify_relator,
)
from selfsim.ssgroup import GenWord
from selfsim.vg import Table, orbit_witness, same_orbit_clopen
from selfsim.words import Antichain, is_prefix

LAMPLIGHTER = "alphabet: 2\na = (0 1)(a, b)\nb = ()(a, b)\n"
CATALOGUE = ("adding", "basilica", "grigorchuk")
# transitive on level 1 only, so connectivity answers "no" from level 2 on
FLIP = str(Path(__file__).parent / "groups" / "flip.txt")


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def fresh(name):
    return resolve_group(name)


# -- criterion 1: the word problem on the first catalogue relations ----------

def test_criterion_1_word_problem():
    timings = []
    for text in ("aa", "bb", "cc", "dd", "b D C"):
        group = fresh("grigorchuk")  # fresh caches: timed cold
        start = time.perf_counter()
        verdict = group.is_trivial(group.word(text))
        timings.append(time.perf_counter() - start)
        assert verdict.status == "trivial", text
    group = fresh("grigorchuk")
    start = time.perf_counter()
    verdict = group.is_trivial(group.word("ab"))
    timings.append(time.perf_counter() - start)
    assert verdict.status == "nontrivial"
    assert group.act(group.word("ab"), verdict.witness) != verdict.witness
    assert max(timings) < 0.1
    report(1, f"relators trivial, ab nontrivial with witness; "
              f"max query {max(timings) * 1000:.1f} ms < 100 ms")


# -- criterion 2: nucleus sizes against the brute-force oracle ---------------

def test_criterion_2_nucleus_sizes():
    expected = {"adding": 3, "grigorchuk": 5, "basilica": 7}
    timings = {}
    for name, size in expected.items():
        group = fresh(name)
        start = time.perf_counter()
        nucleus = compute_nucleus(group)
        brute = oracles.nucleus(group, level=10)
        timings[name] = time.perf_counter() - start
        assert len(nucleus) == size, name
        assert len(brute) == size, name
        sigs = {oracles.signature(group, rep.factors, 10) for rep in nucleus.reps}
        assert sigs == set(brute), name
        assert timings[name] < 5.0, name
    group = GroupDef.parse(LAMPLIGHTER)
    start = time.perf_counter()
    with pytest.raises(NotContractingError):
        compute_nucleus(group)
    lamp_time = time.perf_counter() - start
    assert lamp_time < 5.0
    report(2, "nucleus sizes 3/5/7 match the exhaustive closure oracle; "
              f"lamplighter rejected in {lamp_time:.1f} s")


# -- criterion 3: abelianizations ---------------------------------------------

def test_criterion_3_abelianization():
    start = time.perf_counter()
    assert vg_abelianization(fresh("adding")) == AbelGroup(1)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert vg_abelianization(fresh("grigorchuk")) == AbelGroup(0)
    assert time.perf_counter() - start < 1.0
    sequences = [""] + ["".join(bits) for k in range(1, 5)
                        for bits in product("01", repeat=k)]
    worst = 0.0
    for v in sequences:
        start = time.perf_counter()
        assert vg_abelianization(kneading_group(v)) == AbelGroup(1), v
        worst = max(worst, time.perf_counter() - start)
        assert worst < 1.0, v
    report(3, f"Z / trivial / Z over {len(sequences)} kneading groups "
              f"(worst {worst * 1000:.0f} ms < 1 s)")


# -- criterion 4: rational-map formula ----------------------------------------

def test_criterion_4_rational_maps():
    quadratic = PostCriticalData(("c", "v", "inf"), {"c": "v", "v": "c", "inf": "inf"})
    assert rational_map_abelianization(quadratic) == AbelGroup(1)
    one_cycle = PostCriticalData(
        ("v1", "v2", "inf"), {"v1": "v2", "v2": "v1", "inf": "inf"},
        degree_odd=True, cvmod2=frozenset({"v1", "v2"}),
    )
    assert rational_map_abelianization(one_cycle) == AbelGroup(1, (2,))
    two_cycles = PostCriticalData(
        ("v1", "v2", "inf"), {"v1": "v1", "v2": "v2", "inf": "inf"},
        degree_odd=True, cvmod2=frozenset({"v1", "v2"}),
    )
    assert rational_map_abelianization(two_cycles) == AbelGroup(2)

    rng = random.Random(2024)
    counts = {"even": 0, "odd": 0}
    while min(counts.values()) < 30:
        portrait = oracles.random_portrait(rng)
        assert rational_map_abelianization(portrait) == oracles.predicted_for_portrait(
            portrait
        ), portrait.to_json()
        counts["odd" if portrait.degree_odd else "even"] += 1
    report(4, f"paper cases plus {sum(counts.values())} random portraits "
              f"({counts['even']} even, {counts['odd']} odd) match the formula")


# -- criterion 5: table-calculus group axioms ---------------------------------

def _random_complete_antichain(rng, d, max_depth):
    words = []

    def build(prefix):
        if len(prefix) >= max_depth or rng.random() < 0.55:
            words.append(prefix)
        else:
            for x in range(d):
                build(prefix + (x,))

    build(())
    return words


def _random_table(rng, group, entries, max_depth=3):
    dom = _random_complete_antichain(rng, group.d, max_depth)
    ran = _random_complete_antichain(rng, group.d, max_depth)
    while len(ran) != len(dom):
        dom = _random_complete_antichain(rng, group.d, max_depth)
        ran = _random_complete_antichain(rng, group.d, max_depth)
    rng.shuffle(ran)
    return Table(group, [(v, rng.choice(entries), u) for v, u in zip(dom, ran)])


def test_criterion_5_table_axioms():
    rng = random.Random(1234)
    with_entries = [
        (fresh(name), list(compute_nucleus(fresh(name)).reps)) for name in CATALOGUE
    ]
    trivial3 = resolve_group("trivial:3")
    with_entries.append((trivial3, [GenWord()]))
    failures = 0
    for k in range(500):
        group, entries = with_entries[k % 3] if k % 2 == 0 else with_entries[3]
        t1 = _random_table(rng, group, entries)
        t2 = _random_table(rng, group, entries)
        t3 = _random_table(rng, group, entries)
        if ((t1 * t2) * t3).equals(t1 * (t2 * t3)) != "equal":
            failures += 1
        if (t1 * t1.inverse()).equals(Table.identity(group)) != "equal":
            failures += 1
        if (t1.inverse() * t1).equals(Table.identity(group)) != "equal":
            failures += 1
        split = t1.split_row(rng.randrange(len(t1.rows)))
        for v in product(range(group.d), repeat=6):
            if t1.apply(v) != split.apply(v):
                failures += 1
                break
    assert failures == 0
    report(5, "500 random triples: associativity, two-sided inverses, "
              "split invariance on all length-6 prefixes; zero failures")


# -- criterion 6: the cylinder-count residue and clopen orbits ----------------

def _proper_clopens_depth3():
    words = [tuple(v) for k in (1, 2, 3) for v in product(range(3), repeat=k)]
    shallow = [w for w in words if len(w) <= 2]
    clopens = [Antichain([w], 3) for w in words]
    for w1, w2 in combinations(shallow, 2):
        if not (is_prefix(w1, w2) or is_prefix(w2, w1)):
            clopens.append(Antichain([w1, w2], 3))
    return clopens


def test_criterion_6_m_invariant_orbits():
    rng = random.Random(77)
    trivial3 = resolve_group("trivial:3")
    e = [GenWord()]
    for _ in range(1000):
        t = _random_table(rng, trivial3, e, max_depth=2)
        words = _random_complete_antichain(rng, 3, 2)
        sub = [v for v in words if rng.random() < 0.5]
        if not sub or len(sub) == len(words):
            continue
        clopen = Antichain(sub, 3)
        assert t.image_of_clopen(clopen).m_invariant() == clopen.m_invariant()

    clopens = _proper_clopens_depth3()
    pairs = verified = 0
    for u1, u2 in combinations(clopens, 2):
        if not same_orbit_clopen(u1, u2):
            assert u1.m_invariant() != u2.m_invariant()
            continue
        pairs += 1
        witness = orbit_witness(trivial3, u1, u2)
        assert witness.image_of_clopen(u1) == Antichain.clopen(u2.words, 3)
        verified += 1
    assert pairs == verified and pairs > 1000
    report(6, f"1000 random images preserve the residue; {verified} equal-residue "
              "clopen pairs at depth <= 3 got verified mapping witnesses")


# -- criterion 7: parity of prefix-replacement tables (d = 3) -----------------

def test_criterion_7_parity():
    rng = random.Random(55)
    trivial3 = resolve_group("trivial:3")
    e = [GenWord()]
    for _ in range(500):
        t1 = _random_table(rng, trivial3, e, max_depth=2)
        t2 = _random_table(rng, trivial3, e, max_depth=2)
        assert (t1 * t2).sign() == (t1.sign() + t2.sign()) % 2
        assert t1.split_row(rng.randrange(len(t1.rows))).sign() == t1.sign()
    report(7, "sign multiplicative and split-invariant on 500 random products")


# -- criterion 8: presentation soundness --------------------------------------

def test_criterion_8_presentation():
    counts = {}
    for name in ("adding", "grigorchuk"):
        group = fresh(name)
        bundle = emit_presentation(group)
        total = 0
        for relator in (r for family in ("C", "N", "S") for r in bundle.relators[family]):
            assert verify_relator(relator), (name, relator.symbolic)
            total += 1
        counts[name] = total

    grig = fresh("grigorchuk")
    bundle = emit_presentation(grig)
    relator = bundle.relators["N"][0]
    rows = list(relator.table.rows)
    v, g, u = rows[0]
    rows[0] = (v, grig.word("a") * g, u)
    corrupted = Relator("N", "corrupted", Table(grig, rows))
    assert not verify_relator(corrupted)

    brute = oracles.nucleus(grig, level=10)
    ident = oracles.identity_signature(grig, 10)
    brute_count = sum(
        1
        for s1 in brute
        for s2 in brute
        for s3 in brute
        if oracles.signature(grig, brute[s1] + brute[s2] + brute[s3], 10) == ident
    )
    assert len(bundle.relators["N"]) == brute_count
    report(8, f"all {counts['adding']}+{counts['grigorchuk']} relators verify; "
              f"corrupted control fails; N-count {brute_count} matches brute force")


# -- criterion 9: limit-space approximations ----------------------------------

def test_criterion_9_limit_quotients():
    adding = fresh("adding")
    nucleus = compute_nucleus(adding)
    for n in range(1, 11):
        q = quotient_graph(nucleus, n)
        assert len(q.classes) == 2 ** n, n
        edges = [divmod(e, len(q.classes)) for e in q.edges]  # codes i * m + j
        if n >= 2:
            assert oracles.graph_shape(len(q.classes), edges) == "cycle", n
        else:
            # the two level-1 pieces share both circle endpoints; as a simple
            # graph that collapses to a single edge
            assert len(edges) == 1 and oracles.connected(len(q.classes), edges)

    grig = fresh("grigorchuk")
    gn = compute_nucleus(grig)
    for n in range(1, 11):
        q = quotient_graph(gn, n)
        assert len(q.classes) == 2 ** n
        edges = [divmod(e, len(q.classes)) for e in q.edges]
        assert oracles.graph_shape(len(q.classes), edges) == "path", n

    for name in (*CATALOGUE, FLIP, "trivial:2"):
        group = fresh(name)
        nuc = compute_nucleus(group)
        for n in range(1, 9):
            q = quotient_graph(nuc, n)
            edges = [divmod(e, len(q.classes)) for e in q.edges]
            assert oracles.connected(len(q.classes), edges) == is_level_transitive(group, n), \
                (name, n)
    report(9, "odometer quotients are 2^n-cycles and the interval quotients "
              "paths up to level 10; connectivity tracks level-transitivity")


# -- criterion 10: the shift descends -----------------------------------------

def test_criterion_10_shift():
    for name in CATALOGUE:
        group = fresh(name)
        nucleus = compute_nucleus(group)
        for n in range(2, 9):
            pairs = level_identifications(nucleus, n)
            prev = level_identifications(nucleus, n - 1)
            for v, u in pairs:
                sv, su = v[:-1], u[:-1]
                assert sv == su or (min(sv, su), max(sv, su)) in prev, (name, n)
    report(10, "identified words stay identified after the shift "
               "on all catalogue groups up to level 8")
