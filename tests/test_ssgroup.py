import random
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from selfsim import resolve_group
from selfsim.ssgroup import (ALPHABET_LETTERS, Budget, BudgetExceeded, GenWord, GroupDef,
                             check_level, level_permutation, perm_from_cycles, perm_parity,
                             perm_to_cycles)
from selfsim.words import parse_word


def test_genword_reduction():
    assert str(GenWord.parse("aA")) == "e"
    assert str(GenWord.parse("abBA")) == "e"
    assert str(GenWord.parse("abBc")) == "ac"
    assert str(GenWord.parse("b D C")) == "bDC"
    assert GenWord.parse("ab").inverse() == GenWord.parse("BA")
    assert GenWord.parse("a") * GenWord.parse("A") == GenWord()
    for bad in ([("a", 2)], [("A", 1)], [("ab", 1)], [("\u00e9", -1)]):
        with pytest.raises(ValueError):
            GenWord(bad)


_FACTOR = st.tuples(st.sampled_from("abcd"), st.sampled_from((1, -1)))
_FACTORS = st.lists(_FACTOR, max_size=40)


@st.composite
def _cancelling_factors(draw):
    """Factor lists, unreduced, that cancel heavily: a random list, w w^-1,
    or a conjugate u r u^-1."""
    w = draw(_FACTORS)
    kind = draw(st.sampled_from(("random", "inverse", "conjugate")))
    if kind == "inverse":
        return w + oracles.invert_factors(w)
    if kind == "conjugate":
        return w + draw(st.lists(_FACTOR, max_size=4)) + oracles.invert_factors(w)
    return w


def _spelled(factors, noise):
    """The text of a factor list, with "e" and blanks where `noise` says."""
    out = []
    for (s, e), extra in zip(factors, noise + [""] * len(factors)):
        out.append(extra + (s if e == 1 else s.upper()))
    return "".join(out)


@settings(max_examples=200, deadline=None)
@given(_cancelling_factors(), _cancelling_factors(),
       st.lists(st.sampled_from(("", "", "e", " ")), max_size=80), st.data())
def test_genword_agrees_with_the_oracle_reduction(f, g, noise, data):
    """parse, the pair constructor, inverse, *, len, str, == and hash agree
    with the oracle's free reduction, also when a product cancels across
    the seam: h = g' v, where g' inverts a suffix of f."""
    wf = GenWord.parse(_spelled(f, noise))
    rf = oracles.free_reduce(f)
    assert wf.factors == rf
    assert GenWord(f) == wf and hash(GenWord(f)) == hash(wf)
    assert (len(wf), str(wf)) == (len(rf), oracles.factors_text(rf))
    assert wf.inverse().factors == oracles.free_reduce(oracles.invert_factors(f))
    cut = data.draw(st.integers(0, len(f)))
    h = oracles.invert_factors(f[cut:]) + g
    for other in (g, h):
        wo = GenWord.parse(_spelled(other, []))
        ro = oracles.free_reduce(other)
        assert (wf * wo).factors == oracles.free_reduce(f + other)
        assert (wf == wo) == (rf == ro)
        if rf == ro:
            assert hash(wf) == hash(wo)


STEP_GROUPS = [resolve_group("adding"), resolve_group("basilica"), resolve_group("grigorchuk"),
               resolve_group("kneading:001"), GroupDef.parse("alphabet: 3\na = (0 1 2)(e, e, a)\n")]


@st.composite
def _group_and_word(draw):
    """A group of STEP_GROUPS and an unreduced factor list over it: random,
    or a conjugate u r u^-1, whose sections cancel deeply."""
    group = draw(st.sampled_from(STEP_GROUPS))
    factor = st.tuples(st.sampled_from(group.generators), st.sampled_from((1, -1)))
    u = draw(st.lists(factor, max_size=120))
    if draw(st.booleans()):
        return group, u
    return group, u + draw(st.lists(factor, max_size=6)) + oracles.invert_factors(u)


@settings(max_examples=120, deadline=None)
@given(_group_and_word())
def test_wreath_matches_the_oracle_step(group_and_word):
    """At every letter x, `wreath` gives the image letter of the oracle's
    `step` and the oracle's continuation, freely reduced by the oracle."""
    group, factors = group_and_word
    perm, sections = group.wreath(GenWord(factors))
    for x in range(group.d):
        y, continuation = oracles.step(group, oracles.free_reduce(factors), x)
        assert (perm[x], sections[x].factors) == (y, oracles.free_reduce(continuation))


def test_parse_group_adding(adding):
    assert adding.d == 2
    assert adding.generators == ("a",)
    perm, secs = adding.recursion["a"]
    assert perm == (1, 0)
    assert [str(s) for s in secs] == ["e", "a"]


def test_parse_group_grigorchuk(grigorchuk):
    assert grigorchuk.generators == ("a", "b", "c", "d")
    assert grigorchuk.recursion["a"][0] == (1, 0)
    assert [str(s) for s in grigorchuk.recursion["b"][1]] == ["a", "c"]
    assert [str(s) for s in grigorchuk.recursion["c"][1]] == ["a", "d"]
    assert [str(s) for s in grigorchuk.recursion["d"][1]] == ["e", "b"]


def test_parse_group_errors():
    with pytest.raises(ValueError):
        GroupDef.parse("alphabet: 2\na = (0 1)(e, b)\n")  # undeclared symbol
    with pytest.raises(ValueError):
        GroupDef.parse("alphabet: 2\na = (0 0)(e, a)\n")  # not a bijection
    with pytest.raises(ValueError):
        GroupDef.parse("alphabet: 2\na = (0 2)(e, a)\n")  # letter out of range
    # cycles are disjoint: each reads as a bijection, but not as a product
    for cycles, letter in [("(0 1)(0 1)", 0), ("(0 1 2)(2 1 0)", 2), ("(1)(0 1)", 1)]:
        with pytest.raises(ValueError, match=f"^letter {letter} appears twice in cycles"):
            GroupDef.parse(f"alphabet: 3\na = {cycles}(e, a, e)\n")
    with pytest.raises(ValueError):
        GroupDef.parse("a = (0 1)(e, a)\n")  # missing header
    with pytest.raises(ValueError):
        GroupDef.parse("alphabet: 2\na = (0 1)(e, a, a)\n")  # arity
    for text in ["alphabet: 2\na = 7(e, a)\n",  # text before the sections
                 "alphabet: 2\na = (0 1)(e, a) junk\n",  # text after them
                 "alphabet: 2\na = (0 1)zz(e, a)\n",  # text between the groups
                 "alphabet: 2\nalphabet: 3\na = (0 1 2)(e, a, e)\n",  # two headers
                 "alphabets: 2\na = (0 1)(e, a)\n",  # not the header word
                 "alphabet soup: 2\na = (0 1)(e, a)\n",  # text before the colon
                 "alphabet: 2\nx" + " " * 50_000 + "y\n"]:  # no "=", in linear time
        with pytest.raises(ValueError):
            GroupDef.parse(text)


def test_parse_group_header_spelling():
    """The header is "alphabet", then optional spaces, then ":", in any case."""
    for header in ["ALPHABET: 2", "alphabet:2", "Alphabet : 2"]:
        assert GroupDef.parse(header + "\na = (0 1)(e, a)\n").d == 2


def test_group_text_roundtrip(grigorchuk, adding, basilica):
    for g in (grigorchuk, adding, basilica):
        again = GroupDef.parse(g.to_text())
        assert again.to_text() == g.to_text()
        assert again.content_hash() == g.content_hash()


def test_wreath_decompose_examples(adding):
    a = adding.word("a")
    perm, secs = adding.wreath(a)
    assert perm == (1, 0)
    assert [str(s) for s in secs] == ["e", "a"]
    perm, secs = adding.wreath(a * a)
    assert perm == (0, 1)
    assert [str(s) for s in secs] == ["a", "a"]
    perm, secs = adding.wreath(GenWord())
    assert perm == (0, 1) or perm == (0, 1)
    assert perm == tuple(range(2))
    assert all(str(s) == "e" for s in secs)


def test_act_examples(adding, grigorchuk):
    a = adding.word("a")
    assert adding.act(a, (1, 1, 0)) == (0, 0, 1)
    assert grigorchuk.act(grigorchuk.word("a"), (0, 1, 1)) == (1, 1, 1)
    assert adding.act(GenWord(), (0, 1, 0)) == (0, 1, 0)


def test_act_matches_odometer_model(adding):
    a = adding.word("a")
    for n in range(1, 9):
        for v in product(range(2), repeat=n):
            assert adding.act(a, v) == oracles.odometer_increment(v)


def test_section_examples(adding, grigorchuk):
    a = adding.word("a")
    assert str(adding.section(a, (1,))) == "a"
    assert str(adding.section(a, (0,))) == "e"
    assert str(grigorchuk.section(grigorchuk.word("b"), (1,))) == "c"
    assert str(grigorchuk.section(grigorchuk.word("b"), (0,))) == "a"


def test_section_cocycle(grigorchuk):
    rng = random.Random(1)
    syms = "abcdABCD"
    for _ in range(40):
        g = grigorchuk.word("".join(rng.choice(syms) for _ in range(rng.randint(1, 4))))
        v = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
        u = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
        lhs = grigorchuk.section(g, v + u)
        rhs = grigorchuk.section(grigorchuk.section(g, v), u)
        assert grigorchuk.are_equal(lhs, rhs).status == "equal"


def test_perm_on_level_examples(adding, grigorchuk):
    a = adding.word("a")
    perm = adding.perm_on_level(a, 2)
    # lexicographic level order: 00, 01, 10, 11; odometer 4-cycle
    words = [(0, 0), (0, 1), (1, 0), (1, 1)]
    mapping = {words[i]: words[perm[i]] for i in range(4)}
    assert mapping == {(0, 0): (1, 0), (1, 0): (0, 1), (0, 1): (1, 1), (1, 1): (0, 0)}
    assert grigorchuk.perm_on_level(grigorchuk.word("a"), 1) == (1, 0)
    assert adding.perm_on_level(GenWord(), 3) == tuple(range(8))
    for n in (-1, 30):
        with pytest.raises(ValueError):
            adding.perm_on_level(a, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(n))))
def test_cycle_walk_matches_inversions_and_round_trips(perm):
    """The parity read off the cycles is that of the inversion count, and
    the printed cycles parse back to the permutation."""
    perm = tuple(perm)
    inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
    assert perm_parity(perm) == inversions % 2
    assert perm_from_cycles(perm_to_cycles(perm), len(perm)) == perm
    assert perm_to_cycles(tuple(range(len(perm)))) == "()"


def test_alphabet_bound_holds_on_construction_and_parsing():
    """An alphabet past the bound is refused by the constructor, and by the
    parser at its header, before the cycles build permutations of its size."""
    assert GroupDef(ALPHABET_LETTERS, {}).d == ALPHABET_LETTERS
    message = f"at most {ALPHABET_LETTERS} letters"
    with pytest.raises(ValueError, match=message):
        GroupDef(ALPHABET_LETTERS + 1, {})
    with pytest.raises(ValueError, match=message):
        GroupDef.parse(f"alphabet: {ALPHABET_LETTERS + 1}\na = ()(e, e)\n")


def test_level_bound_is_two_to_the_twenty_vertices():
    check_level(2, 20)
    for d, n in ((2, 21), (3, 13)):
        with pytest.raises(ValueError, match="at most 1048576 vertices"):
            check_level(d, n)


def test_is_trivial_examples(adding, grigorchuk):
    assert grigorchuk.is_trivial(grigorchuk.word("b D C")).status == "trivial"
    assert grigorchuk.is_trivial(grigorchuk.word("bb")).status == "trivial"
    res = adding.is_trivial(adding.word("aa"))
    assert res.status == "nontrivial"
    assert adding.act(adding.word("aa"), res.witness) != res.witness
    assert res.witness == (0, 0)


def test_is_trivial_undecided_budget():
    # fresh group: nothing cached, and the closure of (ad)^4 has 6 states
    g = GroupDef.parse("alphabet: 2\na = (0 1)(e, e)\nb = ()(a, c)\nc = ()(a, d)\nd = ()(e, b)\n")
    g.budget = Budget(max_states=3)
    res = g.is_trivial(g.word("adadadad"))
    assert res.status == "undecided"
    g.budget = Budget(max_states=100)
    assert g.is_trivial(g.word("adadadad")).status == "trivial"


def test_are_equal_examples(adding, grigorchuk):
    assert grigorchuk.are_equal(grigorchuk.word("b"), grigorchuk.word("cd")).status == "equal"
    res = adding.are_equal(adding.word("a"), adding.word("A"))
    assert res.status == "different"
    v = res.witness
    assert adding.act(adding.word("a"), v) != adding.act(adding.word("A"), v)
    g = grigorchuk.word("abab")
    assert grigorchuk.are_equal(g, g).status == "equal"


def test_action_is_homomorphism(grigorchuk, basilica):
    rng = random.Random(2)
    for group, syms in ((grigorchuk, "abcdABCD"), (basilica, "abAB")):
        for _ in range(30):
            g = group.word("".join(rng.choice(syms) for _ in range(rng.randint(0, 4))))
            h = group.word("".join(rng.choice(syms) for _ in range(rng.randint(0, 4))))
            for n in range(1, 7):
                for v in product(range(2), repeat=n):
                    assert group.act(g * h, v) == group.act(g, group.act(h, v))
                break  # a single length per pair keeps this quick
            v6 = tuple(rng.randint(0, 1) for _ in range(6))
            assert group.act(g * h, v6) == group.act(g, group.act(h, v6))


def test_wreath_is_homomorphism(grigorchuk):
    rng = random.Random(3)
    syms = "abcdABCD"
    for _ in range(25):
        g = grigorchuk.word("".join(rng.choice(syms) for _ in range(rng.randint(1, 4))))
        h = grigorchuk.word("".join(rng.choice(syms) for _ in range(rng.randint(1, 4))))
        pg, sg = grigorchuk.wreath(g)
        ph, sh = grigorchuk.wreath(h)
        pgh, sgh = grigorchuk.wreath(g * h)
        assert pgh == tuple(pg[ph[x]] for x in range(2))
        for x in range(2):
            assert grigorchuk.are_equal(sgh[x], sg[ph[x]] * sh[x]).status == "equal"


TERNARY_ODOMETER = "alphabet: 3\na = (0 1 2)(e, e, a)\n"

WREATH_GROUPS = [resolve_group("grigorchuk"), resolve_group("basilica"),
                 resolve_group("trivial:3"), GroupDef.parse(TERNARY_ODOMETER)]


def _group_and_factors(group):
    if not group.generators:
        return st.tuples(st.just(group), st.just([]))
    factor = st.tuples(st.sampled_from(group.generators), st.sampled_from((1, -1)))
    return st.tuples(st.just(group), st.lists(factor, max_size=600))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WREATH_GROUPS).flatmap(_group_and_factors), st.data())
def test_wreath_matches_the_oracle_fold(group_and_factors, data):
    """`wreath` gives, letter by letter, exactly the image letter and the
    freely reduced continuation of the oracle's independent `step`, and its
    sections multiply as the wreath product says: the section of g h at x
    is, as a freely reduced word and not only as a group element, the
    section of g at h(x) times that of h at x."""
    group, factors = group_and_factors
    w = GenWord(factors)
    for word in (w, GenWord(), w * w.inverse()):
        perm, sections = group.wreath(word)
        assert sorted(perm) == list(range(group.d))
        for x in range(group.d):
            y, continuation = oracles.step(group, word.factors, x)
            assert (perm[x], sections[x]) == (y, GenWord(continuation))
    cut = data.draw(st.integers(0, len(w)))
    g, h = GenWord(w.factors[:cut]), GenWord(w.factors[cut:])
    (pg, sg), (ph, sh), (pw, sw) = group.wreath(g), group.wreath(h), group.wreath(w)
    assert pw == tuple(pg[ph[x]] for x in range(group.d))
    assert sw == tuple(sg[ph[x]] * sh[x] for x in range(group.d))
    assert group.wreath(w * w.inverse()) == (tuple(range(group.d)), (GenWord(),) * group.d)


def test_wreath_is_linear_in_the_word_length():
    # folding by re-reducing the accumulated sections took about 8 s on
    # this word
    group = resolve_group("grigorchuk")
    word = group.word("ab" * 3200)
    start = time.perf_counter()
    assert group.is_trivial(word).status == "trivial"
    assert time.perf_counter() - start < 2.0


def test_is_trivial_matches_bruteforce_on_grigorchuk(grigorchuk):
    words = [""]
    for _ in range(4):
        words = [w + s for w in words for s in "abcd"] + words
    seen = set()
    for text in set(words):
        g = grigorchuk.word(text)
        verdict = grigorchuk.is_trivial(g)
        assert verdict.status in ("trivial", "nontrivial")
        brute = all(
            oracles.apply_word(grigorchuk, g.factors, v) == v
            for v in product(range(2), repeat=8)
        )
        assert (verdict.status == "trivial") == brute, text


def test_machine_interning_identifies_equal_elements(grigorchuk):
    m = grigorchuk.machine
    assert m.intern(grigorchuk.word("b")) == m.intern(grigorchuk.word("cd"))
    assert m.intern(grigorchuk.word("bb")) == m.identity
    assert m.intern(grigorchuk.word("a")) == m.intern(grigorchuk.word("A"))
    assert m.intern(grigorchuk.word("ab")) != m.intern(grigorchuk.word("ba"))


@pytest.mark.parametrize("budget, message", [
    (Budget(max_states=1), "state budget 1 exhausted"),
    (Budget(max_states=3), "state budget 3 exhausted")])
def test_intern_reads_the_machine_budget(budget, message):
    """Interning grigorchuk's b adds four states, b, a, c and d; under the
    group's budget it stops with a verdict that names that budget."""
    group = resolve_group("grigorchuk")
    m = group.machine
    group.budget = budget
    with pytest.raises(BudgetExceeded, match=f"^{message}$"):
        m.intern(group.word("b"))


def test_intern_counts_only_the_states_it_adds():
    """Outside a search, the states already in the machine do not count:
    with the identity, b's four states fill the machine past a budget of 4,
    and ab still has room for its own."""
    group = resolve_group("grigorchuk")
    m = group.machine
    group.budget = Budget(max_states=4)
    m.intern(group.word("b"))
    assert len(m) == 5
    m.intern(group.word("ab"))
    assert len(m) == 6


def test_witness_words_are_valid(basilica):
    rng = random.Random(4)
    for _ in range(40):
        g = basilica.word("".join(rng.choice("abAB") for _ in range(rng.randint(1, 6))))
        res = basilica.is_trivial(g)
        if res.status == "nontrivial":
            assert basilica.act(g, res.witness) != res.witness


ODOMETER3_FILE = str(Path(__file__).parent.parent / "bench" / "groups" / "odometer3.txt")

LAMPLIGHTER = "alphabet: 2\na = (0 1)(a, b)\nb = ()(a, b)\n"
FLIP = "alphabet: 2\na = (0 1)(a, a)\n"
# the last two have no section that is the identity, so their walks never
# drop a subtree
LEVEL_GROUPS = [resolve_group("grigorchuk"), resolve_group("basilica"),
                resolve_group(ODOMETER3_FILE), GroupDef.parse(LAMPLIGHTER),
                GroupDef.parse(FLIP)]


def _short_word(group):
    factor = st.tuples(st.sampled_from(group.generators), st.sampled_from((1, -1)))
    return st.tuples(st.just(group), st.lists(factor, max_size=30))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LEVEL_GROUPS).flatmap(_short_word), st.integers(0, 6))
def test_perm_on_level_matches_oracle(group_and_factors, n):
    """Entry i of `perm_on_level` is the lexicographic index of the image of
    the i-th level-n word, as the oracle computes it word by word."""
    group, factors = group_and_factors
    words = list(product(range(group.d), repeat=n))
    index = {v: i for i, v in enumerate(words)}
    expect = tuple(index[oracles.apply_word(group, factors, v)] for v in words)
    assert group.perm_on_level(GenWord(factors), n) == expect


def test_level_permutation_edge_cases():
    """An identity root acts as the identity on every level, and level 0 is
    the one vertex, the root."""
    def step(state):
        raise AssertionError("no state needs a step")

    for d, n in ((2, 0), (2, 5), (3, 4)):
        assert level_permutation(step, "e", d, n, "e") == tuple(range(d ** n))
    assert level_permutation(step, "a", 2, 0, "e") == (0,)


@pytest.mark.parametrize("spec", ["grigorchuk", "basilica", "adding", ODOMETER3_FILE,
                                  LAMPLIGHTER])
def test_level_walk_steps_each_state_once(spec):
    """The walk asks for each distinct state's permutation and sections at
    most once, and never for the identity's: a vertex that reaches the
    identity leaves the walk with its whole subtree."""
    group = GroupDef.parse(spec) if spec.startswith("alphabet") else resolve_group(spec)
    for sym in group.generators:
        calls = []

        def step(text):
            calls.append(text)
            perm, sections = group.wreath(GenWord.parse(text or "e"))
            return perm, tuple(sec.text for sec in sections)

        n = 8
        perm = level_permutation(step, sym, group.d, n, "")
        assert perm == group.perm_on_level(group.word(sym), n)
        assert len(calls) == len(set(calls)), (spec, sym)
        assert "" not in calls, (spec, sym)
MACHINE_GROUPS = ["grigorchuk", "basilica", "kneading:000", "kneading:0101",
                  TERNARY_ODOMETER, LAMPLIGHTER]

_MACHINE_OPS = st.lists(st.one_of(
    st.tuples(st.just("word"),
              st.lists(st.tuples(st.integers(0, 4), st.sampled_from((1, -1))), max_size=12)),
    st.tuples(st.just("product"), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.just("inverse"), st.integers(0, 10**6)),
), min_size=1, max_size=40)


def _state_signature(machine, sid, level):
    """Images of the level's words under a state, read off the machine's
    tables in the order `oracles.signature` lists them."""
    out = []

    def walk(prefix, s, depth):
        if depth == level:
            out.append(prefix)
            return
        for x in range(len(machine.perms[s])):
            walk(prefix + (machine.perms[s][x],), machine.kids[s][x], depth + 1)

    walk((), sid, 0)
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MACHINE_GROUPS), _MACHINE_OPS)
# a lamplighter draw whose state 42 has the rep AAAAbbbbabbb, which
# meets more than 300 new nodes when interned back
@example(LAMPLIGHTER, [("word", [(0, 1)] * 5 + [(1, -1)]), ("inverse", 1), ("word", [(0, 1)]),
                       ("product", 1458, 1), ("inverse", 8874), ("product", 288, 1)])
def test_machine_stays_minimal_and_correct(spec, ops):
    """Words, products and inverses interned in any order leave the machine
    minimal (no two states bisimilar), every state acting on level 8 as the
    words interned to it do, and every rep interning back to its state."""
    group = GroupDef.parse(spec) if spec.startswith("alphabet") else resolve_group(spec)
    m = group.machine
    group.budget = Budget(max_states=300)
    gens = group.generators
    interned = []
    for op in ops:
        try:
            if op[0] == "word":
                w = GenWord([(gens[i % len(gens)], e) for i, e in op[1]])
                interned.append((w, m.intern(w)))
            elif op[0] == "product":
                s, t = op[1] % len(m), op[2] % len(m)
                interned.append((m.reps[s] * m.reps[t], m.product_state(s, t)))
            else:
                s = op[1] % len(m)
                interned.append((m.reps[s].inverse(), m.inverse_state(s)))
        except BudgetExceeded:
            pass
    block, count = list(m.perms), None
    while True:
        sigs: dict = {}
        block = [sigs.setdefault((block[s], tuple(block[k] for k in m.kids[s])), len(sigs))
                 for s in range(len(m))]
        if len(sigs) == count:
            break
        count = len(sigs)
    assert count == len(m)
    for w, sid in interned:
        assert oracles.signature(group, w.factors, 8) == _state_signature(m, sid, 8), str(w)
    # a rep's word may unroll into more new nodes than the ops' budget
    # before it closes on its state, so the round trip gets the default one
    group.budget = Budget()
    for sid, rep in enumerate(m.reps):
        assert m.intern(rep) == sid
