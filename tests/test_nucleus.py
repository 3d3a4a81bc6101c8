import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from selfsim import kneading_group, resolve_group
from selfsim.limitspace import quotient_graph
from selfsim.nucleus import (
    Budget,
    NotContractingError,
    compute_nucleus,
    is_level_transitive,
    is_regular,
    is_self_replicating,
    length3_relations,
    nucleus_products,
    section_closure,
)
from selfsim.ssgroup import BudgetExceeded, GenWord, GroupDef

LAMPLIGHTER = "alphabet: 2\na = (0 1)(a, b)\nb = ()(a, b)\n"


def test_section_closure_examples(adding, grigorchuk):
    reps = [str(w) for w in section_closure(adding, [adding.word("a")])]
    assert sorted(reps) == ["a", "e"]
    reps = [str(w) for w in section_closure(grigorchuk, [grigorchuk.word("b")])]
    assert sorted(reps) == ["a", "b", "c", "d", "e"]
    assert [str(w) for w in section_closure(adding, [])] == ["e"]


def test_nucleus_sizes(adding_nucleus, grigorchuk_nucleus, basilica_nucleus):
    assert len(adding_nucleus) == 3
    assert len(grigorchuk_nucleus) == 5
    assert len(basilica_nucleus) == 7


@pytest.mark.parametrize("name,size", [("adding", 3), ("grigorchuk", 5), ("basilica", 7)])
def test_nucleus_matches_bruteforce_oracle(name, size):
    group = resolve_group(name)
    brute = oracles.nucleus(group, level=10)
    assert len(brute) == size
    computed = compute_nucleus(group)
    assert len(computed) == size
    got_sigs = {oracles.signature(group, rep.factors, 10) for rep in computed.reps}
    assert got_sigs == set(brute)


def test_lamplighter_not_contracting():
    group = GroupDef.parse(LAMPLIGHTER)
    with pytest.raises(NotContractingError):
        compute_nucleus(group)


def test_lamplighter_verdict_lists_its_rounds():
    with pytest.raises(NotContractingError) as info:
        compute_nucleus(GroupDef.parse(LAMPLIGHTER))
    rounds = info.value.rounds
    # the starting set, then every finished round, each larger than the last
    assert len(rounds) >= 3
    assert all(a < b for a, b in zip(rounds, rounds[1:]))
    assert rounds[-1] <= Budget().max_states
    message = str(info.value)
    assert message.startswith("not contracting within budget")
    assert message.endswith(f" after rounds of {', '.join(map(str, rounds))} candidates")


def test_long_verdict_names_only_the_first_and_last_rounds():
    """Past ten rounds the message elides the middle counts; `rounds`
    keeps them all."""
    group = GroupDef.parse("alphabet: 3\na = (0 2)(e, a, a)\n")
    group.budget = Budget(max_states=300)
    with pytest.raises(NotContractingError) as info:
        compute_nucleus(group)
    rounds = info.value.rounds
    assert len(rounds) == 149
    first, last = ", ".join(map(str, rounds[:3])), ", ".join(map(str, rounds[-3:]))
    assert str(info.value).endswith(
        f" after rounds of {first}, ... (143 more) ..., {last} candidates")


CHAINS17 = str(Path(__file__).parent / "groups" / "chains17.txt")


# chains17 is two adding-machine chains of 8 and 9 states: a bounded
# automaton, so contracting, whose nucleus search interns a product with
# sections 71 levels deep
@pytest.mark.parametrize("spec, size", [
    ("kneading:0000000000", 133), ("kneading:00000000000000", 241), (CHAINS17, 307)],
    ids=["0000000000-133", "00000000000000-241", "chains17-307"])
def test_long_kneading_nucleus_fits_the_default_budget(spec, size):
    """Only the deep sections of products of candidates with the
    generators' closure are interned, so the machine holds the nucleus and
    nothing else."""
    group = resolve_group(spec)
    nucleus = compute_nucleus(group)
    assert len(nucleus) == size
    assert len(group.machine) == len(nucleus)


@st.composite
def bounded_automata(draw):
    """Alphabet size and recursion of a random automaton whose sections
    are each the identity, one generator or one inverse."""
    d = draw(st.integers(2, 3))
    names = "abc"[:draw(st.integers(1, 3))]
    letters = ["e", *names, *names.upper()]
    recursion = {}
    for sym in names:
        perm = tuple(draw(st.permutations(range(d))))
        sections = tuple(GenWord.parse(draw(st.sampled_from(letters))) for _ in range(d))
        recursion[sym] = (perm, sections)
    return d, recursion


def is_nucleus(group, states) -> bool:
    """Independent check of a nucleus given by its printed words: no two of
    them name the same element, and they name the elements of the
    brute-force nucleus, `oracles.nucleus`, the elements met as sections at
    every depth.  Elements are told apart by their action on a whole level,
    10 for a binary alphabet and 6 for a larger one."""
    level = 10 if group.d == 2 else 6
    sigs = {oracles.signature(group, oracles.text_factors(text), level) for text in states}
    return len(sigs) == len(states) and sigs == set(oracles.nucleus(group, level))


@settings(max_examples=100, deadline=None)
@given(bounded_automata())
def test_computed_nucleus_passes_the_independent_check(automaton):
    """Whenever the closure stops, the check accepts its printed words as
    the nucleus; the strategy draws generators on no cycle of sections too,
    such as b = (0 1)(a, a) beside a = (0 1)(e, a)."""
    d, recursion = automaton
    group = GroupDef(d, recursion)
    group.budget = Budget(max_states=1_000)
    try:
        nucleus = compute_nucleus(group)
    except NotContractingError:
        return
    assert is_nucleus(group, nucleus.to_json()["states"])


def test_lamplighter_oracle_grows():
    group = GroupDef.parse(LAMPLIGHTER)
    with pytest.raises(oracles.OracleBudget):
        oracles.nucleus(group, level=6, cap=40)


def test_nucleus_structure(basilica_nucleus):
    n = basilica_nucleus
    e = n.identity_index
    assert str(n.reps[e]) == "e"
    d = n.group.d
    machine = n.group.machine
    for i in n:
        for x in range(d):
            assert 0 <= n.sections[i][x] < len(n)
        inverse = machine.inverse_state(n.ids[i])
        assert inverse in n.index
        assert machine.inverse_state(inverse) == n.ids[i]
    reps = {str(r) for r in n.reps}
    assert reps == {"e", "a", "b", "A", "B", "aB", "bA"}


def test_nucleus_absorbs_random_products(basilica_nucleus):
    n = basilica_nucleus
    group = n.group
    machine = group.machine
    rng = random.Random(5)
    members = set(n.ids)
    for _ in range(200):
        i, j = rng.randrange(len(n)), rng.randrange(len(n))
        prod = n.reps[i] * n.reps[j]
        # all sections at depth len(nucleus) must lie inside
        sid = machine.intern(prod)
        for v in product(range(group.d), repeat=4):
            cur = sid
            for x in v:
                cur = machine.kids[cur][x]
            assert cur in members


def test_nucleus_minimality_small_examples():
    for name in ("adding", "grigorchuk", "basilica"):
        group = resolve_group(name)
        nucleus = compute_nucleus(group)
        machine = group.machine
        # every non-identity state recurs arbitrarily deep in some product
        # of at most two generator letters, so no state can be dropped
        needed = set(nucleus.ids) - {machine.identity}
        gens = [GenWord([(s, e)]) for s in group.generators for e in (1, -1)]
        words = gens + [g * h for g in gens for h in gens]
        persistent = set()
        for w in words:
            region = machine.reachable([machine.intern(w)])
            persistent |= oracles.persistent({s: machine.kids[s] for s in region})
        assert needed <= persistent


def test_is_regular(adding_nucleus, grigorchuk_nucleus, basilica_nucleus, trivial2):
    assert is_regular(adding_nucleus)
    assert not is_regular(grigorchuk_nucleus)
    assert is_regular(basilica_nucleus)
    assert is_regular(compute_nucleus(trivial2))


def test_is_regular_agrees_with_direct_check(adding_nucleus, grigorchuk_nucleus,
                                             basilica_nucleus):
    # direct form: for every state some depth n <= 10 works
    for nucleus in (adding_nucleus, grigorchuk_nucleus, basilica_nucleus):
        group = nucleus.group
        e = nucleus.identity_index

        def state_ok(i):
            for n in range(1, 11):
                good = True
                for v in product(range(group.d), repeat=n):
                    # walk v, noting whether every letter is fixed
                    cur, fixed = i, True
                    for x in v:
                        fixed = fixed and nucleus.perms[cur][x] == x
                        cur = nucleus.sections[cur][x]
                    if fixed and cur != e:
                        good = False
                        break
                if good:
                    return True
            return False

        direct = all(state_ok(i) for i in nucleus if i != e)
        assert direct == is_regular(nucleus)


def test_self_replicating(adding, basilica, grigorchuk):
    assert is_self_replicating(adding, 2) == "yes"
    assert is_self_replicating(basilica, 4) == "yes"
    # contrary to a first guess, the letter swapper witnesses all pairs here
    assert is_self_replicating(grigorchuk, 2) == "yes"
    flip = GroupDef.parse("alphabet: 2\na = (0 1)(a, a)\n")
    # a level of the ball adds nothing: the group is finite and fully searched
    assert is_self_replicating(flip, 6) == "no"
    for spec in ("trivial:2", "trivial:3", str(Path(__file__).parent / "groups" / "rotation3.txt")):
        assert is_self_replicating(resolve_group(spec), 4) == "no", spec


def test_self_replication_budget_says_how_far_the_search_got():
    group = GroupDef.parse("alphabet: 3\na = (0 2)(e, a, a)\n")
    group.budget = Budget(max_states=10)
    with pytest.raises(BudgetExceeded, match=r"^self-replication search: state budget 10 "
                       r"exhausted after 4 of 8 ball levels$"):
        is_self_replicating(group, 8)


def test_level_transitive(adding, grigorchuk):
    assert is_level_transitive(adding, 8)
    assert is_level_transitive(grigorchuk, 8)
    inert = GroupDef.parse("alphabet: 2\na = ()(a, a)\n")
    assert not is_level_transitive(inert, 1)


def test_length3_relations_examples(adding_nucleus, grigorchuk_nucleus, trivial2):
    rel = length3_relations(grigorchuk_nucleus)
    texts = {tuple(str(w) for w in t) for t in rel}
    assert ("a", "a", "e") in texts
    assert ("b", "b", "e") in texts
    assert ("b", "c", "d") in texts

    rel = length3_relations(adding_nucleus)
    texts = {tuple(str(w) for w in t) for t in rel}
    # identity padding plus the inverse pair in all arrangements
    expected = {
        ("e", "e", "e"),
        ("a", "A", "e"), ("A", "a", "e"),
        ("a", "e", "A"), ("A", "e", "a"),
        ("e", "a", "A"), ("e", "A", "a"),
    }
    assert texts == expected

    rel = length3_relations(compute_nucleus(trivial2))
    assert [tuple(str(w) for w in t) for t in rel] == [("e", "e", "e")]


def test_kneading_nucleus_budgets():
    for v in ("", "0", "1", "01", "111"):
        group = kneading_group(v)
        nucleus = compute_nucleus(group)
        assert len(nucleus) >= 3


def test_nucleus_deterministic_across_runs():
    # the contract: the final set does not depend on exploration history
    for name in ("adding", "basilica", "grigorchuk"):
        first = compute_nucleus(resolve_group(name))
        second = compute_nucleus(resolve_group(name))
        assert [str(r) for r in first.reps] == [str(r) for r in second.reps]
        assert first.sections == second.sections


@pytest.mark.parametrize("name, forged", [
    ("adding", [["e"], ["a", "aa"]]),
    ("basilica", [["e"], ["a", "b"]]),
    ("grigorchuk", [["a"], ["a", "b", "c", "d", "ab"]]),
    ("kneading:000", [["a", "b", "c", "d"],
                      ["a", "b", "c", "d", "Ab", "Ac", "Ad", "Bc", "Bd", "Cd", "abc"]])])
def test_independent_check_refuses_other_state_sets(name, forged):
    """States missing, extra states or a state named twice are refused."""
    states = compute_nucleus(resolve_group(name)).to_json()["states"]
    assert is_nucleus(resolve_group(name), states)
    for other in [*forged, states + states[-1:]]:
        assert not is_nucleus(resolve_group(name), other)


BENCH_GROUPS = Path(__file__).parent.parent / "bench" / "groups"
PRODUCT_SPECS = (["adding", "basilica", "grigorchuk"]
                 + [str(BENCH_GROUPS / name) for name in ("odometer2.txt", "odometer3.txt")]
                 + ["kneading:" + "".join(bits) for n in range(1, 6)
                    for bits in product("01", repeat=n)])


METAMORPHIC_SPECS = (["adding", "basilica", "grigorchuk"]
                     + [str(BENCH_GROUPS / name) for name in ("odometer2.txt", "odometer3.txt")]
                     + ["kneading:" + "".join(bits) for n in range(1, 4)
                        for bits in product("01", repeat=n)])


@pytest.mark.parametrize("spec", METAMORPHIC_SPECS)
def test_a_generator_that_is_a_word_changes_no_nucleus(spec):
    """Appending a generator whose recursion is that of a word in the others
    leaves the group as it was, so its nucleus size and its level quotients
    up to level 6 do not change, whether or not the new generator lies on a
    cycle of sections.  (`abel` is left out: it works over the generator
    basis, where such a generator gets a column of its own.)"""
    group = resolve_group(spec)
    nucleus = compute_nucleus(group)
    quotients = [quotient_graph(nucleus, n).json_text() for n in range(7)]
    sym = next(c for c in "abcdfghijk" if c not in group.generators)
    rng = random.Random(Path(spec).name)
    for _ in range(10):
        word = GenWord([(rng.choice(group.generators), rng.choice((1, -1)))
                        for _ in range(rng.randint(1, 4))])
        bigger = compute_nucleus(GroupDef(group.d, {**group.recursion, sym: group.wreath(word)}))
        assert len(bigger) == len(nucleus), f"{sym} = {word}"
        assert [quotient_graph(bigger, n).json_text() for n in range(7)] == quotients


@pytest.mark.parametrize("spec", PRODUCT_SPECS)
def test_nucleus_products_match_interned_words(spec):
    """Pair (i, j) of `nucleus_products` is the state of the word r_i * r_j,
    and the reps it creates are those that interning the words in the same
    order creates on a fresh group."""
    group = resolve_group(spec)
    nucleus = compute_nucleus(group)
    states = nucleus_products(nucleus)
    by_word = resolve_group(spec)
    assert compute_nucleus(by_word).reps == nucleus.reps
    words = [r1 * r2 for r1 in nucleus.reps for r2 in nucleus.reps]
    word_states = [by_word.machine.intern(w) for w in words]
    assert [str(group.machine.reps[s]) for s in states] == [
        str(by_word.machine.reps[s]) for s in word_states]
    assert states == [group.machine.intern(w) for w in words]


def test_nucleus_products_read_the_machine_budget():
    """A budget set after the nucleus is computed bounds each product on its
    own: no product of kneading:00000 adds more than 6 states, though they
    add 1 512 in all, and under 3 states the verdict names that budget and
    the products done."""
    group = resolve_group("kneading:00000")
    nucleus = compute_nucleus(group)
    group.budget = Budget(max_states=3)
    with pytest.raises(BudgetExceeded, match=r"^state budget 3 exhausted after 13 of 1849 "
                       r"nucleus products$"):
        nucleus_products(nucleus)
    fresh = resolve_group("kneading:00000")
    fresh_nucleus = compute_nucleus(fresh)
    fresh.budget = Budget(max_states=6)
    assert nucleus_products(fresh_nucleus) == nucleus_products(compute_nucleus(
        resolve_group("kneading:00000")))
    assert len(fresh.machine) == 43 + 1_512
