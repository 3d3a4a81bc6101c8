import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from oracles import coarsest_common_refinement
from selfsim.words import (
    Antichain,
    common_refinement,
    format_word,
    is_complete_antichain,
    m_invariant,
    parse_word,
)


def w(s):
    return parse_word(s)


def ac(strings, d=2):
    return Antichain([parse_word(s) for s in strings], d)


def test_complete_antichain_examples():
    assert is_complete_antichain([w("0"), w("10"), w("11")], 2)
    assert not is_complete_antichain([w("0"), w("11")], 2)
    assert is_complete_antichain([w("e")], 2)
    assert not is_complete_antichain([w("0"), w("01")], 2)  # not an antichain


def test_common_refinement_examples():
    assert common_refinement(ac(["e"]), ac(["0", "1"])) == ac(["0", "1"])
    assert common_refinement(ac(["0", "1"]), ac(["0", "10", "11"])) == ac(
        ["0", "10", "11"]
    )
    got = common_refinement(ac(["00", "01", "1"]), ac(["0", "10", "11"]))
    assert got == ac(["00", "01", "10", "11"])


def test_common_refinement_matches_bruteforce():
    a1 = ("0", "10", "11")
    a2 = ("00", "01", "1")
    got = common_refinement(ac(a1), ac(a2))
    best = coarsest_common_refinement(2, [parse_word(s) for s in a1],
                                      [parse_word(s) for s in a2], 2)
    assert got.words == best


def test_m_invariant_examples():
    assert m_invariant([w("0"), w("10"), w("11")], 2) == 0
    assert m_invariant([w("0"), w("1"), w("2")], 3) == 1
    assert m_invariant([parse_word(s) for s in ["0", "10", "11", "12"]], 3) == 0


def test_m_invariant_unchanged_by_splitting():
    a = ac(["0", "1", "2"], 3)
    split = a.split(w("0"))
    assert split.is_complete()
    assert len(split) == len(a) + 2
    assert m_invariant(split.words, 3) == m_invariant(a.words, 3)


def test_antichain_validation():
    with pytest.raises(ValueError):
        Antichain([w("0"), w("01")], 2)
    with pytest.raises(ValueError):
        Antichain([w("2")], 2)


def test_clopen_normalization():
    assert Antichain.clopen([w("00"), w("01"), w("1")], 2).words == ((),)
    assert Antichain.clopen([w("0"), w("00")], 2).words == ((0,),)
    assert Antichain.clopen([w("10"), w("11")], 2).words == ((1,),)


def test_clopen_of_a_whole_level():
    level = list(product(range(2), repeat=12))
    assert Antichain.clopen(level, 2).words == ((),)
    assert Antichain.clopen(level[:-1], 2).words[-1] == (1,) * 11 + (0,)


@st.composite
def cylinder_lists(draw):
    """Parts of complete antichains, so that sibling families occur, plus
    nested and repeated words."""
    d = draw(st.sampled_from([2, 3]))
    words = list(draw(complete_antichains(d=d, max_depth=3)).words)
    for _ in range(draw(st.integers(0, 2))):
        if words:
            words.remove(draw(st.sampled_from(words)))
    letters = st.lists(st.integers(0, d - 1), max_size=4).map(tuple)
    words += draw(st.lists(letters, max_size=3))
    if words:
        v = draw(st.sampled_from(words))
        words += draw(st.sampled_from([[], [v], [v + (draw(st.integers(0, d - 1)),)]]))
    return draw(st.permutations(words)), d


@given(cylinder_lists())
def test_clopen_matches_definition(case):
    words, d = case
    out = Antichain.clopen(words, d).words
    for i, v in enumerate(out):
        assert not any(i != j and u[: len(v)] == v for j, u in enumerate(out))
    depth = max(map(len, words), default=0)
    for v in product(range(d), repeat=depth):
        assert any(v[: len(u)] == u for u in words) == any(v[: len(u)] == u for u in out)
    for v in out:
        assert not (v and all(v[:-1] + (x,) in out for x in range(d)))


def test_complement():
    assert ac(["0"]).complement() == ac(["1"])
    assert ac(["01"]).complement() == ac(["00", "1"])
    assert ac(["e"]).complement().is_empty()
    assert Antichain([], 2).complement().words == ((),)


def test_complement_of_a_deep_word():
    deep = Antichain([(0,) * 1500], 2).complement()
    assert len(deep) == 1500
    assert deep.words[-1] == (1,)
    assert deep.words[0] == (0,) * 1499 + (1,)


def test_refinement_idempotent():
    a1 = ac(["00", "01", "1"])
    a2 = ac(["0", "10", "11"])
    r = common_refinement(a1, a2)
    assert r.refines(a1) and r.refines(a2)
    assert common_refinement(r, r) == r
    assert common_refinement(r, a1) == r


@st.composite
def complete_antichains(draw, d=2, max_depth=4):
    words = []

    def build(prefix):
        if len(prefix) >= max_depth or not draw(st.booleans()):
            words.append(prefix)
        else:
            for x in range(d):
                build(prefix + (x,))

    build(())
    return Antichain(words, d)


@given(complete_antichains())
def test_random_complete_antichains_measure_one(a):
    assert a.is_complete()
    assert sum(Fraction(1, 2 ** len(v)) for v in a.words) == 1


@given(complete_antichains(), complete_antichains())
def test_random_refinement_refines_both(a1, a2):
    r = common_refinement(a1, a2)
    assert r.is_complete()
    assert r.refines(a1) and r.refines(a2)


def brute_complete(words, d):
    """Complete antichain by definition: letters in range, no word a prefix
    of another (compared pairwise, so a repeat fails), and cylinder
    measures summing to exactly one."""
    if not words or any(not 0 <= x < d for v in words for x in v):
        return False
    for i, v in enumerate(words):
        for j, u in enumerate(words):
            if i != j and u[: len(v)] == v:
                return False
    return sum(Fraction(1, d ** len(v)) for v in words) == 1


@st.composite
def word_lists(draw):
    """Complete antichains, some of them edited into near misses."""
    d = draw(st.sampled_from([2, 3]))
    words = list(draw(complete_antichains(d=d, max_depth=3)).words)
    edit = draw(st.sampled_from(["none", "repeat", "nest", "overlap", "drop",
                                 "empty", "letter", "random"]))
    if edit == "repeat":
        words.append(draw(st.sampled_from(words)))
    elif edit == "nest":
        words.append(draw(st.sampled_from(words)) + (draw(st.integers(0, d - 1)),))
    elif edit == "overlap" and len(words) > 1:
        # measure still sums to one: a deepest word makes way for the
        # children of one of its siblings
        deepest = max(words, key=len)
        sibling = next(v for v in words if len(v) == len(deepest) and v != deepest)
        words.remove(deepest)
        words.extend(sibling + (x,) for x in range(d))
    elif edit == "drop":
        words.remove(draw(st.sampled_from(words)))
    elif edit == "empty":
        words = []
    elif edit == "letter":
        v = words.pop()
        words.append(v[:-1] + (d,) if v else (d,))
    elif edit == "random":
        letters = st.lists(st.integers(0, d - 1), max_size=3).map(tuple)
        words = draw(st.lists(letters, max_size=6))
    return draw(st.permutations(words)), d


@given(word_lists())
def test_complete_antichain_matches_definition(case):
    words, d = case
    assert is_complete_antichain(words, d) == brute_complete(words, d)


@given(complete_antichains(d=3, max_depth=3))
def test_random_splitting_preserves_m(a):
    word = min(a.words)
    split = a.split(word)
    assert split.is_complete()
    assert m_invariant(split.words, 3) == m_invariant(a.words, 3)


def test_serialization_roundtrip():
    assert parse_word(format_word(w("011"))) == w("011")
    assert parse_word("e") == ()
    assert format_word(()) == "e"
