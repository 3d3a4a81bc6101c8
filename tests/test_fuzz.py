"""Fuzz of the command line: whatever the group, level, format, table,
word or portrait, a command ends in exit 0, 1 or 2, never lets an
exception escape, and prints nothing on standard output when it exits 1."""

import contextlib
import io
import json
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

import oracles
from selfsim.catalogue import builtin_groups, resolve_group
from selfsim.cli import main
from selfsim.ssgroup import ALPHABET_LETTERS, perm_to_cycles

GROUPS = Path(__file__).parent / "groups"

GROUP_SPECS = st.one_of(
    st.sampled_from(sorted(builtin_groups()) + ["trivial:2", "trivial:3",
                                                str(GROUPS / "flip.txt"),
                                                str(GROUPS / "rotation3.txt"),
                                                str(GROUPS / "tr.txt")]),
    st.text("01", max_size=4).map(lambda bits: "kneading:" + bits),
)
LEVELS = st.one_of(st.integers(-3, 10), st.sampled_from([21, 25, 10 ** 9]))


@st.composite
def level_commands(draw):
    command = draw(st.sampled_from(["limit", "schreier", "moore", "check"]))
    argv = [command, draw(GROUP_SPECS)]
    if command != "moore":
        argv += ["--level", str(draw(LEVELS))]
    if command != "check":
        argv += ["--format", draw(st.sampled_from(["json", "dot"]))]
    return argv


def exits_honestly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert code != 1 or out.getvalue() == "", argv


@settings(max_examples=60, deadline=None)
@given(level_commands())
def test_level_commands_exit_honestly(argv):
    exits_honestly(argv)


# words over the binary and ternary alphabets, "e" the empty word, and some
# that are not words at all
VERTICES = st.one_of(st.text("01", max_size=3).map(lambda v: v or "e"),
                     st.sampled_from(["2", "12", "x", "", "-1"]))
ODD_ENTRIES = st.sampled_from(["q", "a1", " ", "\u212a", "abcdABCD"])


def entries(letters):
    """Words over a group's generators and their inverses, or odd text."""
    words = st.text(letters + letters.upper() + "e", max_size=6).map(lambda g: g or "e")
    return st.one_of(words, words, words, ODD_ENTRIES)


ANTICHAINS = [["e"], ["0", "1"], ["0", "10", "11"], ["00", "01", "1"],
              ["00", "01", "10", "11"], ["0", "1", "2"], ["0", "0"], ["0"], []]


@st.composite
def tables(draw, letters):
    """A table's JSON text: a permutation of cylinders with drawn entries,
    columns of drawn words, valid JSON of the wrong shape, or no JSON."""
    kind = draw(st.sampled_from(["cylinders"] * 3 + ["columns", "shape", "text"]))
    if kind == "cylinders":
        domain = draw(st.sampled_from(ANTICHAINS))
        range_ = draw(st.permutations(domain))
        data = {"domain": domain, "range": range_,
                "entries": draw(st.lists(entries(letters), min_size=len(domain),
                                         max_size=len(domain)))}
    elif kind == "columns":
        data = {key: draw(st.lists(column, max_size=3))
                for key, column in (("domain", VERTICES), ("entries", entries(letters)),
                                    ("range", VERTICES))}
    elif kind == "shape":
        data = draw(st.sampled_from([[], 5, "a", None, {}, {"domain": ["e"]},
                                     {"domain": "e", "entries": "e", "range": "e"},
                                     {"domain": [0], "entries": ["e"], "range": ["e"]}]))
    else:
        return draw(st.sampled_from(["", "{", "[1,", "nul", "@"]))
    return json.dumps(data)


VG_ARITY = {"mul": 2, "inv": 1, "eq": 2, "canon": 1, "apply": 2}


@st.composite
def vg_commands(draw):
    """A verb with the arguments it takes, or with 0 to 3 of any kind;
    entries are mostly words over the group's own generators."""
    spec = draw(GROUP_SPECS)
    letters = "".join(resolve_group(spec).generators)
    verb = draw(st.sampled_from(sorted(VG_ARITY)))
    if draw(st.booleans()):
        args = draw(st.lists(tables(letters), min_size=VG_ARITY[verb], max_size=VG_ARITY[verb]))
        if verb == "apply":
            args[1] = draw(VERTICES)
    else:
        args = draw(st.lists(st.one_of(tables(letters), VERTICES), max_size=3))
    return ["vg", spec, verb, *args]


@settings(max_examples=100, deadline=None)
@given(vg_commands())
def test_vg_commands_exit_honestly(argv):
    exits_honestly(argv)


@st.composite
def portraits(draw):
    """A portrait's JSON text: a drawn consistent portrait, one with a key
    changed or dropped, or JSON that is no portrait."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    data = oracles.random_portrait(rng, max_cycles=3, max_len=3, max_tail=2).to_json()
    kind = draw(st.sampled_from(["valid", "changed", "dropped", "shape"]))
    key = draw(st.sampled_from(sorted(data)))
    if kind == "changed":
        data[key] = draw(st.sampled_from([[], {}, 5, "odd", ["q"], {"q": []}, {"q": "q"}]))
    elif kind == "dropped":
        del data[key]
    elif kind == "shape":
        data = draw(st.sampled_from([[], 5, None, "p"]))
    return json.dumps(data)


@st.composite
def other_commands(draw):
    command = draw(st.sampled_from(["wp", "m-invariant", "abel-rational"]))
    if command == "wp":
        spec = draw(GROUP_SPECS)
        argv = ["wp", spec, draw(entries("".join(resolve_group(spec).generators)))]
        if draw(st.booleans()):
            argv += ["--budget-states", str(draw(st.integers(-1, 50)))]
    elif command == "m-invariant":
        words = draw(st.one_of(st.sampled_from(ANTICHAINS), st.lists(VERTICES, max_size=4)))
        argv = ["m-invariant", "--alphabet", str(draw(st.integers(-1, 4))),
                draw(st.sampled_from([json.dumps(words), json.dumps({"w": words}), "[", "5"]))]
    else:
        argv = ["abel-rational", draw(portraits())]
        if draw(st.booleans()):
            argv += ["--predict", *(str(draw(st.integers(-1, 3))) for _ in range(2))]
        if draw(st.booleans()):
            argv.append("--odd-exception")
    return argv


@settings(max_examples=100, deadline=None)
@given(other_commands())
def test_word_antichain_and_portrait_commands_exit_honestly(argv):
    exits_honestly(argv)


# lines that break a group file: a generator named twice, a malformed line,
# a bad header, a cycle naming a letter twice, a section naming a letter
# that is not a generator, text around or between the groups, a second
# header, and lines that only start like one
ODD_LINES = ["a = ()(e, e)", "a = (0 1)", "b (0 1)(e, e)", "alphabet: x", "alphabet",
             "c = (0 0)(e, e)", "c = ()(q, e)", "= ()(e, e)", "c = 7(e, e)",
             "c = (0 1)(e, e) junk", "c = (0 1)zz(e, e)", "alphabet: 3", "alphabets: 2",
             "alphabet soup: 2"]


@st.composite
def group_files(draw):
    """A group file's text: recursion lines over 2 to 4 letters whose
    sections are short words over the generators, under an alphabet header
    that mostly matches them and otherwise is of 1 to 10^8 letters or next
    to the bound; some files have an unknown letter or an odd line."""
    d = draw(st.integers(2, 4))
    header = draw(st.sampled_from([st.just(d)] * 3 + [
        st.integers(1, 10 ** 8),
        st.sampled_from([ALPHABET_LETTERS - 1, ALPHABET_LETTERS, ALPHABET_LETTERS + 1])]))
    names = "abc"[:draw(st.integers(0, 3))]
    letters = names + names.upper() + ("z" if draw(st.integers(0, 3)) == 0 else "")
    section = st.text(letters, max_size=2).map(lambda w: w or "e")
    lines = [f"alphabet: {draw(header)}"]
    for sym in names:
        cycles = perm_to_cycles(tuple(draw(st.permutations(range(d)))))
        lines.append(f"{sym} = {cycles}({', '.join(draw(section) for _ in range(d))})")
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(ODD_LINES)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["nucleus", "abel", "check", "present"]), group_files())
def test_group_file_commands_exit_honestly(tmp_path_factory, command, text):
    path = tmp_path_factory.mktemp("group") / "group.txt"
    path.write_text(text)
    exits_honestly([command, str(path), "--budget-states", "200"])
