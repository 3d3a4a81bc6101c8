import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import selfsim
from selfsim import Budget, GroupDef, kneading_group, resolve_group
from selfsim.abelian import vg_abelianization
from selfsim.catalogue import builtin_groups
from selfsim.cli import build_parser, main
from selfsim.nucleus import compute_nucleus
from selfsim.ssgroup import ALPHABET_LETTERS
from selfsim.vg import Table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_wp_examples(capsys):
    code, out, _ = run(capsys, "wp", "grigorchuk", "b D C")
    assert code == 0 and out.strip() == "trivial"
    code, out, _ = run(capsys, "wp", "adding", "aa")
    assert code == 0 and out.startswith("nontrivial")


ODOMETER3 = str(Path(__file__).parent.parent / "bench" / "groups" / "odometer3.txt")


@pytest.mark.parametrize("group, word, code, expected", [
    # an unknown symbol is named as the first one in the reduced word
    ("odometer3", "CCB", 1, "error: unknown generator 'c'\n"),
    ("grigorchuk", "zi", 1, "error: unknown generator 'z'\n"),
    ("grigorchuk", "a\u00e9", 1, "error: unknown generator '\u00e9'\n"),
    ("grigorchuk", "a\u00df", 1, "error: unknown generator '\u00df'\n"),
    # the dotted capital I lowercases to two code points, an i and a dot
    ("grigorchuk", "\u0130", 1, "error: unknown generator 'i\u0307'\n"),
    ("grigorchuk", "z\u0130", 1, "error: unknown generator 'z'\n"),
    ("grigorchuk", "a1", 1, "error: bad symbol '1' in word 'a1'\n"),
    ("grigorchuk", "aE", 1, "error: unknown generator 'e'\n"),
    # symbols that cancel away are never looked up
    ("adding", "xXa", 0, "nontrivial (moves 0)\n"),
    ("adding", "a\u00e9\u00c9", 0, "nontrivial (moves 0)\n"),
    ("adding", "a\u00df\u1e9e", 0, "nontrivial (moves 0)\n"),
    # the Kelvin sign lowercases to k, so it is the inverse of k
    ("kneading:000000000", "k\u212a", 0, "trivial\n"),
    ("kneading:000000000", "\u212a", 0, "nontrivial (moves 0000000000)\n"),
])
def test_wp_word_errors(capsys, group, word, code, expected):
    got, out, err = run(capsys, "wp", ODOMETER3 if group == "odometer3" else group, word)
    assert (got, out + err) == (code, expected)


def test_abel_examples(capsys):
    code, out, _ = run(capsys, "abel", "grigorchuk")
    assert code == 0 and out.strip() == "trivial group"
    code, out, _ = run(capsys, "abel", "adding")
    assert code == 0 and out.strip() == "Z"


def test_abel_past_a_hundred_thousand_product_states(capsys):
    """The 343² products of kneading:0^17's nucleus states take the machine
    past 110 000 states; each product counts only the states it adds."""
    code, out, err = run(capsys, "abel", "kneading:" + "0" * 17)
    assert (code, out, err) == (0, "Z\n", "")


def test_nucleus_output(capsys):
    code, out, _ = run(capsys, "nucleus", "adding")
    assert code == 0
    assert "3 states" in out
    code, out, _ = run(capsys, "nucleus", "adding", "--json")
    data = json.loads(out)
    assert sorted(data["states"]) == ["A", "a", "e"]


def test_exit_codes(capsys):
    code, _, err = run(capsys, "wp", "adding", "zz")
    assert code == 1 and "error" in err
    lamp_text = "alphabet: 2\na = (0 1)(a, b)\nb = ()(a, b)\n"
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lamp.group")
        with open(path, "w") as fh:
            fh.write(lamp_text)
        code, _, err = run(capsys, "nucleus", path, "--budget-states", "200")
        assert code == 2
        assert "not contracting" in err
    code, out, _ = run(capsys, "wp", "grigorchuk", "adadadad", "--budget-states", "3")
    assert code == 2 and out.strip() == "undecided"


@pytest.mark.parametrize("argv", [
    ["nucleus", "basilica", "--budget-states", "-1"],
    ["present", "adding", "--budget-states", "-1"],
    ["wp", "adding", "aa", "--budget-states", "-1"],
    ["vg", "adding", "canon", '{"domain":["e"],"entries":["a"],"range":["e"]}',
     "--budget-states", "-1"],
])
def test_negative_budget_is_bad_usage(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: a budget cannot be negative")


def test_there_is_no_depth_budget(capsys):
    """The state budget bounds an intern's section depth too, so no command
    takes a depth budget."""
    code, out, err = run(capsys, "nucleus", "basilica", "--budget-depth", "3")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --budget-depth 3" in err


def test_wp_is_bounded_by_states_not_depth(capsys):
    """In kneading:0^20, a^2m has section a^m 21 levels down, so a^16 first
    moves a vertex at level 85, while its search meets fewer than 200
    section words.  Each level adds a word, so the state budget alone
    bounds the search."""
    argv = ["wp", "kneading:" + "0" * 20, "a" * 16]
    assert run(capsys, *argv) == (0, "nontrivial (moves " + "0" * 85 + ")\n", "")
    assert run(capsys, *argv, "--budget-states", "10") == (2, "undecided\n", "")


def test_vg_canon_reads_the_state_budget(capsys):
    """Within 10 states kneading:0^17's nucleus is out of reach, so `vg
    canon` prints the split table as given, `canonical_form`'s fallback."""
    text = '{"domain":["0","1"],"entries":["e","s"],"range":["1","0"]}'
    code, out, err = run(capsys, "vg", "kneading:" + "0" * 17, "canon", text,
                         "--budget-states", "10")
    group = kneading_group("0" * 17)
    group.budget = Budget(max_states=10)
    table = Table.from_json(group, json.loads(text))
    assert table.canonical_form() is table
    assert (code, out, err) == (0, json.dumps(table.to_json()) + "\n", "")
    assert json.loads(out)["domain"] == ["0", "1"]


BESIDE_FILES = [("basilica", content) for content in [
    '{"group": "', "not json at all", "[]", "",
    '{"group": "HASH", "states": "ab"}', '{"group": "HASH", "states": [5]}',
    # words under the right hash, with nucleus states missing or extra ones
    '{"group": "HASH", "states": ["a", "b"]}', '{"group": "HASH", "states": ["a", "b", "aa"]}',
    "VALID"]] + [
    # the right states, with grigorchuk's b named by the word cd
    ("grigorchuk", '{"group": "HASH", "alphabet": 2, "states": ["e", "a", "cd", "c", "d"]}')]


@pytest.mark.parametrize("name, content", BESIDE_FILES, ids=[c for _, c in BESIDE_FILES])
def test_bad_nucleus_cache_is_recomputed(capsys, tmp_path, name, content):
    """A FILE.nucleus.json beside the group file, VALID standing for the
    computed nucleus, is ignored: every command that takes --no-cache
    prints what it prints with it, leaves the file as it was and writes no
    other file."""
    group = resolve_group(name)
    path = tmp_path / f"{name}.group"
    path.write_text(group.to_text())
    if content == "VALID":
        content = json.dumps(compute_nucleus(group).to_json())
    cache = tmp_path / f"{name}.group.nucleus.json"
    cache.write_bytes(content.replace("HASH", group.content_hash()).encode())
    before = cache.read_bytes()
    for argv in (["nucleus"], ["nucleus", "--json"], ["limit", "--level", "2"], ["moore"],
                 ["check"], ["abel"], ["present"]):
        code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 0
        assert (code, out) == run(capsys, argv[0], str(path), *argv[1:], "--no-cache")[:2]
        if argv == ["nucleus"] and name == "grigorchuk":
            assert "  b = ()(a, c)\n" in out
    assert cache.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, cache.name]


def test_check_keeps_the_budget_for_self_replication(capsys):
    """Within 2 states the self-replication search itself runs out: exit 2
    with nothing on standard output, and a verdict that names the search
    and how many of its ball levels it finished."""
    code, out, err = run(capsys, "check", "grigorchuk", "--budget-states", "2")
    assert code == 2 and out == ""
    assert err == "self-replication search: state budget 2 exhausted after 0 of 4 ball levels\n"


TR = str(Path(__file__).parent / "groups" / "tr.txt")


def test_a_generator_on_no_cycle_is_not_in_the_nucleus(capsys):
    """In tr.txt, c = (0 1)(a, a) is a section of nothing, so the nucleus
    is the adding machine's {e, A, a}: `moore` and `limit` print what they
    print for `adding`, and the presentation has no generator L[c]."""
    code, out, _ = run(capsys, "nucleus", TR)
    assert code == 0 and out.splitlines()[0] == f"nucleus of {TR}: 3 states"
    for argv in [["moore"]] + [["limit", "--level", str(n)] for n in range(9)]:
        tr = run(capsys, argv[0], TR, *argv[1:])
        assert tr[0] == 0 and tr == run(capsys, argv[0], "adding", *argv[1:]), argv
    code, out, _ = run(capsys, "present", TR, "--verify")
    assert code == 0 and out.splitlines()[1] == "  L[A] L[a]"
    code, out, _ = run(capsys, "check", TR)
    assert out.splitlines()[0] == "contracting: yes (3 states)"


def test_check_gives_self_replication_its_own_budget(capsys):
    """grigorchuk's generators do not fit in 5 states, so no nucleus round
    finishes and the verdict is "undecided", not "not contracting"; the
    self-replication search then counts only the states it adds itself, so
    it still answers."""
    code, out, err = run(capsys, "check", "grigorchuk", "--budget-states", "5")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "contracting: undecided within budget Budget(max_states=5): "
        "state budget 5 exhausted interning generator b",
        "self-replicating (radius 4): yes",
        "level-transitive up to 6: yes"]


def test_vg_verbs(capsys):
    swap = json.dumps({"domain": ["0", "1"], "entries": ["e", "e"], "range": ["1", "0"]})
    ident = json.dumps({"domain": ["e"], "entries": ["e"], "range": ["e"]})
    code, out, _ = run(capsys, "vg", "trivial:2", "mul", swap, swap)
    assert code == 0
    code, out2, _ = run(capsys, "vg", "trivial:2", "eq", out.strip(), ident)
    assert code == 0 and out2.strip() == "equal"
    code, out3, _ = run(capsys, "vg", "trivial:2", "canon", out.strip())
    assert json.loads(out3) == json.loads(ident)
    code, out4, _ = run(capsys, "vg", "trivial:2", "inv", swap)
    assert json.loads(out4) == json.loads(swap)
    code, out5, _ = run(capsys, "vg", "trivial:2", "apply", swap, "011")
    assert out5.strip() == "111"


def test_vg_apply_rejects_a_letter_outside_the_alphabet(capsys):
    swap = json.dumps({"domain": ["0", "1"], "entries": ["e", "e"], "range": ["1", "0"]})
    for word in ("02", "2"):
        code, out, err = run(capsys, "vg", "trivial:2", "apply", swap, word)
        assert code == 1 and out == "" and "letter 2" in err


@pytest.mark.parametrize("verb,given", [("mul", 1), ("eq", 1), ("apply", 1), ("mul", 3),
                                        ("inv", 2), ("canon", 2)])
def test_vg_checks_its_argument_count(capsys, verb, given):
    """A verb given too few or too many arguments exits 1, prints nothing on
    standard output and names both counts."""
    a = json.dumps({"domain": ["e"], "entries": ["a"], "range": ["e"]})
    code, out, err = run(capsys, "vg", "adding", verb, *[a] * given)
    want = 1 if verb in ("inv", "canon") else 2
    assert (code, out) == (1, "")
    assert err == f"error: {verb} takes {want} argument{'s' if want > 1 else ''}, got {given}\n"


def test_check_with_a_bad_argument_prints_nothing(capsys):
    for flag in ("--level", "--radius"):
        code, out, err = run(capsys, "check", "adding", flag, "-1")
        assert code == 1 and out == "" and err.startswith("error:")


MALFORMED_JSON = [
    ("m-invariant", "--alphabet", "2", "5"),
    ("m-invariant", "--alphabet", "2", '["0", 1]'),
    ("vg", "trivial:2", "inv", "[]"),
    ("vg", "trivial:2", "inv", '{"domain": 5, "entries": [], "range": []}'),
    ("vg", "trivial:2", "inv", '{"domain": ["0", "1"], "entries": ["e", 3], "range": ["1", "0"]}'),
    ("vg", "trivial:2", "inv",
     '{"domain": ["0", "1"], "entries": ["e", "e", "q"], "range": ["1", "0"]}'),
    ("abel-rational", "[]"),
    ("abel-rational", '{"points": 5, "map": {}}'),
    ("abel-rational", '{"points": ["c", "v"], "map": {"c": "v", "v": "c"}, "cvmod2": 5}'),
    ("abel-rational", '{"points": ["p"], "map": {"p": "p"}, "preimages": {"q": []}}'),
]


@pytest.mark.parametrize("argv", MALFORMED_JSON)
def test_malformed_json_exits_1(capsys, argv):
    """Valid JSON of the wrong shape is an input error, never a traceback,
    and a table's columns must have equal lengths."""
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error:")


def test_abel_rational(capsys):
    portrait = json.dumps({
        "degree_parity": "even",
        "points": ["c", "v", "inf"],
        "map": {"c": "v", "v": "c", "inf": "inf"},
        "cvmod2": [],
    })
    code, out, _ = run(capsys, "abel-rational", portrait)
    assert code == 0 and out.strip() == "Z"
    code, out, _ = run(capsys, "abel-rational", portrait, "--predict", "2", "1")
    assert "predicted: Z" in out


def test_abel_rational_bad_prediction_prints_nothing(capsys):
    """Both answers are computed before either is printed."""
    portrait = '{"points": ["p"], "map": {"p": "p"}}'
    code, out, err = run(capsys, "abel-rational", portrait, "--predict", "0", "1")
    assert (code, out) == (1, "") and err.startswith("error:")


def test_present_summary(capsys):
    code, out, _ = run(capsys, "present", "adding", "--verify")
    assert code == 0
    assert "family N: 7 relators (7 verify as identity)" in out


def test_limit_and_schreier(capsys):
    code, out, _ = run(capsys, "limit", "adding", "--level", "3")
    data = json.loads(out)
    assert len(data["classes"]) == 8
    code, out, _ = run(capsys, "limit", "adding", "--level", "2", "--format", "dot")
    assert out.startswith("graph")
    code, out, _ = run(capsys, "schreier", "grigorchuk", "--level", "2")
    assert len(json.loads(out)["vertices"]) == 4
    code, out, _ = run(capsys, "moore", "adding")
    assert len(json.loads(out)["states"]) == 3


def test_m_invariant_verb(capsys):
    code, out, _ = run(capsys, "m-invariant", "--alphabet", "3", '["0","10","11","12"]')
    assert code == 0 and out.strip() == "0"


def test_catalogue_roundtrip(capsys):
    code, out, _ = run(capsys, "catalogue")
    assert code == 0
    blocks = [b for b in out.split("# ") if b.strip()]
    assert len(blocks) == 3
    for block in blocks:
        name, _, text = block.partition("\n")
        again = GroupDef.parse(text)
        assert again.to_text() == builtin_groups()[name.strip()].to_text()


def test_kneading_examples():
    g = kneading_group("")
    assert g.to_text() == resolve_group("adding").to_text()
    g0 = kneading_group("0")
    assert g0.generators == ("a", "b")
    perm, secs = g0.recursion["b"]
    assert perm == (0, 1) and [str(s) for s in secs] == ["a", "e"]
    g01 = kneading_group("01")
    assert len(g01.generators) == 3
    with pytest.raises(ValueError):
        kneading_group("2")


def test_catalogue_performance():
    groups = list(builtin_groups()) + ["kneading:01"]
    for name in groups:
        start = time.perf_counter()
        group = resolve_group(name)
        compute_nucleus(group)
        vg_abelianization(group)
        assert time.perf_counter() - start < 5.0, name


def test_group_json_products(basilica):
    from selfsim.vg import Table

    t = Table(basilica, [((0,), "a", (1, 0)), ((1, 0), "e", (1, 1)), ((1, 1), "b", (0,))])
    assert Table.from_json(basilica, t.to_json()).rows == t.rows


def test_duplicate_generator_rejected(capsys, tmp_path):
    path = tmp_path / "dup.group"
    path.write_text("alphabet: 2\na = (0 1)(e, a)\na = ()(a, a)\n")
    code, out, err = run(capsys, "nucleus", str(path), "--no-cache")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "defined twice" in err


def test_repeated_calls_share_no_state(capsys):
    """One parser serves every call: a flag, a usage error or a command of
    one call never shows in the next."""
    code, out, _ = run(capsys, "nucleus", "adding", "--json")
    assert code == 0 and json.loads(out)["states"]
    code, out, err = run(capsys, "nucleus", "adding", "--no-such-flag")
    assert code == 1 and out == "" and "usage" in err
    code, out, _ = run(capsys, "nucleus", "adding")
    assert code == 0 and out.startswith("nucleus of adding: 3 states")


def test_options_of_one_call_do_not_become_defaults(capsys):
    code, out, _ = run(capsys, "check", "adding", "--radius", "1", "--level", "2")
    assert code == 0 and "self-replicating (radius 1)" in out and "up to 2:" in out
    code, out, _ = run(capsys, "check", "adding")
    assert code == 0 and "self-replicating (radius 4)" in out and "up to 6:" in out


def test_vg_arguments_do_not_carry_over(capsys):
    """A usage error on one call's argument list leaves the next call's
    list its own."""
    a = json.dumps({"domain": ["e"], "entries": ["a"], "range": ["e"]})
    code, out, err = run(capsys, "vg", "adding", "mul", a)
    assert code == 1 and out == "" and err == "error: mul takes 2 arguments, got 1\n"
    code, out, err = run(capsys, "vg", "adding", "inv", a)
    assert code == 0 and err == ""
    assert json.loads(out) == {"domain": ["e"], "entries": ["A"], "range": ["e"]}


def test_help_twice_prints_the_same_text(capsys):
    code, first, _ = run(capsys, "--help")
    assert code == 0 and first.startswith("usage: selfsim")
    code, second, _ = run(capsys, "--help")
    assert code == 0 and second == first


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    assert build_parser() is build_parser()
    run(capsys, "nucleus", "adding")
    built = []
    init = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    code, out, _ = run(capsys, "nucleus", "adding")
    assert code == 0 and out.startswith("nucleus of adding: 3 states")
    assert not built


def test_huge_level_fails_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "schreier", "adding", "--level", str(10 ** 12))
    assert code == 1 and out == "" and err.startswith("error: level")
    assert time.perf_counter() - start < 1.0


def _capped_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


def _run_capped(argv, timeout=30):
    """The command run in a child with a capped address space and a
    timeout, so unbounded growth fails the test instead of exhausting the
    machine."""
    env = dict(os.environ, PYTHONPATH=str(Path(selfsim.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "selfsim.cli", *argv], capture_output=True,
                          text=True, timeout=timeout, env=env,
                          preexec_fn=_capped_address_space)


@pytest.mark.parametrize("argv", [["nucleus", "--no-cache"], ["present", "--no-cache"],
                                  ["limit", "--level", "3", "--no-cache"], ["check"], ["wp", "a"]])
def test_growing_sections_exit_2(tmp_path, argv):
    """a = ()(aa, e) is trivial, but its section words double at each level.
    The budgets must stop that before memory runs out."""
    path = tmp_path / "doubling.txt"
    path.write_text("alphabet: 2\na = ()(aa, e)\n")
    command, *rest = argv
    proc = _run_capped([command, str(path), *rest])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout in ("", "undecided\n") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["nucleus", "trivial:99999999"], ["nucleus", "FILE"],
                                  ["check", "trivial:1048576"]])
def test_alphabet_past_the_bound_exits_1(tmp_path, argv):
    """A group past the alphabet bound is refused before anything of the
    alphabet's size is built: from trivial:D, from a group file's header,
    and ahead of the d^2 letter pairs of the self-replication search."""
    path = tmp_path / "wide.txt"
    path.write_text("alphabet: 99999999\na = ()(e, e)\n")
    proc = _run_capped([str(path) if arg == "FILE" else arg for arg in argv])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: alphabet must have at most {ALPHABET_LETTERS} letters\n"


def test_cycles_that_share_a_letter_exit_1(capsys, tmp_path):
    """(0 1)(0 1) is the identity as a product, not the swap that reading
    one cycle at a time would give, so the group file is refused."""
    path = tmp_path / "overlap.txt"
    path.write_text("alphabet: 2\na = (0 1)(0 1)(e, a)\n")
    assert run(capsys, "nucleus", str(path)) == (
        1, "", "error: letter 0 appears twice in cycles '(0 1)(0 1)'\n")


ELEVEN = "alphabet: 11\na = (0 10)(e, e, e, e, e, e, e, e, e, e, e)\n"


@pytest.mark.parametrize("argv", [["limit", "trivial:11", "--level", "3"],
                                  ["schreier", "FILE", "--level", "3"],
                                  ["limit", "FILE", "--level", "1", "--format", "dot"],
                                  ["schreier", "FILE", "--level", "0"],
                                  ["schreier", "FILE", "--level", "99"]])
def test_graphs_past_ten_letters_exit_1(capsys, tmp_path, argv):
    """A vertex name spells its word with one digit per letter, so past 10
    letters two words can share a name: at level 3, 1010 is both (1, 0, 10)
    and (10, 1, 0).  `limit` and `schreier` refuse such a group before any
    walk, so even a level too deep to build gets this reason."""
    path = tmp_path / "eleven.txt"
    path.write_text(ELEVEN)
    code, out, err = run(capsys, *[str(path) if arg == "FILE" else arg for arg in argv])
    assert (code, out) == (1, "")
    assert err == "error: vertex names take one digit per letter: 11 letters is over 10\n"


# the word a moves 10 to 0, which one digit per letter would print as 100
ELEVEN_WP = ("alphabet: 11\na = ()(e, e, e, e, e, e, e, e, e, e, b)\n"
             "b = (1 0)(e, e, e, e, e, e, e, e, e, e, e)\n")


@pytest.mark.parametrize("argv", [
    ["wp", "FILE", "a"],
    ["vg", "FILE", "apply", '{"domain":["e"],"entries":["a"],"range":["e"]}', "0"],
    ["m-invariant", "--alphabet", "11", '["0"]']])
def test_words_past_ten_letters_exit_1(capsys, tmp_path, argv):
    """A word written one digit per letter is ambiguous past 10 letters, so
    `wp`, `vg` and `m-invariant` refuse such an alphabet as the graph
    commands do, with nothing on standard output."""
    path = tmp_path / "eleven.txt"
    path.write_text(ELEVEN_WP)
    code, out, err = run(capsys, *[str(path) if arg == "FILE" else arg for arg in argv])
    assert (code, out) == (1, "")
    assert err == "error: vertex names take one digit per letter: 11 letters is over 10\n"


def test_graphs_on_ten_letters_name_every_vertex(capsys):
    """Ten letters are the most that one digit per letter can name apart."""
    for command in ("limit", "schreier"):
        code, out, _ = run(capsys, command, "trivial:10", "--level", "3")
        assert code == 0
        data = json.loads(out)
        names = data["classes"] if command == "limit" else data["vertices"]
        assert len(set(map(str, names))) == len(names) == 1000


# a trivial nucleus has no generator letters, so their line is blank
PRESENT_TRIVIAL = ("generators beyond the prefix-replacement part: 0\n"
                   "  \n"
                   "family C: 0 relators (0 verify as identity)\n"
                   "family N: 1 relators (1 verify as identity)\n"
                   "family S: 1 relators (1 verify as identity)\n")


def test_present_on_a_wide_trivial_alphabet():
    """A trivial nucleus has no commutation relators, so `present` builds
    none of the d^4 pairs of level-two vertices they would be indexed by."""
    proc = _run_capped(["present", "trivial:64", "--verify"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, PRESENT_TRIVIAL, "")


def test_present_refuses_four_letters(tmp_path, capsys):
    """The off-cylinder stabilizers walk the antichains of depth at most two
    that keep the base letter whole, and every permutation of their up to
    d(d - 1) movable cylinders, so `present` refuses a nontrivial nucleus
    over 4 letters at once; a trivial nucleus needs no stabilizers and keeps
    its output."""
    path = tmp_path / "odometer4.txt"
    path.write_text("alphabet: 4\na = (0 1 2 3)(e, e, e, a)\n")
    proc = _run_capped(["present", str(path)], timeout=20)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: the off-cylinder stabilizers are listed for alphabets "
                           "of at most 3 letters, not 4\n")
    assert run(capsys, "present", "trivial:4", "--verify") == (0, PRESENT_TRIVIAL, "")


def test_closed_output_pipe_exits_0():
    """A reader that stops early, like `head -c`, closes the pipe while the
    command is still writing 4.5 MB of JSON; what it read is correct, so the
    command exits 0 with nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(selfsim.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "selfsim.cli", "schreier", "adding",
                             "--level", "16"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(8) == b'{"level"'
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0, err
    assert err == b""


def test_closed_output_pipe_keeps_undecided_exit_code():
    """An undecided verdict still exits 2 when the reader has closed the
    pipe before the verdict line is flushed, with nothing on stderr.  The
    child's stdout is block-buffered, as a pipe is by default, so the line
    is still buffered when the command ends."""
    env = dict(os.environ, PYTHONPATH=str(Path(selfsim.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "selfsim.cli", "wp", "grigorchuk",
                             "adadadad", "--budget-states", "3"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2, err
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["wp", "grigorchuk", "adadadad", "--budget-states", "3"],
    ["vg", "grigorchuk", "eq", '{"domain":["e"],"entries":["adadadad"],"range":["e"]}',
     '{"domain":["e"],"entries":["e"],"range":["e"]}', "--budget-states", "3"],
])
def test_closed_unbuffered_output_pipe_keeps_undecided_exit_code(argv):
    """The unbuffered twin of the test above: with PYTHONUNBUFFERED the
    verdict line is written at once, so the write itself fails on the closed
    pipe.  The exit code is still 2, with nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(selfsim.__file__).parents[1]),
               PYTHONUNBUFFERED="1")
    proc = subprocess.Popen([sys.executable, "-m", "selfsim.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2, err
    assert err == b""
