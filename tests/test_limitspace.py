import json
import time
from itertools import product
from pathlib import Path

import pytest

import oracles
from selfsim import resolve_group
from selfsim.cli import main
from selfsim.limitspace import (
    _walk,
    cylinder_stable_states,
    level_identifications,
    moore_diagram,
    quotient_graph,
    schreier_graph,
)
from selfsim.nucleus import compute_nucleus, is_level_transitive
from selfsim.ssgroup import GroupDef

ODOMETER2_FILE = str(Path(__file__).parent.parent / "bench" / "groups" / "odometer2.txt")
ODOMETER3_FILE = str(Path(__file__).parent.parent / "bench" / "groups" / "odometer3.txt")
FLIP_FILE = str(Path(__file__).parent / "groups" / "flip.txt")
ROTATION3_FILE = str(Path(__file__).parent / "groups" / "rotation3.txt")
# c = (0 1)(a, a) lies on no cycle of sections, so it is not in the nucleus
TR_FILE = str(Path(__file__).parent / "groups" / "tr.txt")
# groups with cylinder-stable states, so level quotients fuse vertex classes
FLIP = "alphabet: 2\na = (0 1)(a, a)\n"
SWAP = "alphabet: 2\na = (0 1)(b, b)\nb = ()(a, a)\n"
ROTATION3 = "alphabet: 3\na = (0 1 2)(a, a, a)\n"
FUSED_GROUPS = [FLIP, SWAP, ROTATION3]


def _group(spec):
    return GroupDef.parse(spec) if spec.startswith("alphabet") else resolve_group(spec)


def _pairs(codes, m):
    """Pairs (j, k), j < k, of vertices or classes, read off their codes
    j * m + k."""
    return [divmod(code, m) for code in codes]


def test_moore_diagram_examples(adding_nucleus, grigorchuk_nucleus, trivial2):
    md = moore_diagram(adding_nucleus)
    assert len(md.states) == 3
    a = md.states.index("a")
    edges_from_a = {(x, y, md.states[dst]) for s, x, y, dst in md.edges if s == a}
    assert edges_from_a == {(0, 1, "e"), (1, 0, "a")}

    md = moore_diagram(grigorchuk_nucleus)
    assert len(md.states) == 5

    md = moore_diagram(compute_nucleus(trivial2))
    assert len(md.states) == 1
    assert {(x, y) for _, x, y, _ in md.edges} == {(0, 0), (1, 1)}
    assert "digraph" in md.to_dot()


def test_level_identifications_examples(adding, adding_nucleus, trivial2, grigorchuk_nucleus):
    pairs = level_identifications(adding_nucleus, 2)
    a = adding.word("a")
    expected = set()
    for v in product(range(2), repeat=2):
        u = adding.act(a, v)
        expected.add((min(v, u), max(v, u)))
    assert pairs == expected

    assert level_identifications(compute_nucleus(trivial2), 3) == set()

    pairs3 = level_identifications(grigorchuk_nucleus, 3)
    # the interval structure: exactly 2^3 - 1 touching pairs
    assert len(pairs3) == 7


def test_identification_count_bound(grigorchuk_nucleus, basilica_nucleus):
    for nucleus in (grigorchuk_nucleus, basilica_nucleus):
        for n in range(1, 7):
            pairs = level_identifications(nucleus, n)
            assert len(pairs) <= (len(nucleus) - 1) * nucleus.group.d ** n


def test_cylinder_stable_states(adding_nucleus, grigorchuk_nucleus):
    assert cylinder_stable_states(adding_nucleus) == {adding_nucleus.identity_index}
    assert cylinder_stable_states(grigorchuk_nucleus) == {grigorchuk_nucleus.identity_index}
    flip = GroupDef.parse(FLIP)
    fnuc = compute_nucleus(flip)
    assert cylinder_stable_states(fnuc) == set(range(len(fnuc)))


def test_quotient_graph_adding(adding_nucleus):
    for n in range(1, 8):
        q = quotient_graph(adding_nucleus, n)
        assert len(q.classes) == 2 ** n
        assert all(len(c) == 1 for c in q.classes)
        edges = _pairs(q.edges, len(q.classes))
        if n >= 2:
            assert oracles.graph_shape(len(q.classes), edges) == "cycle"
        assert oracles.connected(len(q.classes), edges)


def test_quotient_graph_grigorchuk(grigorchuk_nucleus):
    for n in range(1, 8):
        q = quotient_graph(grigorchuk_nucleus, n)
        assert len(q.classes) == 2 ** n
        assert oracles.graph_shape(len(q.classes), _pairs(q.edges, len(q.classes))) == "path"


def test_quotient_graph_trivial(trivial2):
    q = quotient_graph(compute_nucleus(trivial2), 3)
    assert len(q.classes) == 8
    assert not q.edges
    assert not oracles.connected(len(q.classes), _pairs(q.edges, len(q.classes)))


def test_quotient_graph_fused_classes():
    flip = GroupDef.parse(FLIP)
    nucleus = compute_nucleus(flip)
    q = quotient_graph(nucleus, 3)
    assert len(q.classes) == 4
    assert all(len(c) == 2 for c in q.classes)
    # the flip group is not level-transitive
    assert not oracles.connected(len(q.classes), _pairs(q.edges, len(q.classes)))


def test_connectivity_matches_level_transitivity():
    groups = ["adding", "basilica", "grigorchuk", "kneading:01", "trivial:2", FLIP_FILE]
    for name in groups:
        group = resolve_group(name)
        nucleus = compute_nucleus(group)
        for n in range(1, 9):
            q = quotient_graph(nucleus, n)
            edges = _pairs(q.edges, len(q.classes))
            assert oracles.connected(len(q.classes), edges) == is_level_transitive(group, n), \
                (name, n)


def test_shift_well_defined(adding_nucleus, grigorchuk_nucleus, basilica_nucleus):
    for nucleus in (adding_nucleus, grigorchuk_nucleus, basilica_nucleus):
        d = nucleus.group.d
        for n in range(2, 7):
            pairs = level_identifications(nucleus, n)
            prev = level_identifications(nucleus, n - 1)
            for v, u in pairs:
                sv, su = v[:-1], u[:-1]
                assert sv == su or (min(sv, su), max(sv, su)) in prev
            q = quotient_graph(nucleus, n)
            assert q.shift is not None
            prev_q = quotient_graph(nucleus, n - 1)
            for i, cls in enumerate(q.classes):
                # dropping the last letter of the j-th word gives the (j // d)-th
                targets = {prev_q.vertex_class[j // d] for j in cls}
                assert targets == {q.shift[i]}


def test_quotient_exports(adding_nucleus):
    q = quotient_graph(adding_nucleus, 2)
    data = json.loads(q.json_text())
    assert data["level"] == 2
    assert len(data["classes"]) == 4
    assert "graph" in q.to_dot()


def test_schreier_graph_examples(adding, grigorchuk):
    s = schreier_graph(adding, 4)
    assert len(json.loads(s.json_text())["vertices"]) == 16
    assert oracles.graph_shape(16, _pairs(s.labels, 16)) == "cycle"  # a single 16-cycle
    assert oracles.connected(16, _pairs(s.labels, 16))

    s = schreier_graph(grigorchuk, 3)
    assert len(json.loads(s.json_text())["vertices"]) == 8
    assert oracles.connected(8, _pairs(s.labels, 8))

    inert = GroupDef.parse("alphabet: 2\na = ()(a, a)\n")
    s = schreier_graph(inert, 1)
    assert len(json.loads(s.json_text())["vertices"]) == 2
    assert not s.labels
    assert not oracles.connected(2, _pairs(s.labels, 2))


def test_schreier_exports(grigorchuk):
    s = schreier_graph(grigorchuk, 2)
    data = json.loads(s.json_text())
    assert data["level"] == 2
    assert all(len(e) == 3 for e in data["edges"])
    assert "graph" in s.to_dot()


def test_level_limit_errors(adding_nucleus, trivial2):
    for n in (-1, 25):
        with pytest.raises(ValueError):
            level_identifications(adding_nucleus, n)
        with pytest.raises(ValueError):
            quotient_graph(adding_nucleus, n)
        with pytest.raises(ValueError):
            schreier_graph(adding_nucleus.group, n)
        for group in (adding_nucleus.group, trivial2):
            with pytest.raises(ValueError):
                is_level_transitive(group, n)


def test_huge_levels_fail_at_once(adding_nucleus, trivial2):
    """A level far past the vertex limit is refused before d ** n is built."""
    n = 10 ** 12
    start = time.perf_counter()
    with pytest.raises(ValueError):
        quotient_graph(adding_nucleus, n)
    with pytest.raises(ValueError):
        schreier_graph(adding_nucleus.group, n)
    for group in (adding_nucleus.group, trivial2):
        with pytest.raises(ValueError):
            is_level_transitive(group, n)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name", ["adding", "basilica", "grigorchuk", ODOMETER3_FILE]
                         + FUSED_GROUPS)
def test_nucleus_walks_match_act(name):
    """Each nucleus state's level walk moves exactly the words its
    representative moves under `oracles.apply_word`, to the same images, and
    `level_identifications` pairs them up."""
    group = _group(name)
    nucleus = compute_nucleus(group)
    for n in range(7):
        words = list(product(range(group.d), repeat=n))
        index = {v: i for i, v in enumerate(words)}
        pairs = set()
        for i in nucleus:
            images = [oracles.apply_word(group, nucleus.reps[i].factors, v) for v in words]
            moved = {(j, index[u]) for j, (v, u) in enumerate(zip(words, images)) if u != v}
            walked = {(j, k) for j, k in enumerate(_walk(nucleus, i, n)) if j != k}
            assert walked == moved, (name, i, n)
            if i != nucleus.identity_index:
                pairs |= {(words[min(j, k)], words[max(j, k)]) for j, k in moved}
        assert level_identifications(nucleus, n) == pairs


@pytest.mark.parametrize("name", ["adding", "basilica", "grigorchuk", "kneading:01",
                                  ODOMETER3_FILE, TR_FILE] + FUSED_GROUPS)
def test_quotient_graph_matches_the_oracle(name):
    """Classes, edges and shift agree with `oracles.level_quotient`, which
    builds them word by word from its own nucleus and stable set."""
    group = _group(name)
    nucleus = compute_nucleus(group)
    # 3^6 words tell these ternary states apart, at a 27th of the default cost
    automaton = oracles.nucleus_automaton(group, 6 if group.d == 3 else None)
    for n in range(8):
        q = quotient_graph(nucleus, n)
        blocks, edges, shift = oracles.level_quotient(group, n, automaton)
        words = list(product(range(group.d), repeat=n))
        assert [tuple(words[j] for j in c) for c in q.classes] == blocks, (name, n)
        assert _pairs(q.edges, len(q.classes)) == sorted(edges), (name, n)
        assert q.shift == shift, (name, n)


def _json_text(capsys, *argv):
    """What a graph command prints, which must be the text `json.dumps`
    writes for the value it parses to."""
    assert main(list(argv)) == 0
    text = capsys.readouterr().out
    assert text.endswith("\n")
    text = text[:-1]
    assert json.dumps(json.loads(text)) == text, argv
    return json.loads(text)


@pytest.mark.parametrize("name", ["adding", "basilica", "grigorchuk", "trivial:2", "trivial:3",
                                  ODOMETER2_FILE, ODOMETER3_FILE, FLIP_FILE, ROTATION3_FILE,
                                  "kneading:01"], ids=lambda spec: Path(spec).name)
def test_graph_json_text_matches_the_oracles(capsys, name):
    """`limit`, `schreier` and `moore` print `json.dumps` text: level
    quotients as `oracles.level_quotient` builds them, Schreier edges in
    order with their generators in order as `oracles.apply_word` finds them,
    and one Moore edge per state and letter, to the state's image letter
    and section."""
    group = resolve_group(name)
    d = group.d
    automaton = oracles.nucleus_automaton(group, 6 if d == 3 else None)

    def name_of(word):
        return "".join(map(str, word)) or "e"

    for n in range(9):
        words = list(product(range(d), repeat=n))
        data = _json_text(capsys, "limit", name, "--level", str(n))
        blocks, edges, shift = oracles.level_quotient(group, n, automaton)
        assert data == {"level": n, "classes": [[name_of(w) for w in b] for b in blocks],
                        "edges": [list(e) for e in sorted(edges)],
                        "shift": None if shift is None else list(shift)}, (name, n)

        data = _json_text(capsys, "schreier", name, "--level", str(n))
        want: dict = {}
        for sym in sorted(group.generators):
            for v in words:
                u = oracles.apply_word(group, ((sym, 1),), v)
                if u != v and sym not in want.setdefault((min(u, v), max(u, v)), []):
                    want[min(u, v), max(u, v)].append(sym)
        assert data == {"level": n, "vertices": [name_of(w) for w in words],
                        "edges": [[name_of(a), name_of(b), want[a, b]] for a, b in sorted(want)]}, \
            (name, n)

    data = _json_text(capsys, "moore", name)
    states = [[(ch.lower(), 1 if ch.islower() else -1) for ch in s if ch != "e"]
              for s in data["states"]]
    assert [e[:2] for e in data["edges"]] == [[i, x] for i in range(len(states)) for x in range(d)]
    for i, x, y, k in data["edges"]:
        image, section = oracles.step(group, states[i], x)
        assert image == y, (name, i, x)
        level = 6 if d == 3 else 10
        assert oracles.signature(group, section, level) == \
            oracles.signature(group, states[k], level), (name, i, x)
