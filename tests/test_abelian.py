import contextlib
import math
import random
import signal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from selfsim import kneading_group, resolve_group
from selfsim.abelian import (
    AbelGroup,
    _one_minus_sigma,
    PostCriticalData,
    ab_vector,
    cokernel,
    nucleus_relation_rows,
    predicted_rational_formula,
    rational_map_abelianization,
    sigma_matrix,
    sign_vector,
    smith_normal_form,
    vg_abelianization,
)
from selfsim.nucleus import (
    NotContractingError,
    compute_nucleus,
    is_regular,
    is_self_replicating,
)
from selfsim.ssgroup import GroupDef


def diag(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def det(m):
    from fractions import Fraction

    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(out)


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_snf_examples():
    _, d, _ = smith_normal_form([[2, 0], [0, 3]])
    assert diag(d) == [1, 6]
    _, d, _ = smith_normal_form([[0, 0], [0, 0]])
    assert diag(d) == [0, 0]
    _, d, _ = smith_normal_form([[1, 0], [0, 1]])
    assert diag(d) == [1, 1]


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_properties(rows):
    u, d, v = smith_normal_form(rows)
    assert matmul(matmul(u, rows), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    entries = diag(d)
    for a, b in zip(entries, entries[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


def test_cokernel_matches_determinantal_divisors():
    rng = random.Random(21)
    for _ in range(500):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        got = cokernel(rows, ncols)
        rank, factors = oracles.abelian_invariants(rows, ncols)
        assert got.rank == rank
        assert got.factors == factors


def test_cokernel_of_a_large_prime():
    """The Smith diagonal is read as it is, never factored again."""
    p = 2**89 - 1
    assert cokernel([[p]], 1) == AbelGroup(0, (p,))
    assert cokernel([[2 * p, 0], [0, 4]], 3) == AbelGroup(1, (2, 4 * p))


@st.composite
def lattices(draw):
    """Rows of one width up to ncols <= 5, sometimes with a zero row and a
    row that is an integer combination of the others."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    width = draw(st.integers(min_value=0, max_value=ncols))
    row = st.lists(st.integers(min_value=-6, max_value=6), min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), [0] * width)
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(min_value=-3, max_value=3),
                               min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(width)])
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(lattices())
@example(([[4, 0], [0, 6]], 2))  # a diagonal that is not yet a divisibility chain
@example(([[1, 4, -1], [-2, -6, -5]], 3))  # the pivot divides the entry it clears
def test_cokernel_matches_the_oracle(lattice):
    rows, ncols = lattice
    got = cokernel(rows, ncols)
    padded = [r + [0] * (ncols - len(r)) for r in rows]
    assert (got.rank, got.factors) == oracles.abelian_invariants(padded, ncols)


@contextlib.contextmanager
def time_limit(seconds):
    """Fail with TimeoutError after `seconds` instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def dense_matrix(seed, n):
    """The benchmark's dense recipe: entries in [-5, 5] from a seeded rng."""
    rng = random.Random(seed)
    return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("seed, expected", [(1000, AbelGroup(0, (991655,))),
                                            (1005, AbelGroup(0, (2204018,)))])
def test_dense_8x8_cokernels_finish(seed, expected):
    """Two matrices on which a Smith form carrying its transforms blew up."""
    with time_limit(1.0):
        got = cokernel(dense_matrix(seed, 8), 8)
    assert got == expected


def test_from_factors_of_a_large_prime_finishes():
    """Factoring by trial division never finished on 2^89 - 1."""
    p = 2 ** 89 - 1
    with time_limit(1.0):
        got = AbelGroup.from_factors(0, [2 * p, p, 4])
    assert got == AbelGroup(0, (2 * p, 4 * p))


def test_dense_40x40_cokernel_is_fast_and_matches_the_determinant():
    m = dense_matrix(40, 40)
    with time_limit(1.0):
        got = cokernel(m, 40)
    d = det(m)
    assert d != 0 and got.rank == 0
    assert math.prod(got.factors) == abs(d)


@pytest.mark.parametrize("rows, ncols, row", [
    ([[0, 0, 2]], 2, 0), ([[1, 2, 3]], 2, 0), ([[1, 2], [1]], 2, 1), ([[1], [1, 2]], 3, 1)])
def test_cokernel_rejects_bad_row_widths(rows, ncols, row):
    with pytest.raises(ValueError, match=f"row {row} "):
        cokernel(rows, ncols)


def test_abelgroup_normalization():
    assert AbelGroup.from_factors(0, [2, 3]) == AbelGroup(0, (6,))
    assert AbelGroup.from_factors(1, [2, 4]) == AbelGroup(1, (2, 4))
    assert AbelGroup.from_factors(0, [2, 2]) == AbelGroup(0, (2, 2))
    assert AbelGroup.from_factors(0, [6, 4]) == AbelGroup(0, (2, 12))
    assert AbelGroup.from_factors(1, [0, -3, 1]) == AbelGroup(2, (3,))
    assert str(AbelGroup(0)) == "trivial group"
    assert str(AbelGroup(1)) == "Z"
    assert str(AbelGroup(2, (2,))) == "Z^2 + Z/2Z"


def test_sigma_matrix_examples(adding, grigorchuk, basilica):
    assert sigma_matrix(adding) == [[1]]
    assert sigma_matrix(grigorchuk) == [
        [0, 0, 0, 0],  # swapper has trivial sections
        [1, 0, 1, 0],
        [1, 0, 0, 1],
        [0, 1, 0, 0],
    ]
    assert sigma_matrix(basilica) == [[0, 1], [1, 0]]


def test_sign_vector():
    g3 = GroupDef.parse("alphabet: 3\na = (0 1 2)(e, e, e)\nb = (0 1)(e, e, e)\nc = ()(e, e, e)\n")
    assert sign_vector(g3) == [0, 1, 0]
    with pytest.raises(ValueError):
        sign_vector(resolve_group("adding"))


def test_vg_abelianization_examples(adding, grigorchuk):
    assert vg_abelianization(adding) == AbelGroup(1)
    assert vg_abelianization(grigorchuk) == AbelGroup(0)
    for v in ("", "0", "01", "101"):
        assert vg_abelianization(kneading_group(v)) == AbelGroup(1)


def test_vg_abelianization_not_contracting_propagates():
    lamp = GroupDef.parse("alphabet: 2\na = (0 1)(a, b)\nb = ()(a, b)\n")
    with pytest.raises(NotContractingError):
        vg_abelianization(lamp)


def test_vg_abelianization_odd_alphabet():
    # one rotation generator on three letters with itself below each branch:
    # sigma multiplies by 3, the rotation is even, so the cokernel of
    # 1 - sigma on one generator is Z/2Z from the parity summand and
    # Z/(3-1)Z = Z/2Z from 1-3 = -2 on the generator
    g = GroupDef.parse("alphabet: 3\na = (0 1 2)(a, a, a)\n")
    got = _one_minus_sigma(sigma_matrix(g), sign_vector(g), [])
    assert got == AbelGroup.from_factors(0, [2, 2])


def test_sigma_well_defined_on_relators(grigorchuk, grigorchuk_nucleus):
    # abelianized section-sums of trivial words stay inside the relation lattice
    rng = random.Random(22)
    rel_rows = nucleus_relation_rows(grigorchuk, grigorchuk_nucleus)
    sig = sigma_matrix(grigorchuk)
    n = len(grigorchuk.generators)
    for _ in range(100):
        text = "".join(rng.choice("abcd") for _ in range(rng.randint(2, 6)))
        word = grigorchuk.word(text)
        if grigorchuk.is_trivial(word).status != "trivial":
            continue
        vec = ab_vector(grigorchuk, word)
        image = [sum(vec[i] * sig[i][j] for i in range(n)) for j in range(n)]
        # membership in the relation lattice: adjoining the vector must not
        # change the cokernel of the relation matrix
        base = cokernel(rel_rows, n)
        assert cokernel(rel_rows + [vec], n) == base
        assert cokernel(rel_rows + [image], n) == base


def test_rational_paper_cases():
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


GROUPS = Path(__file__).parent / "groups"


@pytest.mark.parametrize("name, portrait, expected", [
    # d = 3, two simple critical points, both fixed: a |-> a, b |-> b
    ("kneading3_fixed.txt",
     PostCriticalData(("a", "b", "inf"), {"a": "a", "b": "b", "inf": "inf"},
                      degree_odd=True, cvmod2=frozenset({"a", "b"})),
     AbelGroup(2)),
    # d = 4, critical points of multiplicities 2 and 1, swapped: a <-> b
    ("kneading4_swapped.txt",
     PostCriticalData(("a", "b", "inf"), {"a": "b", "b": "a", "inf": "inf"}),
     AbelGroup(1)),
])
def test_kneading_automata_of_higher_degree_match_their_portraits(name, portrait, expected):
    """A kneading automaton of degree 3 or 4: `abel` on the automaton and
    `abel-rational` on the portrait read off it agree.  A generator's point
    maps to the point of the generator whose nontrivial section it is."""
    group = GroupDef.parse((GROUPS / name).read_text())
    assert vg_abelianization(group) == rational_map_abelianization(portrait) == expected
    nucleus = compute_nucleus(group)
    assert is_regular(nucleus) and is_self_replicating(group, 4) == "yes"


def test_predicted_formula_examples():
    assert predicted_rational_formula(2, 1) == AbelGroup(1)
    assert predicted_rational_formula(1, 1, odd_exception=True) == AbelGroup(0, (2,))
    assert predicted_rational_formula(3, 2) == AbelGroup(2, (2,))
    with pytest.raises(ValueError):
        predicted_rational_formula(0, 1)


def test_random_portraits_match_formula():
    rng = random.Random(23)
    checked = {"even": 0, "odd": 0}
    while min(checked.values()) < 30:
        portrait = oracles.random_portrait(rng)
        assert oracles.formula_applies(portrait)
        got = rational_map_abelianization(portrait)
        assert got == oracles.predicted_for_portrait(portrait), portrait.to_json()
        checked["odd" if portrait.degree_odd else "even"] += 1


def test_portrait_validation():
    with pytest.raises(ValueError):
        PostCriticalData(("a",), {"a": "b"})
    with pytest.raises(ValueError):
        PostCriticalData(("a", "b"), {"a": "b", "b": "a"}, degree_odd=True,
                         cvmod2=frozenset({"a"}))  # odd flag count
    with pytest.raises(ValueError):
        PostCriticalData(("a",), {"a": "a"}, degree_odd=False,
                         cvmod2=frozenset({"a"}))  # flags need odd degree


def test_portrait_json_roundtrip():
    p = PostCriticalData(("a", "b", "c"), {"a": "b", "b": "a", "c": "a"},
                         degree_odd=True, cvmod2=frozenset({"a", "b"}))
    again = PostCriticalData.from_json(p.to_json())
    assert again == p
    data = p.to_json()
    data["preimages"]["a"] = ["c"]
    with pytest.raises(ValueError):
        PostCriticalData.from_json(data)


def test_portrait_cycles():
    p = PostCriticalData(("a", "b", "t"), {"a": "b", "b": "a", "t": "a"})
    assert oracles.portrait_cycles(p) == [("a", "b")]
    assert oracles.cycle_of(p, "t") == ("a", "b")
