"""Abelianization of the prefix-replacement groups via exact integer
linear algebra.

The abelianized group is the cokernel of 1 - sigma on the abelianization
of the underlying self-similar group, where sigma sends a class to the sum
of its first-level sections; for odd alphabets an extra order-two summand
twisted by the permutation parity enters.  Everything reduces to the
invariant factors of an integer matrix, read off a Smith form reduced
modulo a maximal minor.  The post-critical
specialization presents the relevant homology combinatorially from a
finite portrait of a rational map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .nucleus import Nucleus, compute_nucleus, length3_relations
from .ssgroup import GenWord, GroupDef, perm_parity


# -- exact integer matrices ---------------------------------------------------

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """(U, D, V) with D = U @ matrix @ V diagonal, U and V unimodular, and
    the diagonal a divisibility chain d1 | d2 | ...; exact arithmetic.

    This is the reference path that carries the transforms along; its
    entries are unbounded, so a dense matrix can blow up.  `cokernel` does
    not use it: it needs only the diagonal, which it reads off a form
    reduced modulo a maximal minor."""
    m = [row[:] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    u = _identity(nrows)
    v = _identity(ncols)

    def row_op(i, j, q):  # row_i -= q * row_j
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nrows, ncols):
        # pivot: smallest nonzero entry of the unreduced block
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nrows):
                if m[i][t]:
                    row_op(i, t, m[i][t] // m[t][t])
                    if m[i][t]:  # remainder smaller than pivot: promote it
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if m[t][j]:
                    col_op(j, t, m[t][j] // m[t][t])
                    if m[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                # pivot must divide the remaining block for the chain property
                for i in range(t + 1, nrows):
                    for j in range(t + 1, ncols):
                        if m[i][j] % m[t][t]:
                            m[t] = [a + b for a, b in zip(m[t], m[i])]
                            u[t] = [a + b for a, b in zip(u[t], u[i])]
                            dirty = True
                            break
                    if dirty:
                        break
        t += 1
    for i in range(min(nrows, ncols)):
        if m[i][i] < 0:
            m[i] = [-a for a in m[i]]
            u[i] = [-a for a in u[i]]
    return u, m, v


def _divisibility_chain(diag) -> list[int]:
    """The diagonal of positive integers `diag` as a divisibility chain
    d_1 | d_2 | ... of the same length and the same cokernel: gcd and lcm
    pairs, since Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b)."""
    diag = list(diag)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


@dataclass(frozen=True)
class AbelGroup:
    """Finitely generated abelian group: free rank plus invariant factors
    forming a divisibility chain (each factor at least 2)."""

    rank: int
    factors: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise ValueError(f"factors {self.factors} are not a divisibility chain")
        if any(f < 2 for f in self.factors):
            raise ValueError("invariant factors must be at least 2")

    @classmethod
    def from_factors(cls, rank: int, factors) -> "AbelGroup":
        """Normalize arbitrary torsion factors into invariant-factor form;
        a factor 0 is one more free summand."""
        factors = list(factors)
        chain = _divisibility_chain(abs(f) for f in factors if f)
        return cls(rank + factors.count(0), tuple(f for f in chain if f > 1))

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.factors

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{f}Z" for f in self.factors)
        return " + ".join(parts) if parts else "trivial group"


def _rank_and_minor(rows: Matrix, ncols: int) -> tuple[int, int]:
    """(rank r, |D|) for one nonzero r x r minor D of the matrix, by
    fraction-free (Bareiss) elimination with full pivoting: every entry it
    writes is a minor, so none exceeds the Hadamard bound."""
    a = [row[:] for row in rows]
    cols = list(range(ncols))
    prev = 1
    for r in range(len(a)):
        pivot = next(((i, j) for i in range(r, len(a)) for j in cols if a[i][j]), None)
        if pivot is None:
            return r, abs(prev)
        i, j = pivot
        a[r], a[i] = a[i], a[r]
        cols.remove(j)
        top, p = a[r], a[r][j]
        for row in a[r + 1:]:
            f = row[j]
            for c in cols:
                row[c] = (p * row[c] - f * top[c]) // prev
        prev = p
    return len(a), abs(prev)


def _gcd_step(p: int, b: int) -> tuple[int, int, int, int, int]:
    """(g, x, y, u, v) for p, b > 0 with g = gcd(p, b) = x*p + y*b, u = b/g
    and v = p/g: the unimodular step [[x, y], [-u, v]] takes (p, b) to (g, 0)."""
    g = gcd(p, b)
    x = pow(p // g, -1, b // g)
    return g, x, (g - p * x) // b, b // g, p // g


def _diagonal_mod(rows: Matrix, modulus: int) -> list[int]:
    """A diagonal of the lattice spanned by the rows and modulus * Z^n,
    one entry per column; every entry divides `modulus`.

    Unimodular row and column steps keep that lattice, so each entry is
    reduced mod `modulus` after every step.  The pivot row and column are
    cleared, then the pivot, together with the row modulus * e_0, stands
    for gcd(pivot, modulus), and the pivot column is dropped.
    """
    ncols = len(rows[0])
    a = [row for row in ([x % modulus for x in r] for r in rows) if any(row)]
    diag = []
    while a:
        top = a.pop()
        j = next(j for j, x in enumerate(top) if x)
        for row in a + [top]:
            row[0], row[j] = row[j], row[0]
        p = top[0]
        dirty = True
        while dirty:
            for row in a:  # clear the pivot column with row steps
                b = row[0]
                if b % p == 0:  # a plain reduction, which keeps the pivot
                    if b:
                        q = b // p
                        row[:] = [(t - q * s) % modulus for s, t in zip(top, row)]
                    continue
                p, x, y, u, v = _gcd_step(p, b)
                top[:], row[:] = ([(x * s + y * t) % modulus for s, t in zip(top, row)],
                                  [(v * t - u * s) % modulus for s, t in zip(top, row)])
            dirty = False
            for k in range(1, len(top)):  # clear the pivot row with column steps
                b = top[k]
                if b % p == 0:  # the rest of the pivot column is zero
                    top[k] = 0
                    continue
                p, x, y, u, v = _gcd_step(p, b)
                for row in a + [top]:
                    row[0], row[k] = ((x * row[0] + y * row[k]) % modulus,
                                      (v * row[k] - u * row[0]) % modulus)
                dirty = True  # the pivot column is filled again
                break
        diag.append(gcd(p, modulus))
        a = [row[1:] for row in a if any(row[1:])]
    return diag + [modulus] * (ncols - len(diag))


def cokernel(rows: Matrix, ncols: int) -> AbelGroup:
    """Quotient of Z^ncols by the subgroup generated by the given rows.

    Rows must share one width of at most `ncols`; shorter rows are padded
    with zero columns.  With r the rank and D a nonzero r x r minor, the
    lattice rows + D * Z^ncols has the invariant factors d_1 | ... | d_r
    of the rows followed by ncols - r copies of D (d_r divides
    d_1 * ... * d_r, which divides D), so a diagonal reduced mod D yields
    them with no entry above D (Domich, Kannan and Trotter, 1987).
    """
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValueError(f"row {i} has {len(row)} entries, row 0 has {len(rows[0])}")
        if len(row) > ncols:
            raise ValueError(f"row {i} has {len(row)} entries, more than the {ncols} columns")
    rows = [list(row) + [0] * (ncols - len(row)) for row in rows]
    rank, minor = _rank_and_minor(rows, ncols)
    if minor == 1:  # every factor is 1; also the case rank 0
        return AbelGroup(ncols - rank)
    diag = _divisibility_chain(_diagonal_mod(rows, minor))
    return AbelGroup(ncols - rank, tuple(f for f in diag[:rank] if f > 1))


# -- the section-sum endomorphism ---------------------------------------------

def ab_vector(group: GroupDef, word: GenWord) -> list[int]:
    """Exponent sums of a word over the generator basis: each generator's
    letters less its inverse's."""
    word = group.word(word)
    return [word.text.count(sym) - word.text.count(sym.upper()) for sym in group.generators]


def sigma_matrix(group: GroupDef) -> Matrix:
    """Row i is the abelianized sum of the sections of generator i."""
    rows = []
    for sym in group.generators:
        _, sections = group.recursion[sym]
        vec = [0] * len(group.generators)
        for sec in sections:
            for a, b in zip(range(len(vec)), ab_vector(group, sec)):
                vec[a] += b
        rows.append(vec)
    return rows


def sign_vector(group: GroupDef) -> list[int]:
    """Per-generator parity of the first-level permutation (odd alphabets)."""
    if group.d % 2 == 0:
        raise ValueError("sign is undefined for even alphabets")
    return [perm_parity(group.recursion[sym][0]) for sym in group.generators]


def nucleus_relation_rows(group: GroupDef, nucleus: Nucleus) -> Matrix:
    """Abelianized rows of all length-at-most-3 relations among nucleus
    representatives, over the generator basis."""
    rows = []
    seen = set()
    for g1, g2, g3 in length3_relations(nucleus):
        vec = ab_vector(group, g1 * g2 * g3)
        key = tuple(vec)
        if any(key) and key not in seen:
            seen.add(key)
            rows.append(vec)
    return rows


def _one_minus_sigma(sig: Matrix, parity: list[int] | None, extra_rows: Matrix) -> AbelGroup:
    """Cokernel of the rows e_i - sigma(e_i) stacked over `extra_rows`.  With
    a `parity` (odd degree) one more basis vector t of order two comes
    first: row i is e_i - (parity_i t + sigma(e_i)), the row 2t is added,
    and the extra rows are zero on t."""
    n = len(sig)
    rows = [[(1 if i == j else 0) - sig[i][j] for j in range(n)] for i in range(n)]
    if parity is None:
        return cokernel(rows + extra_rows, n)
    rows = [[-p] + row for p, row in zip(parity, rows)]
    rows.append([2] + [0] * n)
    rows += [[0] + list(r) for r in extra_rows]
    return cokernel(rows, n + 1)


def vg_abelianization(group: GroupDef) -> AbelGroup:
    """Abelianization of the table group over a self-similar group.

    The group abelianization is presented as the free abelian group on the
    generators modulo the abelianized nucleus relations of length at most
    3, which present the finitely presented cover.  The two agree whenever
    no nontrivial nucleus state dies in the faithful action, which holds by
    construction: machine states are bisimulation classes, so only the
    identity state acts trivially.  Even alphabet: cokernel of
    1 - sigma stacked over the relations.  Odd alphabet: one extra basis
    vector t of order two, with sigma extended by the permutation parity.
    """
    return _one_minus_sigma(sigma_matrix(group), sign_vector(group) if group.d % 2 else None,
                            nucleus_relation_rows(group, compute_nucleus(group)))



# -- post-critically finite rational maps -------------------------------------

def _names(value) -> bool:
    """Whether a JSON value is a list of strings."""
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


@dataclass(frozen=True)
class PostCriticalData:
    """Combinatorial portrait of a post-critically finite hyperbolic map:
    the finite forward orbit of the critical values, the map on it, parity
    of the degree, and which points have an even number of preimages
    ("critical values mod 2"; only meaningful for odd degree)."""

    points: tuple[str, ...]
    fmap: dict[str, str] = field(hash=False)
    degree_odd: bool = False
    cvmod2: frozenset[str] = frozenset()

    def __post_init__(self):
        pts = set(self.points)
        if len(self.points) != len(pts) or not pts:
            raise ValueError("portrait needs a nonempty set of distinct points")
        if set(self.fmap) != pts or any(v not in pts for v in self.fmap.values()):
            raise ValueError("map must be a total self-map of the points")
        if not self.cvmod2 <= pts:
            raise ValueError("critical-value flags must be portrait points")
        if not self.degree_odd and self.cvmod2:
            raise ValueError("critical-value-mod-2 flags apply to odd degree only")
        if self.degree_odd and len(self.cvmod2) % 2:
            raise ValueError("odd degree forces an even number of critical values mod 2")

    def preimages(self, z: str) -> list[str]:
        return sorted(y for y in self.points if self.fmap[y] == z)

    def to_json(self) -> dict:
        return {
            "degree_parity": "odd" if self.degree_odd else "even",
            "points": list(self.points),
            "map": dict(self.fmap),
            "preimages": {z: self.preimages(z) for z in self.points},
            "cvmod2": sorted(self.cvmod2),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PostCriticalData":
        if not isinstance(data, dict):
            raise ValueError("a portrait is a JSON object")
        points, fmap = data.get("points"), data.get("map")
        cvmod2, preimages = data.get("cvmod2", []), data.get("preimages", {})
        if not (_names(points) and isinstance(fmap, dict) and _names(list(fmap.values()))
                and _names(cvmod2) and isinstance(preimages, dict)
                and all(_names(ys) for ys in preimages.values())):
            raise ValueError("a portrait needs a list of point names, a map of names to "
                             "names, and lists of names for cvmod2 and the preimages")
        parity = data.get("degree_parity", "even")
        if parity not in ("even", "odd"):
            raise ValueError(f"bad degree parity {parity!r}")
        pcd = cls(
            points=tuple(points),
            fmap=dict(fmap),
            degree_odd=(parity == "odd"),
            cvmod2=frozenset(cvmod2),
        )
        for z, ys in preimages.items():
            if z not in pcd.fmap:
                raise ValueError(f"preimage list for {z!r}, which is not a portrait point")
            if sorted(ys) != pcd.preimages(z):
                raise ValueError(f"preimage list for {z!r} contradicts the map")
        return pcd


def rational_map_abelianization(portrait: PostCriticalData) -> AbelGroup:
    """Cokernel of 1 - sigma on the portrait homology: one generator per
    point, sum of all generators zero, sigma summing over the portrait
    preimages; odd degree adds the order-two summand twisted by the
    critical-value flags."""
    pts = sorted(portrait.points)
    index = {z: i for i, z in enumerate(pts)}
    n = len(pts)
    sig = [[0] * n for _ in range(n)]
    for z in pts:
        for y in portrait.preimages(z):
            sig[index[z]][index[y]] += 1
    parity = [int(z in portrait.cvmod2) for z in pts] if portrait.degree_odd else None
    return _one_minus_sigma(sig, parity, [[1] * n])


def predicted_rational_formula(k: int, l: int, odd_exception: bool = False) -> AbelGroup:
    """Closed form for a hyperbolic portrait with k attracting cycles whose
    lengths have greatest common divisor l; the odd-degree exception branch
    adds an order-two summand."""
    if k < 1 or l < 1:
        raise ValueError("need k >= 1 and l >= 1")
    factors = [l] if l > 1 else []
    if odd_exception:
        factors.append(2)
    return AbelGroup.from_factors(k - 1, factors)
