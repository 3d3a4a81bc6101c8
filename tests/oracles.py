"""Independent brute-force reference implementations used by the tests.

Everything here works on raw factor lists and decides equality by acting
on a full finite level, deliberately bypassing the package's word-BFS,
interning machine, and Smith reduction, so the two routes can disagree
when either is wrong.  Graph connectivity is one plain walk, the size of
the presentation's commutation family is a closed count, its off-cylinder
stabilizer list is the walk over every antichain, and the portrait
kit at the end reads the rational-map closed formula off a portrait
without the package's cokernel.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import gcd


class OracleBudget(Exception):
    pass


def _invert(perm):
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return tuple(out)


def free_reduce(factors):
    """Free reduction of (symbol, +1 or -1) pairs the slow way: delete the
    first adjacent cancelling pair, and start over, until none is left."""
    out = list(factors)
    while True:
        for i in range(len(out) - 1):
            (s, e), (t, f) = out[i], out[i + 1]
            if s == t and e == -f:
                del out[i:i + 2]
                break
        else:
            return tuple(out)


def invert_factors(factors):
    return [(s, -e) for s, e in reversed(factors)]


def factors_text(factors):
    """A word as printed: a generator's letter, its inverse's in uppercase,
    and "e" for the identity."""
    return "".join(s if e == 1 else s.upper() for s, e in factors) or "e"


def text_factors(text):
    """The factors of a printed word, the inverse of `factors_text`."""
    return tuple((ch.lower(), 1 if ch.islower() else -1) for ch in text if ch != "e")


def step(group, factors, letter):
    """(image letter, continuation factors) for one input letter."""
    y = letter
    nxt: list = []
    for sym, exp in reversed(factors):
        perm, secs = group.recursion[sym]
        if exp == 1:
            sec = list(secs[y].factors)
            y = perm[y]
        else:
            inv = _invert(perm)
            sec = [(s, -e) for s, e in reversed(secs[inv[y]].factors)]
            y = inv[y]
        nxt = sec + nxt
    return y, nxt


def apply_word(group, factors, v):
    out = []
    cur = list(factors)
    for x in v:
        y, cur = step(group, cur, x)
        out.append(y)
    return tuple(out)


def signature(group, factors, level):
    """Action on the whole level, the oracle's notion of identity: the
    images of the level's words, in lexicographic order of the words.

    The images below a letter are those of the section there, freely
    reduced, one level shallower, so each (section, depth) is worked out
    once per call.
    """
    memo: dict = {}

    def images(fs, depth):
        key = (fs, depth)
        if key not in memo:
            out = [] if depth else [()]
            for x in range(group.d if depth else 0):
                y, nxt = step(group, fs, x)
                out += [(y,) + t for t in images(free_reduce(nxt), depth - 1)]
            memo[key] = tuple(out)
        return memo[key]

    return images(tuple(factors), level)


def identity_signature(group, level):
    return tuple(tuple(v) for v in product(range(group.d), repeat=level))


def section_of(group, factors, letter):
    return step(group, factors, letter)[1]


def persistent(edges):
    """Nodes of a graph {node: successors} that survive iterated removal of
    in-degree-zero nodes: those on or below a cycle."""
    indeg = {s: 0 for s in edges}
    for s, kids in edges.items():
        for k in kids:
            indeg[k] += 1
    alive = set(edges)
    queue = [s for s, n in indeg.items() if n == 0]
    while queue:
        s = queue.pop()
        alive.discard(s)
        for k in edges[s]:
            if k in alive:
                indeg[k] -= 1
                if indeg[k] == 0:
                    queue.append(k)
    return alive


def nucleus(group, level=None, cap=400):
    """Brute-force nucleus, the elements met as sections at every depth:
    grow a section-closed candidate set from the generators until it
    absorbs the deep sections of all pairwise products, then keep its
    persistent part, with equality decided by the action on the given
    level.  A generator that lies on no cycle is a candidate but no deep
    section, so it is dropped.

    Elements are numbered by signature as they are met, and their sections
    found once each.

    The default level, max(10, 2 * generators), grows with the group: a
    fixed level 10 is too shallow for kneading groups with six generators,
    where it counts 15 states and the nucleus has 13."""
    if level is None:
        level = max(10, 2 * len(group.generators))
    number: dict = {}   # signature -> element number
    by_factors: dict = {}
    sigs: list = []     # signature of each element
    elems: list = []    # the first factor tuple met for each element
    kids: list = []     # element numbers of each element's sections, once found

    def element(fs):
        fs = tuple(fs)
        if fs not in by_factors:
            sig = signature(group, fs, level)
            if sig not in number:
                number[sig] = len(sigs)
                sigs.append(sig)
                elems.append(fs)
                kids.append(None)
            by_factors[fs] = number[sig]
        return by_factors[fs]

    def closure(fs):
        """Section closure of an element: {number: section numbers}."""
        edges: dict = {}
        stack = [element(fs)]
        while stack:
            k = stack.pop()
            if k in edges:
                continue
            if len(edges) >= cap:
                raise OracleBudget("closure grew past the cap")
            if kids[k] is None:
                kids[k] = tuple(element(section_of(group, elems[k], x)) for x in range(group.d))
            edges[k] = kids[k]
            stack.extend(kids[k])
        return edges

    current = set(closure(()))
    for sym in group.generators:
        current |= set(closure(((sym, 1),))) | set(closure(((sym, -1),)))
    done = set()
    while True:
        if len(current) > cap:
            raise OracleBudget("nucleus candidate set grew past the cap")
        added = set()
        for k1, k2 in product(sorted(current), sorted(current)):
            if (k1, k2) in done:
                continue
            done.add((k1, k2))
            for k in persistent(closure(elems[k1] + elems[k2])):
                if k not in current:
                    added.add(k)
                    added |= set(closure(invert_factors(elems[k]))) - current
        if not added:
            break
        current |= added
    return {sigs[k]: elems[k] for k in persistent({k: kids[k] for k in current})}


def odometer_value(v):
    """Binary value of a word read least-significant-letter-first."""
    return sum(x << i for i, x in enumerate(v))


def odometer_increment(v):
    """Independent model of the adding machine: +1 with carry."""
    n = len(v)
    total = (odometer_value(v) + 1) % (1 << n)
    return tuple((total >> i) & 1 for i in range(n))


def all_complete_antichains(d, max_len):
    """Every complete antichain with words of length at most max_len."""
    if max_len == 0:
        return [((),)]
    out = [((),)]

    def extend(prefix, depth):
        if depth == max_len:
            return [((prefix),)] if False else [[prefix]]
        options = [[prefix]]
        kid_choices = [extend(prefix + (x,), depth + 1) for x in range(d)]
        for combo in product(*kid_choices):
            options.append([w for part in combo for w in part])
        return options

    kid_choices = [extend((x,), 1) for x in range(d)]
    for combo in product(*kid_choices):
        out.append(tuple(w for part in combo for w in part))
    return [tuple(sorted(a)) for a in set(out)]


def coarsest_common_refinement(d, a1, a2, max_len):
    """Smallest complete antichain refining both inputs, by enumeration."""
    def refines(cand, base):
        return all(any(w[: len(v)] == v for v in base) for w in cand)

    best = None
    for cand in all_complete_antichains(d, max_len):
        if refines(cand, a1) and refines(cand, a2):
            if best is None or len(cand) < len(best):
                best = cand
    return best


def abelian_invariants(rows, ncols):
    """(free rank, invariant factors) of Z^ncols / row lattice, computed
    from determinantal divisors (gcds of k x k minors)."""
    from fractions import Fraction

    def minor_det(mat):
        n = len(mat)
        m = [[Fraction(x) for x in row] for row in mat]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col]), None)
            if pivot is None:
                return 0
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            for r in range(col + 1, n):
                factor = m[r][col] / m[col][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
        assert det.denominator == 1
        return int(det)

    nrows = len(rows)
    divisors = [1]
    rank = 0
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rsel in combinations(range(nrows), k):
            for csel in combinations(range(ncols), k):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                g = gcd(g, abs(minor_det(sub)))
        if g == 0:
            break
        divisors.append(g)
        rank = k
    factors = [divisors[i + 1] // divisors[i] for i in range(rank)]
    return ncols - rank, tuple(sorted(f for f in factors if f > 1))



def graph_shape(n, edges):
    """"cycle", "path" or "other" for the simple graph on vertices 0..n-1
    with the given undirected edges: a graph connected from vertex 0 is a
    cycle when it has n edges and every degree is 2, and a path when it has
    n - 1 edges and no degree above 2."""
    degrees = {len(a) for a in _adjacency(n, edges)}
    if not connected(n, edges):
        return "other"
    if len(edges) == n and degrees == {2}:
        return "cycle"
    if len(edges) == n - 1 and degrees <= {0, 1, 2}:
        return "path"
    return "other"


def _adjacency(n, edges):
    adjacent = [set() for _ in range(n)]
    for i, j in edges:
        adjacent[i].add(j)
        adjacent[j].add(i)
    return adjacent


def connected(n, edges):
    """Whether the graph on vertices 0..n-1 with the given undirected edges
    is connected: a walk from vertex 0 reaches every vertex."""
    adjacent = _adjacency(n, edges)
    seen, stack = {0}, [0]
    while stack:
        new = adjacent[stack.pop()] - seen
        seen |= new
        stack += new
    return len(seen) == n


def nucleus_automaton(group, level=None):
    """(states as factor tuples, section table by state index, identity
    index) of `nucleus`, with each section found by its signature on the
    same level."""
    if level is None:
        level = max(10, 2 * len(group.generators))
    states = list(nucleus(group, level).values())
    by_sig = {signature(group, fs, level): k for k, fs in enumerate(states)}
    kids = [[by_sig[signature(group, section_of(group, fs, x), level)] for x in range(group.d)]
            for fs in states]
    return states, kids, by_sig[identity_signature(group, level)]


def level_quotient(group, n, automaton=None):
    """Level-n quotient of the limit space from first principles: (blocks,
    edges, shift), where blocks are the classes of level-n words in order
    of their least word, edges the pairs (i, j), i < j, of classes that a
    nontrivial nucleus state carries one into the other, and shift the
    class of each block's words with the last letter dropped (None at
    level 0).

    The nucleus is `automaton`, by default `nucleus_automaton(group)`; a
    test asking for many levels passes it in to build it once.  The
    cylinder-stable states are the largest set in which every state is,
    along every letter, the section of some state of the set; words that
    such a state carries into each other are one class."""
    states, kids, identity = automaton or nucleus_automaton(group)
    stable = set(range(len(states)))
    while True:
        keep = {s for s in stable
                if all(any(kids[h][x] == s for h in stable) for x in range(group.d))}
        if keep == stable:
            break
        stable = keep
    stable.discard(identity)

    def classes(m):
        words = list(product(range(group.d), repeat=m))
        root = {v: v for v in words}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for s in stable:
            for v in words:
                root[find(v)] = find(apply_word(group, states[s], v))
        blocks: dict = {}
        for v in words:  # words in lexicographic order
            blocks.setdefault(find(v), []).append(v)
        blocks = [tuple(b) for b in blocks.values()]
        return blocks, {v: i for i, b in enumerate(blocks) for v in b}

    blocks, class_index = classes(n)
    edges = set()
    for s in range(len(states)):
        if s != identity:
            for v in class_index:
                i, j = class_index[v], class_index[apply_word(group, states[s], v)]
                if i != j:
                    edges.add((min(i, j), max(i, j)))
    shift = None
    if n >= 1:
        _, below = classes(n - 1)
        shift = tuple(below[b[0][:-1]] for b in blocks)
        assert all(below[v[:-1]] == shift[i] for i, b in enumerate(blocks) for v in b)
    return blocks, edges, shift


def stabilizer_table_rows(d):
    """The off-cylinder stabilizer list the long way, as (domain, range)
    rows: every permutation of the cylinders off base letter 0 of each of
    the 2^d complete antichains of depth at most two, those that split the
    base letter included, then the one exchange of (1, 0) and (1, 1, 0).
    Per normal form the first rows met are kept, and the list is in order
    of normal form."""

    def normal_form(rows):
        # merge d sibling rows that go in order onto the children of one
        # word, rescanning until nothing merges
        out = dict(rows)
        merged = True
        while merged:
            merged = False
            for v in sorted(out):
                if not v or v[-1] != 0:
                    continue
                kids = [v[:-1] + (y,) for y in range(d)]
                z = out[v][:-1]
                if all(out.get(k) == z + (y,) for y, k in enumerate(kids)):
                    for k in kids:
                        del out[k]
                    out[v[:-1]] = z
                    merged = True
                    break
        return tuple(sorted(out.items()))

    first = {}
    for split in product((False, True), repeat=d):
        cylinders = [w for x in range(d)
                     for w in ([(x, y) for y in range(d)] if split[x] else [(x,)])]
        movable = [w for w in cylinders if w[0] != 0]
        for perm in permutations(movable):
            if list(perm) != movable:
                rows = sorted([(w, w) for w in cylinders if w[0] == 0] + list(zip(movable, perm)))
                first.setdefault(normal_form(rows), rows)
    lo, hi = (1, 0), (1, 1, 0)
    cover = [()]  # split every proper prefix of lo or hi
    while (w := next((w for w in cover for t in (lo, hi)
                      if len(w) < len(t) and t[:len(w)] == w), None)) is not None:
        cover = [c for c in cover if c != w] + [w + (y,) for y in range(d)]
    rows = sorted([(lo, hi), (hi, lo)] + [(w, w) for w in cover if w not in (lo, hi)])
    first.setdefault(normal_form(rows), rows)
    return [first[k] for k in sorted(first)]


def expected_c_count(nucleus, stabilizer_count):
    """Size of the commutation family by direct counting: (|N| - 1)^2
    commutators per ordered pair of distinct vertices of level one or two,
    and |N| - 1 per off-cylinder stabilizer table."""
    d = nucleus.group.d
    n1 = len(nucleus) - 1
    return n1 * n1 * (d * (d - 1) + d * d * (d * d - 1)) + n1 * stabilizer_count


# -- post-critically finite portraits ----------------------------------------
#
# The closed formula's side of the rational-map check: cycles, flag parities
# and the formula read off a portrait directly, and random portraits within
# the formula's domain; the cokernel side is `rational_map_abelianization`.

def portrait_cycles(portrait):
    """Cycles of the portrait map (the attracting cycles): the distinct
    `cycle_of` loops of the points, sorted."""
    return sorted({cycle_of(portrait, z) for z in portrait.points})


def cycle_of(portrait, z):
    """The cycle the forward orbit of z falls into: the orbit up to its
    first repeated point, from that point on, rotated to start at its
    least point."""
    pos = {}
    while z not in pos:
        pos[z] = len(pos)
        z = portrait.fmap[z]
    cyc = list(pos)[pos[z]:]
    k = cyc.index(min(cyc))
    return tuple(cyc[k:] + cyc[:k])


def _flag_parities(portrait):
    """Each cycle's parity of the number of flagged points it attracts."""
    parity = {c: 0 for c in portrait_cycles(portrait)}
    for z in portrait.cvmod2:
        parity[cycle_of(portrait, z)] ^= 1
    return parity


def predicted_for_portrait(portrait):
    """Apply the closed form to a portrait: k cycles, l their gcd, and the
    exception branch exactly when every cycle attracts an even number of
    critical values mod 2."""
    from selfsim.abelian import predicted_rational_formula

    cycles = portrait_cycles(portrait)
    k = len(cycles)
    l = 0
    for c in cycles:
        l = gcd(l, len(c))
    exception = portrait.degree_odd and not any(_flag_parities(portrait).values())
    return predicted_rational_formula(k, l, exception)


def formula_applies(portrait):
    """Whether the closed form is valid for this flag configuration.

    Even degree: always.  Odd degree: always, except when every cycle
    attracts an even number of flagged points, every cycle length is even,
    and the flag parities accumulated around the cycles and down the tails
    sum odd; then the order-two summand couples with the sum-zero homology
    relation (flag patterns of that shape are beyond the branching a single
    rational map can carry, starting with Riemann-Hurwitz on the minimal
    ones).
    """
    if not portrait.degree_odd:
        return True
    if any(_flag_parities(portrait).values()):
        return True
    cycles = portrait_cycles(portrait)
    if any(len(c) % 2 for c in cycles):
        return True
    cycset = {z for c in cycles for z in c}

    def tail_flag_count(z):
        seen = set()
        stack, count = [z], 0
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            if w in portrait.cvmod2:
                count += 1
            stack.extend(y for y in portrait.preimages(w) if y not in cycset)
        return count

    total = sum(tail_flag_count(z) for z in portrait.points if z not in cycset)
    for cyc in cycles:
        members = set(cyc)
        order = [cyc[0]]
        while len(order) < len(cyc):  # walk along predecessors
            order.append(next(y for y in portrait.preimages(order[-1]) if y in members))
        offset = 0
        for z in order:
            total += offset
            t_z = (1 if z in portrait.cvmod2 else 0) + sum(
                tail_flag_count(y) for y in portrait.preimages(z) if y not in cycset
            )
            offset = (offset + t_z) % 2
    return total % 2 == 0


def random_portrait(rng, max_cycles=4, max_len=5, degree_odd=None, max_tail=4):
    """Random consistent portrait: some cycles, optional tail points falling
    into them, and (odd degree) an even-sized flag set within the closed
    formula's domain of validity."""
    from selfsim.abelian import PostCriticalData

    if degree_odd is None:
        degree_odd = rng.random() < 0.5
    k = rng.randint(1, max_cycles)
    points = []
    fmap = {}
    for c in range(k):
        length = rng.randint(1, max_len)
        cyc = [f"c{c}p{i}" for i in range(length)]
        for i, z in enumerate(cyc):
            fmap[z] = cyc[(i + 1) % length]
        points.extend(cyc)
    for t in range(rng.randint(0, max_tail)):
        z = f"t{t}"
        fmap[z] = rng.choice(points)
        points.append(z)
    while True:
        flags = frozenset()
        if degree_odd:
            n_flags = 2 * rng.randint(0, len(points) // 2)
            flags = frozenset(rng.sample(points, n_flags))
        portrait = PostCriticalData(tuple(points), fmap, degree_odd, flags)
        if formula_applies(portrait):
            return portrait
