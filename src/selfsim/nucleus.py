"""Nucleus computation and structural predicates of contracting groups.

The nucleus is the set of elements met as sections at every depth.
Starting from S, the section closure of the generators, their inverses
and the identity, the candidate set N grows until it absorbs N*S: each
new candidate is multiplied on the right by S, and the section states
that recur at arbitrarily large depth in those products (on or below a
cycle of the automaton of pairs, read off the machine's tables) are
interned and adjoined, until no new state appears.  The nucleus is the
persistent part of that fixed point: a generator on no cycle is no deep
section.  Exhausting the state budget yields "not contracting within
budget", or "undecided" before the first round ends, never a theorem.

The budget is the one `Budget` the group holds (`group.budget`), which
its machine reads.  It bounds the states one search adds: the
nucleus search and the self-replication search each count the identity
and every state added since they began.  Outside a search it bounds the
states one intern adds: one product, one inverse or one word.
"""

from __future__ import annotations

from collections import deque

from .ssgroup import IDENTITY, Budget, BudgetExceeded, GenWord, GroupDef, Perm, reachable


class NotContractingError(Exception):
    """The closure did not stabilize within the budget.  `rounds` holds the
    candidate count after each finished round, starting set first; past
    ten rounds the message names only the first and last three, and with
    none it says "undecided" in place of "not contracting"."""

    def __init__(self, budget: Budget, detail: str = "", rounds: tuple[int, ...] = ()):
        self.budget = budget
        self.rounds = tuple(rounds)
        msg = f"{'not contracting' if rounds else 'undecided'} within budget {budget}"
        if detail:
            msg += f": {detail}"
        if rounds:
            counts = [str(n) for n in rounds]
            if len(counts) > 10:
                counts[3:-3] = [f"... ({len(counts) - 6} more) ..."]
            msg += f" after rounds of {', '.join(counts)} candidates"
        super().__init__(msg)


class Nucleus:
    """Canonical machine states closed under sections.

    States are indexed 0..size-1 in order of (representative length,
    representative string); per-state data: level-one permutation, section
    table, shortest known representative word.  `index` maps a machine
    state id to its index.
    """

    def __init__(self, group: GroupDef, state_ids):
        machine = group.machine
        order = sorted(state_ids, key=lambda s: (len(machine.reps[s]), str(machine.reps[s])))
        self.group = group
        self.ids = tuple(order)
        self.index = index = {sid: i for i, sid in enumerate(order)}
        self.reps = tuple(machine.reps[sid] for sid in order)
        self.perms: tuple[Perm, ...] = tuple(machine.perms[sid] for sid in order)
        for sid in order:
            for kid in machine.kids[sid]:
                if kid not in index:
                    raise ValueError("state set is not closed under sections")
        self.sections = tuple(
            tuple(index[kid] for kid in machine.kids[sid]) for sid in order
        )
        self.identity_index = index[machine.identity]

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        return iter(range(len(self.ids)))

    def index_of(self, word: GenWord) -> int | None:
        """Index of the state of a word, or None when it lies outside."""
        return self.index.get(self.group.machine.intern(word))

    def to_json(self) -> dict:
        return {
            "group": self.group.content_hash(),
            "alphabet": self.group.d,
            "states": [str(r) for r in self.reps],
        }


def _generator_states(group: GroupDef, sym: str) -> tuple[int, int]:
    """Machine states of the generator `sym` and of its inverse, interned in
    that order."""
    machine = group.machine
    sid = machine.intern(GenWord([(sym, 1)]))
    return sid, machine.inverse_state(sid)


def section_closure(group: GroupDef, words) -> list[GenWord]:
    """Smallest set of canonical states containing the given words (and the
    identity) and closed under sections; returned as representative words."""
    machine = group.machine
    roots = {machine.identity}
    for w in words:
        roots.add(machine.intern(group.word(w)))
    closed = machine.reachable(roots)
    return sorted((machine.reps[s] for s in closed), key=lambda w: (len(w), str(w)))


def _persistent_states(kids, roots) -> set:
    """States reachable from `roots` at arbitrarily large depth along the
    section table `kids`.

    A state recurs arbitrarily deep iff it has an infinite backward chain,
    i.e. iff it survives iterated peeling of states without incoming edges.
    """
    region = reachable(kids.__getitem__, roots)
    indeg = {s: 0 for s in region}
    for s in region:
        for kid in kids[s]:
            indeg[kid] += 1
    queue = deque(s for s, n in indeg.items() if n == 0)
    alive = set(region)
    while queue:
        s = queue.popleft()
        alive.discard(s)
        for kid in kids[s]:
            indeg[kid] -= 1
            if indeg[kid] == 0:
                queue.append(kid)
    return alive


def _deep_products(machine, left, right) -> set[int]:
    """States of the deep sections of the products g*h, g in `left` and h
    in `right`.

    Sections of products are products, (g*h)|_x = g|_{h(x)} * h|_x, so the
    pairs (g, h) form a finite automaton, read off the machine's tables;
    only its pairs on or below a cycle are interned, in sorted order.  With
    `right` the section closure of the identity, the generators and their
    inverses, a section-closed set holding the deep products of its states
    with `right` holds the deep sections of every element (induct on words,
    appending one generator at a time), so it holds the whole nucleus.
    """
    pairs: dict = {}
    stack = [(g, h) for g in left for h in right]
    while stack:
        pair = stack.pop()
        if pair not in pairs:
            pairs[pair] = machine.pair_row(pair)[1]
            stack.extend(pairs[pair])
    return {machine.product_state(g, h) for g, h in sorted(_persistent_states(pairs, pairs))}


def compute_nucleus(group: GroupDef) -> Nucleus:
    """The persistent part of the fixed point of absorbing N*S, where S is
    the section closure of the identity, the generators and their inverses:
    each round multiplies only the previous round's new states, on the
    right, by S and adjoins the states that recur arbitrarily deep in those
    products, interning only those (see `_deep_products`).  Once N absorbs
    N*S it holds the deep sections of every element, and its states on or
    below a cycle of sections are exactly those deep sections.

    Raises NotContractingError when the machine's state budget runs out,
    with the candidate count after each finished round, or before the
    first round the generator being interned; the property itself is only
    semi-decidable.
    """
    machine = group.machine
    rounds: list[int] = []
    with machine.search():
        try:
            roots = {machine.identity}
            for sym in group.generators:
                roots.update(_generator_states(group, sym))
            current = machine.reachable(roots)
            right = sorted(current)
            new = current
            while new:
                rounds.append(len(current))
                new = _deep_products(machine, sorted(new), right) - current
                current |= new
        except BudgetExceeded as exc:
            # before the first round, only the generators are interned
            detail = str(exc) if rounds else f"{exc} interning generator {sym}"
            raise NotContractingError(group.budget, detail, rounds) from None
    return Nucleus(group, _persistent_states(machine.kids, current))


def is_regular(nucleus: Nucleus) -> bool:
    """True iff the directed graph on non-identity states, with an edge
    g -> g|_x for every letter x fixed by g whose section is non-identity,
    has no persistent state, i.e. no cycle.  A cycle yields arbitrarily
    deep fixed vertices with non-identity section, and conversely."""
    e = nucleus.identity_index
    edges = {
        i: [s for x, s in enumerate(nucleus.sections[i])
            if nucleus.perms[i][x] == x and s != e]
        for i in nucleus
        if i != e
    }
    return not _persistent_states(edges, edges)


def is_self_replicating(group: GroupDef, radius: int) -> str:
    """"yes" iff for every pair of letters x, y some element of length at
    most `radius` maps x to y with trivial section there; "no" when a ball
    level adds no state, so the finite group is searched whole; otherwise
    "unknown".  Interning past the group's budget, which the search counts
    from its own start, raises BudgetExceeded, which names the search and
    how many of its `radius` ball levels it finished."""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    machine = group.machine
    d = group.d
    needed = {(x, y) for x in range(d) for y in range(d)}

    def scan(sid: int):
        for x in range(d):
            pair = (x, machine.perms[sid][x])
            if pair in needed and machine.kids[sid][x] == machine.identity:
                needed.discard(pair)

    ball = {machine.identity}
    frontier = [machine.identity]
    scan(machine.identity)
    level = 0  # ball levels finished, for the budget verdict
    with machine.search():
        try:
            gens = [s for sym in group.generators for s in _generator_states(group, sym)]
            for level in range(radius):
                nxt = []
                for s in frontier:
                    for g in gens:
                        t = machine.product_state(s, g)
                        if t not in ball:
                            ball.add(t)
                            nxt.append(t)
                            scan(t)
                            if not needed:
                                return "yes"
                if not nxt:
                    return "no"
                frontier = nxt
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"self-replication search: {exc} after {level} of "
                                 f"{radius} ball levels") from None
    return "yes" if not needed else "unknown"


def is_level_transitive(group: GroupDef, n: int) -> bool:
    """Whether the generators' level-n permutations move the first vertex,
    0^n, onto every vertex of level n; transitivity there forces it on every
    shallower level as well.  Negative levels and levels of more than 2^20
    vertices (`ssgroup.check_level`) raise ValueError."""
    # without generators the identity's walk still checks the level
    words = [GenWord([(sym, 1)]) for sym in group.generators] or [IDENTITY]
    perms = [group.perm_on_level(w, n) for w in words]
    return len(reachable(lambda i: [p[i] for p in perms], [0])) == len(perms[0])


def nucleus_products(nucleus: Nucleus) -> list[int]:
    """Machine states of the products of two nucleus states, i acting after
    j: pair (i, j) at index i*|N| + j.  They are interned in that order,
    which fixes the reps of the states they create.  Each product has the
    whole budget; one past it raises BudgetExceeded, which names how many
    products were done."""
    machine = nucleus.group.machine
    out: list[int] = []
    try:
        for i in nucleus.ids:
            for j in nucleus.ids:
                out.append(machine.product_state(i, j))
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"{exc} after {len(out)} of {len(nucleus) ** 2} nucleus "
                             "products") from None
    return out


def length3_index_triples(nucleus: Nucleus) -> list[tuple[int, int, int]]:
    """All ordered state triples whose product is trivial; padding by the
    identity captures the length-1 and length-2 relations.

    A triple (i, j, k) multiplies to the identity exactly when the product
    state of i and j, read off `nucleus_products`, is the inverse state of
    k, so only pair products are ever interned.
    """
    machine = nucleus.group.machine
    inverse_of = {machine.inverse_state(nucleus.ids[k]): k for k in nucleus}
    n = len(nucleus)
    return [(p // n, p % n, inverse_of[s])
            for p, s in enumerate(nucleus_products(nucleus)) if s in inverse_of]


def length3_relations(nucleus: Nucleus) -> list[tuple[GenWord, GenWord, GenWord]]:
    return [
        (nucleus.reps[i], nucleus.reps[j], nucleus.reps[k])
        for i, j, k in length3_index_triples(nucleus)
    ]
