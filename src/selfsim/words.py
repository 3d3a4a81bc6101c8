"""Finite words over a d-letter alphabet, the prefix order, and antichains.

A word is a tuple of letters 0..d-1; the empty tuple is the root of the
tree of all finite words.  A set of pairwise prefix-incomparable words (an
antichain) describes a clopen subset of the boundary: the union of the
cylinders hanging below its words.  In lexicographic order a word sorts
directly before its extensions, so antichain checks, completeness (the
cylinders cover everything, checked as an exact integer identity) and
common refinements are single passes over sorted words.
"""

from __future__ import annotations

from bisect import bisect_left

Word = tuple[int, ...]


def parse_word(text: str) -> Word:
    """Parse a digit string like "011"; "e" or "" is the empty word."""
    if text in ("e", ""):
        return ()
    if not isinstance(text, str) or not text.isdigit():
        raise ValueError(f"not a word: {text!r}")
    return tuple(int(c) for c in text)


def format_word(word: Word) -> str:
    return "".join(str(x) for x in word) if word else "e"


def is_prefix(v: Word, u: Word) -> bool:
    """True iff v is a beginning of u (equality counts)."""
    return len(v) <= len(u) and u[: len(v)] == v


def is_antichain(words) -> bool:
    """No word is a prefix of another; a repeated word is its own prefix.

    After sorting, a word that is a prefix of any later word is a prefix
    of its successor, so only adjacent pairs are compared.
    """
    ws = sorted(words)
    return not any(u[: len(v)] == v for v, u in zip(ws, ws[1:]))


def is_complete_antichain(words, d: int) -> bool:
    """Antichain over the letters 0..d-1 whose cylinders partition the
    boundary.

    Uses the exact identity sum(d**(L-len(v))) == d**L, with L the largest
    length; floating point would accept near-misses.
    """
    ws = list(words)
    if not ws or not is_antichain(ws):
        return False
    letters = set().union(*ws)
    if letters and (min(letters) < 0 or max(letters) >= d):
        return False
    lengths = list(map(len, ws))
    depth = max(lengths)
    return sum(d ** (depth - n) for n in lengths) == d ** depth


def m_invariant(words, d: int) -> int:
    """Cylinder-count residue mod d-1 of the clopen set given by an antichain.

    Splitting one cylinder into its d children changes the count by d-1,
    so the residue does not depend on the chosen decomposition.  For d=2
    it is identically 0.
    """
    if d < 2:
        raise ValueError("alphabet must have at least two letters")
    return len(set(words)) % (d - 1)


def coarsen(items, d: int, word_of, merge) -> list:
    """Merge sibling families bottom-up, to the fixed point of merging.

    `items` are sorted by `word_of`, whose words form an antichain.  A
    family is d items whose words are the children w+(0,) .. w+(d-1,) of
    one parent w; `merge(family)` returns the item that replaces it at w,
    or None to keep it.  In sorted order a family is contiguous once its
    own subfamilies are merged, so one stack pass checks each family the
    moment its last child is on top.  Each decision depends only on its
    own family, so the result does not depend on the order of merges.
    """
    out: list = []
    for item in items:
        out.append(item)
        while len(out) >= d:
            family = out[-d:]
            w = word_of(family[0])
            if not w or any(word_of(it) != w[:-1] + (x,) for x, it in enumerate(family)):
                break
            merged = merge(family)
            if merged is None:
                break
            out[-d:] = [merged]
    return out


class Antichain:
    """A finite set of pairwise incomparable words over a fixed alphabet."""

    __slots__ = ("words", "d")

    def __init__(self, words, d: int):
        ws = tuple(sorted(set(tuple(w) for w in words)))
        if d < 2:
            raise ValueError("alphabet must have at least two letters")
        for w in ws:
            if any(x < 0 or x >= d for x in w):
                raise ValueError(f"letter out of range in {format_word(w)}")
        if not is_antichain(ws):
            raise ValueError("words are not pairwise incomparable")
        self.words = ws
        self.d = d

    @classmethod
    def clopen(cls, words, d: int) -> "Antichain":
        """Coarsest antichain describing the union of the given cylinders.

        Accepts overlapping input (nested cylinders are absorbed) and then
        merges, bottom-up, every complete family of d siblings into their
        parent.
        """
        keep: list[Word] = []
        # a kept word that prefixes w sorts before w, and so does every word
        # between them, so only the last kept word can absorb w
        for w in sorted(set(tuple(w) for w in words)):
            if not keep or not is_prefix(keep[-1], w):
                keep.append(w)
        return cls(coarsen(keep, d, lambda w: w, lambda family: family[0][:-1]), d)

    def is_complete(self) -> bool:
        return is_complete_antichain(self.words, self.d)

    def is_empty(self) -> bool:
        return not self.words

    def is_whole(self) -> bool:
        """True iff the clopen set is the whole boundary: the cylinders are
        disjoint, so they cover it exactly when the antichain is complete."""
        return self.is_complete()

    def m_invariant(self) -> int:
        return m_invariant(self.words, self.d)

    def refines(self, other: "Antichain") -> bool:
        """Every word here extends (or equals) a word of `other`."""
        return all(any(is_prefix(v, w) for v in other.words) for w in self.words)

    def split(self, word: Word) -> "Antichain":
        """Replace one word by its d children (elementary splitting)."""
        word = tuple(word)
        if word not in self.words:
            raise ValueError(f"{format_word(word)} not in antichain")
        ws = [w for w in self.words if w != word]
        ws.extend(word + (x,) for x in range(self.d))
        return Antichain(ws, self.d)

    def complement(self) -> "Antichain":
        """Coarsest antichain of the complementary clopen set."""
        words = self.words
        out: list[Word] = []
        stack: list[Word] = [()]
        while stack:
            prefix = stack.pop()
            # the first word at or after `prefix` in sorted order starts
            # with it iff some word of the antichain does
            k = bisect_left(words, prefix)
            if k == len(words) or not is_prefix(prefix, words[k]):
                out.append(prefix)
            elif words[k] != prefix:
                stack.extend(prefix + (x,) for x in range(self.d))
        return Antichain(out, self.d)

    def __iter__(self):
        return iter(self.words)

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return tuple(word) in self.words

    def __eq__(self, other):
        return (
            isinstance(other, Antichain)
            and self.words == other.words
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.words, self.d))

    def __repr__(self):
        return f"Antichain([{', '.join(format_word(w) for w in self.words)}], d={self.d})"


def common_refinement(a1: Antichain, a2: Antichain) -> Antichain:
    """Coarsest complete antichain refining two complete antichains.

    Every boundary point passes through exactly one word of each input;
    the refinement keeps the deeper of the two.
    """
    if a1.d != a2.d:
        raise ValueError("alphabet mismatch")
    if not a1.is_complete() or not a2.is_complete():
        raise ValueError("common refinement needs complete antichains")
    # both sorted lists cover the boundary in the same order, so the two
    # current words always nest: emit the deeper one, and step past the
    # shallower one once the other side has left its cylinder
    w1, w2 = a1.words, a2.words
    out: list[Word] = []
    i = j = 0
    while i < len(w1) and j < len(w2):
        v, u = w1[i], w2[j]
        if len(v) <= len(u):
            out.append(u)
            j += 1
            if len(v) == len(u) or j == len(w2) or not is_prefix(v, w2[j]):
                i += 1
        else:
            out.append(v)
            i += 1
            if i == len(w1) or not is_prefix(u, w1[i]):
                j += 1
    return Antichain(out, a1.d)
