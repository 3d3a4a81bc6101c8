"""Built-in group definitions and the kneading-sequence family."""

from __future__ import annotations

from .ssgroup import GenWord, GroupDef

ADDING_MACHINE = """\
# binary odometer: adds one with carry
alphabet: 2
a = (0 1)(e, a)
"""

BASILICA = """\
alphabet: 2
a = (0 1)(e, b)
b = ()(e, a)
"""

GRIGORCHUK = """\
alphabet: 2
a = (0 1)(e, e)
b = ()(a, c)
c = ()(a, d)
d = ()(e, b)
"""

# "e" is reserved for the identity, so generator letters skip it
_LETTERS = "abcdfghijklmnopqrstuvwxyz"


def kneading_group(v: str) -> GroupDef:
    """Group of the kneading sequence v over {0,1}: n = len(v)+1 generators.

    Generator 0 swaps the top letters and defers to generator n-1 below
    letter 1; generator i defers to generator i-1 below letter v[i-1] and
    does nothing below the other letter.
    """
    if any(c not in "01" for c in v):
        raise ValueError(f"kneading sequence must be over 0/1, got {v!r}")
    n = len(v) + 1
    if n > len(_LETTERS):
        raise ValueError("kneading sequence too long")
    names = _LETTERS[:n]
    e = GenWord()
    recursion = {
        names[0]: ((1, 0), (e, GenWord([(names[n - 1], 1)]))),
    }
    for i in range(1, n):
        prev = GenWord([(names[i - 1], 1)])
        if v[i - 1] == "0":
            recursion[names[i]] = ((0, 1), (prev, e))
        else:
            recursion[names[i]] = ((0, 1), (e, prev))
    return GroupDef(2, recursion, name=f"kneading:{v}")


def trivial_group(d: int) -> GroupDef:
    """The group with no generators, acting trivially; hosts plain
    prefix-replacement tables over a d-letter alphabet."""
    return GroupDef(d, {}, name=f"trivial:{d}")


_BUILTINS = {"adding": ADDING_MACHINE, "basilica": BASILICA, "grigorchuk": GRIGORCHUK}


def builtin_groups() -> dict[str, GroupDef]:
    return {name: GroupDef.parse(text, name=name) for name, text in _BUILTINS.items()}


def resolve_group(spec: str) -> GroupDef:
    """Look up a catalogue name, kneading:BITS, trivial:D, or a file path;
    only the group returned is parsed."""
    if spec in _BUILTINS:
        return GroupDef.parse(_BUILTINS[spec], name=spec)
    if spec.startswith("kneading:"):
        return kneading_group(spec.split(":", 1)[1])
    if spec.startswith("trivial:"):
        return trivial_group(int(spec.split(":", 1)[1]))
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"unknown group {spec!r} ({exc})") from None
    return GroupDef.parse(text, name=spec)
