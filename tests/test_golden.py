"""Byte-for-byte pins of command outputs.

Each digest is the sha256 of the standard output of one command.  A change
to the table calculus, the nucleus or the presentation that alters any of
these outputs, even in formatting or relator order, fails here.  To
regenerate after a deliberate change of output, run each command through
`selfsim.cli.main` and hash what it prints.
"""

import hashlib

import pytest

from selfsim.cli import main

GOLDEN = [
    ("present adding --json --no-cache",
     "bd134b6386e880d1c5138465df35284ccbb2aec7d062bccbe40cbe423707b78d"),
    ("present adding --verify --no-cache",
     "c432ff73f3e59a635c24473b8f380e7e0a8f601abbfe6b936ea9732eb98190f5"),
    ("nucleus adding --json --no-cache",
     "65a295479f1ef81b812c1951398e58acba9e7d5add3c067d7bee851d9408e0fa"),
    ("abel adding --no-cache",
     "ec39b67830c0c34d71b0b6bf1d1c424eb7caab9222eb401fdaef044cf2145e9b"),
    ("present basilica --json --no-cache",
     "44ecb431d1c3621d080fbba3322b16a1e367681bb2b691f1929fa0a7e1dac682"),
    ("present basilica --verify --no-cache",
     "872ceaa8e99e3500760420ab36160d98ccd8e7a3e3ecabc63aec323bb3876971"),
    ("nucleus basilica --json --no-cache",
     "1ff91253dbbeba94df22d2f7a445a01ae2a8294b7cc9fdba3dda9b80cc170c0d"),
    ("abel basilica --no-cache",
     "ec39b67830c0c34d71b0b6bf1d1c424eb7caab9222eb401fdaef044cf2145e9b"),
    ("present grigorchuk --json --no-cache",
     "5bb462a81b52938fabaa1dfcc1635bd0c9ef63c91bec8594b3a82a3f8108f306"),
    ("present grigorchuk --verify --no-cache",
     "3b02837558f37f7d77bba848c20589b1fe29e693fd609bac9f310ce5892064ed"),
    ("nucleus grigorchuk --json --no-cache",
     "444253b2c90c4853eaf6c6bd9291270788b374a38a24af20e88afbf520ed64da"),
    ("abel grigorchuk --no-cache",
     "57781692db196397a9e53d0f4ab94f530299e16acd32cc38f9179d34cd980adc"),
    ("present trivial:3 --json --no-cache",
     "85bdec950d945a38cf3c559b6223e9fef40912bc2309e8478c5f2d64f814b6fc"),
    ("present trivial:3 --verify --no-cache",
     "54753c62e9328bc32769142647ed17cd1c9da4d10026437451464289d5771473"),
    ("nucleus trivial:3 --json --no-cache",
     "4bc39510e5787b3bc9945ebbc60e9380a56f4cdd6c76f8f81430ad8393e1531d"),
    ("abel trivial:3 --no-cache",
     "82333ba8fb3d909f1d1d3bf611fc54a04bbf27007675801416f8580104cfbcf0"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_output_is_byte_identical(capsys, command, digest):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
