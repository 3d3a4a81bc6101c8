"""Fuzz of the command line: whatever the group, level and format, a level
command ends in exit 0, 1 or 2 and never lets an exception escape."""

import contextlib
import io
from pathlib import Path

from hypothesis import given, settings, strategies as st

from selfsim.catalogue import builtin_groups
from selfsim.cli import main

GROUPS = Path(__file__).parent / "groups"

GROUP_SPECS = st.one_of(
    st.sampled_from(sorted(builtin_groups()) + ["trivial:2", "trivial:3",
                                                str(GROUPS / "flip.txt"),
                                                str(GROUPS / "rotation3.txt")]),
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


@settings(max_examples=60, deadline=None)
@given(level_commands())
def test_level_commands_exit_honestly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
