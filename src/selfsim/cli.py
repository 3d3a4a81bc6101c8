"""Command-line front end.

Exit codes: 0 on success (including definite "nontrivial"/"different"
answers, and output cut short because the reader closed the pipe), 1 on
domain errors or bad usage, 2 when a verdict stayed undecided or a budget
ran out.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import catalogue
from .abelian import (
    PostCriticalData,
    predicted_rational_formula,
    rational_map_abelianization,
    vg_abelianization,
)
from .limitspace import moore_diagram, quotient_graph, schreier_graph
from .nucleus import (
    NotContractingError,
    compute_nucleus,
    is_level_transitive,
    is_regular,
    is_self_replicating,
)
from .presentation import UndecidedError, emit_presentation, verify_relator
from .ssgroup import Budget, BudgetExceeded, GroupDef, perm_to_cycles
from .vg import Table
from .words import Antichain, format_word, m_invariant, parse_word


def _check_digits(d: int) -> None:
    """Refuse an alphabet that one digit per letter cannot write apart."""
    if d > 10:
        raise ValueError(f"vertex names take one digit per letter: {d} letters is over 10")


def _group(args) -> GroupDef:
    """The command's group.  It holds the command's budget, if the command
    takes one; a command that writes words refuses an alphabet past 10
    letters."""
    group = catalogue.resolve_group(args.group)
    if args.command in ("wp", "vg", "limit", "schreier"):
        _check_digits(group.d)
    if hasattr(args, "budget_states"):
        group.budget = Budget(args.budget_states)
    return group


def _read_arg(text: str) -> str:
    """The argument itself, or with a leading "@" the file it names."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return text


def _load_table(group: GroupDef, text: str) -> Table:
    return Table.from_json(group, json.loads(_read_arg(text)))


def _print_graph(graph, fmt: str) -> None:
    print(graph.to_dot() if fmt == "dot" else graph.json_text())


def cmd_catalogue(args) -> None:
    for name, group in catalogue.builtin_groups().items():
        print(f"# {name}")
        print(group.to_text())


def cmd_nucleus(args) -> None:
    group = _group(args)
    nucleus = compute_nucleus(group)
    if args.json:
        print(json.dumps(nucleus.to_json()))
        return
    print(f"nucleus of {args.group}: {len(nucleus)} states")
    for i in nucleus:
        secs = ", ".join(str(nucleus.reps[k]) for k in nucleus.sections[i])
        print(f"  {nucleus.reps[i]} = {perm_to_cycles(nucleus.perms[i])}({secs})")


def cmd_check(args) -> None:
    group = _group(args)
    # every answer is computed before any is printed, so a bad argument or
    # an exhausted budget exits with nothing on standard output
    try:
        nucleus = compute_nucleus(group)
        lines = [f"contracting: yes ({len(nucleus)} states)",
                 f"regular: {'yes' if is_regular(nucleus) else 'no'}"]
    except NotContractingError as exc:
        lines = [f"contracting: {exc}"]
    lines.append(f"self-replicating (radius {args.radius}): "
                 f"{is_self_replicating(group, args.radius)}")
    lines.append(f"level-transitive up to {args.level}: "
                 f"{'yes' if is_level_transitive(group, args.level) else 'no'}")
    print("\n".join(lines))


def cmd_wp(args) -> tuple[str, int]:
    verdict = _group(args).is_trivial(args.word)
    if verdict.status == "nontrivial":
        return f"nontrivial (moves {format_word(verdict.witness)})", 0
    return verdict.status, 2 if verdict.status == "undecided" else 0


# how many table (or word) arguments each vg verb takes
_VG_ARITY = {"mul": 2, "inv": 1, "eq": 2, "canon": 1, "apply": 2}


def cmd_vg(args) -> tuple[str, int] | None:
    n = _VG_ARITY[args.verb]
    if len(args.args) != n:
        raise ValueError(f"{args.verb} takes {n} argument{'s' if n > 1 else ''}, "
                         f"got {len(args.args)}")
    group = _group(args)
    if args.verb == "mul":
        t = _load_table(group, args.args[0]) * _load_table(group, args.args[1])
        print(json.dumps(t.to_json()))
    elif args.verb == "inv":
        print(json.dumps(_load_table(group, args.args[0]).inverse().to_json()))
    elif args.verb == "eq":
        status = _load_table(group, args.args[0]).equals(_load_table(group, args.args[1]))
        return status, 2 if status == "undecided" else 0
    elif args.verb == "canon":
        print(json.dumps(_load_table(group, args.args[0]).canonical_form().to_json()))
    else:  # apply
        t = _load_table(group, args.args[0])
        print(format_word(t.apply(parse_word(args.args[1]))))


def cmd_abel(args) -> None:
    group = _group(args)
    print(vg_abelianization(group))


def cmd_abel_rational(args) -> None:
    portrait = PostCriticalData.from_json(json.loads(_read_arg(args.portrait)))
    # both answers are computed before either is printed, so a bad
    # prediction argument exits with nothing on standard output
    lines = [str(rational_map_abelianization(portrait))]
    if args.predict:
        k, l = args.predict
        lines.append(f"predicted: {predicted_rational_formula(k, l, args.odd_exception)}")
    print("\n".join(lines))


def cmd_present(args) -> None:
    group = _group(args)
    bundle = emit_presentation(group)
    if args.json:
        print(json.dumps(bundle.to_json()))
        return
    print(f"generators beyond the prefix-replacement part: {len(bundle.s1)}")
    print("  " + " ".join(bundle.s1))
    for fam in ("C", "N", "S"):
        rels = bundle.relators[fam]
        line = f"family {fam}: {len(rels)} relators"
        if args.verify:
            ok = sum(verify_relator(r) for r in rels)
            line += f" ({ok} verify as identity)"
        print(line)


def cmd_limit(args) -> None:
    group = _group(args)
    nucleus = compute_nucleus(group)
    _print_graph(quotient_graph(nucleus, args.level), args.format)


def cmd_moore(args) -> None:
    group = _group(args)
    nucleus = compute_nucleus(group)
    _print_graph(moore_diagram(nucleus), args.format)


def cmd_schreier(args) -> None:
    group = _group(args)
    _print_graph(schreier_graph(group, args.level), args.format)


def cmd_m_invariant(args) -> None:
    _check_digits(args.alphabet)
    data = json.loads(args.antichain)
    if not isinstance(data, list):
        raise ValueError("the antichain must be a JSON list of words")
    words = [parse_word(s) for s in data]
    ac = Antichain(words, args.alphabet)
    print(m_invariant(ac.words, args.alphabet))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: built on the first call and shared by every
    later `main` call in the process; parsing leaves it unchanged.  Callers
    must not mutate the shared parser."""
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Self-similar groups, their table groups, and limit spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=True, no_cache=True):
        p.add_argument("group", help="catalogue name, kneading:BITS, trivial:D, or file")
        if budget:
            p.add_argument("--budget-states", type=int, default=Budget.max_states)
        if budget and no_cache:
            p.add_argument("--no-cache", action="store_true",
                           help="accepted for compatibility; has no effect")

    p = sub.add_parser("catalogue", help="print the built-in groups")
    p.set_defaults(func=cmd_catalogue)

    p = sub.add_parser("nucleus", help="compute and print the nucleus")
    common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_nucleus)

    p = sub.add_parser("check", help="structural predicates")
    common(p)
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--level", type=int, default=6)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("wp", help="word problem: is the element trivial")
    common(p, no_cache=False)
    p.add_argument("word")
    p.set_defaults(func=cmd_wp)

    p = sub.add_parser("vg", help="table arithmetic (JSON tables or @file)")
    common(p, no_cache=False)
    p.add_argument("verb", choices=["mul", "inv", "eq", "canon", "apply"])
    p.add_argument("args", nargs="+")
    p.set_defaults(func=cmd_vg)

    p = sub.add_parser("abel", help="abelianization of the table group")
    common(p)
    p.set_defaults(func=cmd_abel)

    p = sub.add_parser("abel-rational", help="abelianization from a portrait")
    p.add_argument("portrait", help="portrait JSON or @file")
    p.add_argument("--predict", nargs=2, type=int, metavar=("K", "L"))
    p.add_argument("--odd-exception", action="store_true")
    p.set_defaults(func=cmd_abel_rational)

    p = sub.add_parser("present", help="emit the finite-presentation data")
    common(p)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("limit", help="level quotient of the limit space")
    common(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("moore", help="nucleus automaton diagram")
    common(p)
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.set_defaults(func=cmd_moore)

    p = sub.add_parser("schreier", help="level orbit graph")
    common(p, budget=False)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.set_defaults(func=cmd_schreier)

    p = sub.add_parser("m-invariant", help="cylinder-count residue of an antichain")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("antichain", help='JSON list of words, e.g. \'["0","10"]\'')
    p.set_defaults(func=cmd_m_invariant)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    code = 0
    try:
        verdict = args.func(args)
        if verdict is not None:
            # a verdict line comes with its exit code, which is set before
            # the line is written, so a failed write cannot change it
            line, code = verdict
            print(line)
    except (NotContractingError, UndecidedError, BudgetExceeded) as exc:
        if str(exc):
            print(str(exc), file=sys.stderr)
        code = 2
    except BrokenPipeError:
        pass  # the reader stopped early and what it read is correct
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    _flush_stdout()
    return code


def _flush_stdout() -> None:
    """Flush stdout.  If the reader has closed the pipe, what is still
    buffered goes to the null device, so the flush at exit cannot fail."""
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
