"""Command-line surface: one subcommand per operation, stable parseable output.

Text output is deterministic across runs; ``--json`` switches every command
to a structured form (documented in ``schemas/cli_output.schema.json``).

Every command that reads an input is a row of ``COMMANDS``, which lists its
positional inputs as ``(argument, kind)`` pairs, and ``_run_command`` reads,
parses and echoes them and prints the answer; ``hasse``, ``enumerate`` and
``verify`` read none and stream their output.  ``leq`` and ``meet`` read an
involution or a dense matrix as its rank matrix.  A command of one input
accepts ``-`` to read one input per line from stdin and prints exactly one
line per input as soon as it is read: a list answer on one line separated by
spaces, ``none`` for any empty answer, a rank matrix as one JSON array (the
form ``valid -`` and ``recover -`` read), and with ``--json`` one JSON object.

Exit codes: 0 success, 1 parse/validation error or a closed output pipe,
2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Callable, NamedTuple

from .errors import OrbitPosetError, ParseError
from .involutions import (
    Involution,
    dimension,
    enumerate_involutions,
    q_values,
)
from .moves import ancestor_moves, cover_moves, descendant_moves
from .oracle import suite_names, verify_all, verify_suite
from .poset import closure, codim, depth, hasse, hasse_dot, intersect
from .rank_matrices import RankMatrix, from_rank_matrix, is_valid, leq, meet, rank_matrix
from .rs import find_rs_witness
from .tableaux import (
    TwoColumnTableau,
    change,
    change_rule_partners,
    sigma_T,
    tableau_of,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 with a one-line diagnostic
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _need_n(args) -> int:
    if args.n is None:
        raise ParseError("--n is required for involution input")
    return args.n


def _parse_matrix(text: str) -> RankMatrix:
    """A dense JSON matrix; JSON that does not load is a ParseError."""
    try:
        rows = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a digit-limit integer, deep nesting
        raise ParseError(f"bad JSON input: {exc}") from None
    return RankMatrix.from_rows(rows)


def _parse_rank(text: str, args) -> RankMatrix:
    """A dense JSON matrix, or an involution (needs --n) as its rank matrix.

    The one place where such text becomes a :class:`RankMatrix`.
    """
    stripped = text.strip()
    if stripped.startswith("["):
        return _parse_matrix(stripped)
    return rank_matrix(Involution.parse(stripped, _need_n(args)))


def _emit(args, payload: dict, answer, batch: bool = False) -> None:
    """Print one answer: ``payload`` under ``--json``, else ``answer`` as text.

    A list answer prints one line per item, a rank matrix its aligned grid,
    anything else its ``str``.  ``batch`` (input read from stdin) keeps every
    answer to one line, ``none`` when it is empty.
    """
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif isinstance(answer, RankMatrix):
        print(json.dumps(answer.to_rows()) if batch else answer.format_grid())
    elif batch:
        print((" ".join(answer) if isinstance(answer, list) else str(answer)) or "none")
    elif isinstance(answer, list):
        for line in answer:
            print(line)
    else:
        print(answer)


# ---------------------------------------------------------------------------
# Commands that read inputs
# ---------------------------------------------------------------------------

class _Command(NamedTuple):
    name: str
    help: str
    inputs: tuple[tuple[str, str], ...]  # (argument, kind) per positional input
    answer: Callable  # (*values, args) -> (JSON fields, text answer for _emit)


def _reader(name: str, kind: str, args) -> tuple[Callable, Callable]:
    """The parser of input ``name`` of ``kind``, and its echo: (value, text) -> JSON fields.

    An ``involution-or-matrix`` is read as a rank matrix and echoed as the
    text given; an ``integer`` has been read by argparse.
    """
    if kind == "involution":
        n = _need_n(args)  # checked before stdin is read
        return (lambda text: Involution.parse(text, n)), (lambda inv, text: {name: str(inv), "n": n})
    if kind == "tableau":
        return TwoColumnTableau.parse, lambda tab, text: {name: str(tab)}
    if kind == "matrix":
        return _parse_matrix, lambda r, text: {"n": r.n}
    if kind == "integer":
        return int, lambda i, text: {name: i}
    return partial(_parse_rank, args=args), lambda r, text: {name: text.strip()}


def _stdin_rows():
    """Each non-blank stdin line, stripped, as a row of one input, read as it comes."""
    try:
        yield from ([line.strip()] for line in sys.stdin if line.strip())
    except UnicodeDecodeError as exc:
        raise ParseError(f"stdin is not valid text: {exc}") from None


def _run_command(command: _Command, args) -> int:
    readers = [_reader(name, kind, args) for name, kind in command.inputs]
    texts = [getattr(args, name) for name, _ in command.inputs]
    batch = texts == ["-"]  # only a command of one input reads stdin, a line at a time
    for row in _stdin_rows() if batch else [texts]:
        values, payload = [], {}
        for (parse, echo), text in zip(readers, row):
            values.append(parse(text))
            payload.update(echo(values[-1], text))
        fields, answer = command.answer(*values, args)
        _emit(args, {**payload, **fields}, answer, batch)
        if batch:  # answer each line before the next one is read
            sys.stdout.flush()
    return 0


def _field(key: str, value, text=str, **fields):
    """The answer ``{key: value, **fields}``, printed as ``text(value)``."""
    return {key: value, **fields}, text(value)


def _names(key: str, members):
    """A sorted list answer, printed one member per line."""
    names = [str(m) for m in sorted(members)]
    return {key: names}, names


def _moves(moves):
    """Moves with their provenance; the text lists the distinct targets."""
    fields = {
        "moves": [
            {"kind": m.kind, "source": [list(p) for p in m.source], "target": str(m.target)}
            for m in moves
        ]
    }
    return fields, [str(t) for t in sorted({m.target for m in moves})]


def _matrix(r: RankMatrix):
    """A rank-matrix answer, printed as its grid."""
    return {"n": r.n, "rank_matrix": r.to_rows()}, r


def _intersect(a: Involution, b: Involution, args):
    result = intersect(a, b, force=args.force, max_n=args.max_n)
    lines = [
        "meet:",
        result.meet.format_grid(),
        f"irreducible: {json.dumps(result.irreducible)}",
        "components:",
        *(f"  {comp} dim {d}" for comp, d in zip(result.components, result.component_dims)),
        f"codim: {result.codim}",
        f"equidimensional: {json.dumps(result.equidimensional)}",
    ]
    fields = result.to_json_dict()
    if args.force and a.length != b.length:
        fields["note"] = "outside theorem scope"
        lines.append("note: outside theorem scope")
    return fields, lines


def _tab2inv(tab: TwoColumnTableau, args):
    inv = sigma_T(tab)
    return {"involution": str(inv), "n": tab.n, "dim": dimension(inv)}, str(inv)


def _inv2tab(inv: Involution, args):
    tab = tableau_of(inv)
    name = None if tab is None else str(tab)
    return {"tableau": name}, name or "none"


def _change(tab: TwoColumnTableau, i: int, j: int, args):
    arr = change(tab, i, j)
    ok = arr.is_tableau()
    return {"array": str(arr), "is_tableau": ok}, [str(arr), f"is_tableau: {json.dumps(ok)}"]


def _rs_witness(t: TwoColumnTableau, s: TwoColumnTableau, args):
    witness = find_rs_witness(t, s, args.max_candidates)
    if witness is None:
        return {"witness": None}, "none"
    p, m = witness
    return {"witness": {"p": str(p), "m": m}}, f"P={p} m={m}"


_INV = (("involution", "involution"),)
_TAB = (("tableau", "tableau"),)
_MAT = (("matrix", "matrix"),)
_TWO_RANKS = (("a", "involution-or-matrix"), ("b", "involution-or-matrix"))

# Rows look library names up when they run, never when this module loads, so
# a tracer that rebinds this module's globals sees every call.
COMMANDS = (
    _Command("dim", "orbit dimension of an involution", _INV,
             lambda inv, args: _field("dim", dimension(inv))),
    _Command("q", "per-pair interleaving statistic", _INV,
             lambda inv, args: _field("q", q_values(inv), lambda q: ",".join(map(str, q)))),
    _Command("rank", "rank matrix of an involution", _INV,
             lambda inv, args: _matrix(rank_matrix(inv))),
    _Command("valid", "test a dense matrix for rank-matrix validity", _MAT,
             lambda r, args: _field("valid", is_valid(r), json.dumps, rank_matrix=r.to_rows())),
    _Command("recover", "recover the involution of a valid rank matrix", _MAT,
             lambda r, args: _field("involution", str(from_rank_matrix(r)))),
    _Command("leq", "closure-order comparison (involutions or matrices)", _TWO_RANKS,
             lambda a, b, args: _field("leq", leq(a, b), json.dumps)),
    _Command("meet", "entrywise minimum of two rank matrices", _TWO_RANKS,
             lambda a, b, args: _matrix(meet(a, b))),
    _Command("desc", "one-level degenerations (same cycle count)", _INV,
             lambda inv, args: _moves(descendant_moves(inv))),
    _Command("anc", "one-level ascents (same cycle count)", _INV,
             lambda inv, args: _moves(ancestor_moves(inv))),
    _Command("cover", "cover relation below an involution (all lengths)", _INV,
             lambda inv, args: _moves(cover_moves(inv))),
    _Command("closure", "everything below an involution", _INV,
             lambda inv, args: _names("closure", closure(inv))),
    _Command("intersect", "decompose the intersection of two closures",
             (("a", "involution"), ("b", "involution")), _intersect),
    _Command("codim", "codimension of a comparable pair",
             (("upper", "involution"), ("lower", "involution")),
             lambda upper, lower, args: _field("codim", codim(upper, lower))),
    _Command("depth", "chain length down to the minimal k-pair element", _INV,
             lambda inv, args: _field("depth", depth(inv, args.k), k=args.k)),
    _Command("tab2inv", "maximal-orbit involution of a two-column tableau", _TAB, _tab2inv),
    _Command("inv2tab", "tableau of a maximal-dimension involution", _INV, _inv2tab),
    _Command("partners", "codimension-one partner tableaux", _TAB,
             lambda tab, args: _names("partners", change_rule_partners(tab))),
    _Command("change", "swap one entry between the two columns",
             (("tableau", "tableau"), ("i", "integer"), ("j", "integer")), _change),
    _Command("rs-witness", "insertion-word witness for codimension one",
             (("t", "tableau"), ("s", "tableau")), _rs_witness),
)

# Help of an argument by kind; an integer's by name.
_INPUT_HELP = {
    "involution": "e.g. '(1,5)(3,4)' (identity: id)",
    "tableau": "e.g. '1,2,3,6|4,5,7,8'",
    "matrix": "dense JSON array, e.g. '[[0,1],[0,0]]'",
    "involution-or-matrix": "an involution (needs --n), e.g. '(1,5)(3,4)', "
    "or a dense JSON rank matrix",
}
_ARGUMENT_HELP = {"i": "entry of the first column", "j": "entry of the second column"}


# ---------------------------------------------------------------------------
# Commands of no input
# ---------------------------------------------------------------------------

def _cmd_hasse(args) -> int:
    if args.dot:
        print(hasse_dot(args.n, args.k, args.max_n))
        return 0
    edges = hasse(args.n, args.k, args.max_n)
    if args.json:  # built only when asked for: 56 068 edges at n = 10
        edges = [{"upper": str(e.upper), "lower": str(e.lower), "kind": e.kind} for e in edges]
        print(json.dumps({"n": args.n, "k": args.k, "edges": edges}, sort_keys=True))
        return 0
    for e in edges:
        print(f"{e.upper} {e.lower} {e.kind}")
    return 0


def _cmd_enumerate(args) -> int:
    members = enumerate_involutions(args.n, args.k)
    if args.json:
        print(json.dumps({"n": args.n, "k": args.k, "involutions": [str(m) for m in members]}, sort_keys=True))
    else:
        for m in members:  # printed as generated, so memory stays flat and a closed pipe stops it
            print(m)
    return 0


def _cmd_verify(args) -> int:
    if args.all:
        reports = verify_all(args.n, args.k, args.max_n)
    else:
        reports = [verify_suite(args.suite, args.n, args.k, args.max_n)]
    passed = all(r.passed for r in reports)
    lines = []
    for r in reports:
        lines.append(
            f"suite {r.suite}: {'PASS' if r.passed else 'FAIL'} "
            f"({r.checks_run} checks, {len(r.failures)} failures, {r.elapsed:.2f}s) [n<={r.n_max}]"
        )
        lines += [f"  note: {note}" for note in r.notes]
        lines += [f"  failure: {failure}" for failure in r.failures]
    _emit(args, {"suites": [r.to_json_dict() for r in reports], "passed": passed}, lines)
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(
        prog="orbitposet",
        description="Combinatorics of conjugation orbits of square-zero "
        "upper-triangular matrices, through their involutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="structured output")
        return p

    for command in COMMANDS:
        p = add(command.name, partial(_run_command, command), command.help)
        for name, kind in command.inputs:
            help_text = _ARGUMENT_HELP[name] if kind == "integer" else _INPUT_HELP[kind]
            if len(command.inputs) == 1:
                help_text += ", or - for one per line on stdin"
            p.add_argument(name, type=int if kind == "integer" else None, help=help_text)
        if any(kind in ("involution", "involution-or-matrix") for _, kind in command.inputs):
            p.add_argument("--n", type=int)
    sub.choices["depth"].add_argument("--k", type=int, default=0)
    p = sub.choices["intersect"]
    p.add_argument("--force", action="store_true", help="allow unequal cycle counts")
    p.add_argument("--max-n", type=int, dest="max_n", help="raise the feasibility guard")
    sub.choices["rs-witness"].add_argument(
        "--max-candidates", type=int, dest="max_candidates", help="raise the candidate-count guard")

    p = add("hasse", _cmd_hasse, "cover edges of the closure order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--dot", action="store_true", help="emit DOT")
    p.add_argument("--max-n", type=int, dest="max_n", help="raise the feasibility guard")

    p = add("enumerate", _cmd_enumerate, "list involutions in stable order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)

    p = add("verify", _cmd_verify, "run brute-force verification suites")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--suite", choices=suite_names())
    which.add_argument("--all", action="store_true")
    p.add_argument("--n", type=int, help="override the suite's default range")
    p.add_argument("--k", type=int, help="restrict to cycle counts up to k")
    p.add_argument("--max-n", type=int, dest="max_n", help="raise the feasibility guard")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's exit flush
        return code
    except OrbitPosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left; what is still buffered goes to devnull when Python exits
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output pipe closed by the reader", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
