"""Command-line surface: one subcommand per operation, stable parseable output.

Text output is deterministic across runs; ``--json`` switches every command
to a structured form (documented in ``schemas/cli_output.schema.json``).
Commands taking a single involution or tableau accept ``-`` to read one
input per line from stdin and emit one output line per input.

Exit codes: 0 success, 1 parse/validation error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def _inputs(value: str) -> list[str]:
    if value == "-":
        return [line.strip() for line in sys.stdin if line.strip()]
    return [value]


def _need_n(args) -> int:
    if args.n is None:
        raise ParseError("--n is required for involution input")
    return args.n


def _parse_matrix(text: str) -> RankMatrix:
    """A dense JSON matrix; JSON that does not load is a ParseError."""
    try:
        rows = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer past int's digit limit
        raise ParseError(f"bad JSON input: {exc}") from None
    return RankMatrix.from_rows(rows)


def _parse_value(text: str, n: int | None) -> Involution | RankMatrix:
    """An involution (needs n) or a dense JSON matrix."""
    stripped = text.strip()
    if stripped.startswith("["):
        return _parse_matrix(stripped)
    if n is None:
        raise ParseError("--n is required for involution input")
    return Involution.parse(stripped, n)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def _cmd_dim(args) -> int:
    n = _need_n(args)
    for text in _inputs(args.involution):
        inv = Involution.parse(text, n)
        _emit(args, {"involution": str(inv), "n": n, "dim": dimension(inv)}, str(dimension(inv)))
    return 0


def _cmd_q(args) -> int:
    n = _need_n(args)
    for text in _inputs(args.involution):
        inv = Involution.parse(text, n)
        values = q_values(inv)
        _emit(args, {"involution": str(inv), "n": n, "q": values}, ",".join(map(str, values)))
    return 0


def _cmd_rank(args) -> int:
    n = _need_n(args)
    for text in _inputs(args.involution):
        inv = Involution.parse(text, n)
        r = rank_matrix(inv)
        _emit(
            args,
            {"involution": str(inv), "n": n, "rank_matrix": r.to_rows()},
            r.format_grid(),
        )
    return 0


def _cmd_valid(args) -> int:
    for text in _inputs(args.matrix):
        r = _parse_matrix(text)
        ok = is_valid(r)
        _emit(args, {"n": r.n, "rank_matrix": r.to_rows(), "valid": ok}, "true" if ok else "false")
    return 0


def _cmd_recover(args) -> int:
    for text in _inputs(args.matrix):
        r = _parse_matrix(text)
        inv = from_rank_matrix(r)
        _emit(args, {"n": r.n, "involution": str(inv)}, str(inv))
    return 0


def _cmd_leq(args) -> int:
    a = _parse_value(args.a, args.n)
    b = _parse_value(args.b, args.n)
    ok = leq(a, b)
    _emit(args, {"a": args.a.strip(), "b": args.b.strip(), "leq": ok}, "true" if ok else "false")
    return 0


def _cmd_meet(args) -> int:
    a = _parse_value(args.a, args.n)
    b = _parse_value(args.b, args.n)
    r = meet(a, b)
    _emit(
        args,
        {"a": args.a.strip(), "b": args.b.strip(), "n": r.n, "rank_matrix": r.to_rows()},
        r.format_grid(),
    )
    return 0


def _moves_command(args, generator) -> int:
    n = _need_n(args)
    for text in _inputs(args.involution):
        inv = Involution.parse(text, n)
        moves = generator(inv)
        targets = sorted({m.target for m in moves})
        if args.json:
            payload = {
                "involution": str(inv),
                "n": n,
                "moves": [
                    {
                        "kind": m.kind,
                        "source": [list(p) for p in m.source],
                        "target": str(m.target),
                    }
                    for m in moves
                ],
            }
            print(json.dumps(payload, sort_keys=True))
        elif args.involution == "-":
            print(" ".join(str(t) for t in targets))
        else:
            for t in targets:
                print(str(t))
    return 0


def _cmd_desc(args) -> int:
    return _moves_command(args, descendant_moves)


def _cmd_anc(args) -> int:
    return _moves_command(args, ancestor_moves)


def _cmd_cover(args) -> int:
    return _moves_command(args, cover_moves)


def _cmd_closure(args) -> int:
    n = _need_n(args)
    for text in _inputs(args.involution):
        inv = Involution.parse(text, n)
        members = sorted(closure(inv))
        if args.json:
            print(json.dumps({"involution": str(inv), "n": n, "closure": [str(m) for m in members]}, sort_keys=True))
        elif args.involution == "-":
            print(" ".join(str(m) for m in members))
        else:
            for m in members:
                print(str(m))
    return 0


def _cmd_intersect(args) -> int:
    n = _need_n(args)
    a = Involution.parse(args.a, n)
    b = Involution.parse(args.b, n)
    result = intersect(a, b, force=args.force, max_n=args.max_n)
    outside = args.force and a.length != b.length
    if args.json:
        payload = result.to_json_dict()
        if outside:
            payload["note"] = "outside theorem scope"
        print(json.dumps(payload, sort_keys=True))
        return 0
    print("meet:")
    print(result.meet.format_grid())
    print(f"irreducible: {'true' if result.irreducible else 'false'}")
    print("components:")
    for comp, d in zip(result.components, result.component_dims):
        print(f"  {comp} dim {d}")
    print(f"codim: {result.codim}")
    print(f"equidimensional: {'true' if result.equidimensional else 'false'}")
    if outside:
        print("note: outside theorem scope")
    return 0


def _cmd_codim(args) -> int:
    n = _need_n(args)
    upper = Involution.parse(args.upper, n)
    lower = Involution.parse(args.lower, n)
    value = codim(upper, lower)
    _emit(args, {"upper": str(upper), "lower": str(lower), "n": n, "codim": value}, str(value))
    return 0


def _cmd_depth(args) -> int:
    n = _need_n(args)
    for text in _inputs(args.involution):
        inv = Involution.parse(text, n)
        value = depth(inv, args.k or 0)
        _emit(args, {"involution": str(inv), "n": n, "k": args.k or 0, "depth": value}, str(value))
    return 0


def _cmd_hasse(args) -> int:
    if args.dot:
        print(hasse_dot(args.n, args.k, args.max_n))
        return 0
    edges = hasse(args.n, args.k, args.max_n)
    if args.json:
        payload = {
            "n": args.n,
            "k": args.k,
            "edges": [
                {"upper": str(e.upper), "lower": str(e.lower), "kind": e.kind}
                for e in edges
            ],
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    for e in edges:
        print(f"{e.upper} {e.lower} {e.kind}")
    return 0


def _cmd_tab2inv(args) -> int:
    for text in _inputs(args.tableau):
        tab = TwoColumnTableau.parse(text)
        inv = sigma_T(tab)
        _emit(
            args,
            {"tableau": str(tab), "involution": str(inv), "n": tab.n, "dim": dimension(inv)},
            str(inv),
        )
    return 0


def _cmd_inv2tab(args) -> int:
    n = _need_n(args)
    for text in _inputs(args.involution):
        inv = Involution.parse(text, n)
        tab = tableau_of(inv)
        _emit(
            args,
            {"involution": str(inv), "n": n, "tableau": None if tab is None else str(tab)},
            "none" if tab is None else str(tab),
        )
    return 0


def _cmd_partners(args) -> int:
    for text in _inputs(args.tableau):
        tab = TwoColumnTableau.parse(text)
        partners = sorted(change_rule_partners(tab))
        if args.json:
            print(json.dumps({"tableau": str(tab), "partners": [str(p) for p in partners]}, sort_keys=True))
        elif args.tableau == "-":
            print(" ".join(str(p) for p in partners) or "none")
        else:
            for p in partners:
                print(str(p))
    return 0


def _cmd_change(args) -> int:
    tab = TwoColumnTableau.parse(args.tableau)
    arr = change(tab, args.i, args.j)
    ok = arr.is_tableau()
    if args.json:
        print(json.dumps({"tableau": str(tab), "i": args.i, "j": args.j, "array": str(arr), "is_tableau": ok}, sort_keys=True))
    else:
        print(str(arr))
        print(f"is_tableau: {'true' if ok else 'false'}")
    return 0


def _cmd_rs_witness(args) -> int:
    t_tab = TwoColumnTableau.parse(args.t)
    s_tab = TwoColumnTableau.parse(args.s)
    witness = find_rs_witness(t_tab, s_tab)
    if args.json:
        payload = {
            "t": str(t_tab),
            "s": str(s_tab),
            "witness": None if witness is None else {"p": str(witness[0]), "m": witness[1]},
        }
        print(json.dumps(payload, sort_keys=True))
    elif witness is None:
        print("none")
    else:
        print(f"P={witness[0]} m={witness[1]}")
    return 0


def _cmd_enumerate(args) -> int:
    n = _need_n(args)
    members = list(enumerate_involutions(n, args.k))
    if args.json:
        print(json.dumps({"n": n, "k": args.k, "involutions": [str(m) for m in members]}, sort_keys=True))
    else:
        for m in members:
            print(str(m))
    return 0


def _cmd_verify(args) -> int:
    if args.all:
        reports = verify_all(args.n, args.k, args.max_n)
    elif args.suite:
        reports = [verify_suite(args.suite, args.n, args.k, args.max_n)]
    else:
        raise ParseError("pass --suite NAME or --all")
    if args.json:
        payload = {
            "suites": [r.to_json_dict() for r in reports],
            "passed": all(r.passed for r in reports),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"suite {r.suite}: {status} "
                f"({r.checks_run} checks, {len(r.failures)} failures, {r.elapsed:.2f}s) [n<={r.n_max}]"
            )
            for note in r.notes:
                print(f"  note: {note}")
            for failure in r.failures:
                print(f"  failure: {failure}")
    return 0 if all(r.passed for r in reports) else 2


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

    p = add("dim", _cmd_dim, "orbit dimension of an involution")
    p.add_argument("involution")
    p.add_argument("--n", type=int)

    p = add("q", _cmd_q, "per-pair interleaving statistic")
    p.add_argument("involution")
    p.add_argument("--n", type=int)

    p = add("rank", _cmd_rank, "rank matrix of an involution")
    p.add_argument("involution")
    p.add_argument("--n", type=int)

    p = add("valid", _cmd_valid, "test a dense matrix for rank-matrix validity")
    p.add_argument("matrix", help="dense JSON array, e.g. '[[0,1],[0,0]]'")

    p = add("recover", _cmd_recover, "recover the involution of a valid rank matrix")
    p.add_argument("matrix", help="dense JSON array")

    p = add("leq", _cmd_leq, "closure-order comparison (involutions or matrices)")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--n", type=int)

    p = add("meet", _cmd_meet, "entrywise minimum of two rank matrices")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--n", type=int)

    p = add("desc", _cmd_desc, "one-level degenerations (same cycle count)")
    p.add_argument("involution")
    p.add_argument("--n", type=int)

    p = add("anc", _cmd_anc, "one-level ascents (same cycle count)")
    p.add_argument("involution")
    p.add_argument("--n", type=int)

    p = add("cover", _cmd_cover, "cover relation below an involution (all lengths)")
    p.add_argument("involution")
    p.add_argument("--n", type=int)

    p = add("closure", _cmd_closure, "everything below an involution")
    p.add_argument("involution")
    p.add_argument("--n", type=int)

    p = add("intersect", _cmd_intersect, "decompose the intersection of two closures")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--n", type=int)
    p.add_argument("--force", action="store_true", help="allow unequal cycle counts")
    p.add_argument("--max-n", type=int, dest="max_n", help="raise the feasibility guard")

    p = add("codim", _cmd_codim, "codimension of a comparable pair")
    p.add_argument("upper")
    p.add_argument("lower")
    p.add_argument("--n", type=int)

    p = add("depth", _cmd_depth, "chain length down to the minimal k-pair element")
    p.add_argument("involution")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, default=0)

    p = add("hasse", _cmd_hasse, "cover edges of the closure order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--dot", action="store_true", help="emit DOT")
    p.add_argument("--max-n", type=int, dest="max_n", help="raise the feasibility guard")

    p = add("tab2inv", _cmd_tab2inv, "maximal-orbit involution of a two-column tableau")
    p.add_argument("tableau")

    p = add("inv2tab", _cmd_inv2tab, "tableau of a maximal-dimension involution")
    p.add_argument("involution")
    p.add_argument("--n", type=int)

    p = add("partners", _cmd_partners, "codimension-one partner tableaux")
    p.add_argument("tableau")

    p = add("change", _cmd_change, "swap one entry between the two columns")
    p.add_argument("tableau")
    p.add_argument("i", type=int, help="entry of the first column")
    p.add_argument("j", type=int, help="entry of the second column")

    p = add("rs-witness", _cmd_rs_witness, "insertion-word witness for codimension one")
    p.add_argument("t")
    p.add_argument("s")

    p = add("enumerate", _cmd_enumerate, "list involutions in stable order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)

    p = add("verify", _cmd_verify, "run brute-force verification suites")
    p.add_argument("--suite", choices=suite_names())
    p.add_argument("--all", action="store_true")
    p.add_argument("--n", type=int, help="override the suite's default range")
    p.add_argument("--k", type=int, help="restrict to cycle counts up to k")
    p.add_argument("--max-n", type=int, dest="max_n", help="raise the feasibility guard")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except OrbitPosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
