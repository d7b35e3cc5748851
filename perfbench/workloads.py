"""The four benchmark workloads: seeded inputs, operations and output checks.

A workload is run in passes.  ``inputs(seed, index)`` draws the plain-data
inputs of one pass (tuples of pairs, tableau columns, argument lists) without
touching the library; ``ops(lib, data)`` turns them into calls on a loaded
copy of orbitposet.  The list of operation kinds and sizes in a pass (its
shape) is fixed; the seed and pass index choose only the concrete inputs.

Every op carries a structural check that works from ``reference`` alone, and
a ``render`` giving the canonical text that the pinned digests cover.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable

import reference as ref

# Check totals of ``verify_all()`` at the default suite ranges.  A lower
# count fails the run, so a shrunk suite range can never read as a speed-up.
ORACLE_CHECKS = 34_875
ORACLE_SUITES = (
    "counts", "dimension", "rank", "order", "delete", "moves", "descendants",
    "cover", "depth", "closure", "reachability", "codim", "ancestors",
    "tableaux", "partners", "rs", "experiments",
)


@dataclass
class Op:
    """One timed call, its shape and what to do with its result."""

    kind: str
    n: int
    k: int
    call: Callable[[], Any]
    check: Callable[["Op"], str | None]
    render: Callable[[Any], str]
    result: Any = None
    error: str | None = None
    latency: float = 0.0
    extra: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


# ---------------------------------------------------------------------------
# poset-queries
# ---------------------------------------------------------------------------

# n = 10 stops at k = 3: one maximal intersect at k >= 4 takes 2-14 s.
# n = 12 is out: intersect runs past 60 s there and has no feasibility guard.
POSET_SLOTS = ((8, 2), (8, 3), (8, 4), (9, 2), (9, 3), (9, 4), (10, 2), (10, 3))
POSET_KINDS = ("intersect-max", "closure-max", "intersect-rand", "closure-rand")
# Three draws per slot make 96 queries whose costs (0.5-600 ms) leave no wide
# gap at the 50th or 90th percentile, so neither reads off a cluster edge.
POSET_DRAWS = 3


@lru_cache(maxsize=None)
def poset_list() -> tuple:
    """The fixed query list: ``POSET_DRAWS`` draws per (kind, n, k) slot."""
    draw = random.Random("poset-queries/list")
    out = []
    for _ in range(POSET_DRAWS):
        for n, k in POSET_SLOTS:
            for kind in POSET_KINDS:
                if kind.endswith("max"):
                    t = ref.random_tableau(draw, n, k)
                    s = ref.random_tableau(draw, n, k)
                    while s == t:
                        s = ref.random_tableau(draw, n, k)
                    args = (ref.greedy_pairs(*t), ref.greedy_pairs(*s))
                else:
                    args = (ref.random_involution(draw, n, k), ref.random_involution(draw, n, k))
                out.append((kind, n, k, args[:1] if kind.startswith("closure") else args))
    return tuple(out)


def _poset_inputs(seed: int, index: int) -> list:
    """The fixed query list, each input mirrored or not as the seed decides.

    The mirror x -> n+1-x is an automorphism of the closure order (it keeps
    dimensions, down-sets and maximal orbits), so a query and its mirror do
    the same work up to the order of early-exit scans (within ~20% per query,
    measured): seeds change the inputs, hardly the cost of a pass.  Fresh
    draws per seed moved pass time by about 20% between seeds, and passes of
    unequal cost made the percentiles depend on how many passes fit.  Passes
    2m and 2m+1 mirror opposite halves, so each pair of passes runs every
    query both ways and the latency percentiles of a run hardly depend on
    the seed.
    """
    mirror = _rng("poset-queries", seed, index // 2)
    flip = index % 2 == 1
    return [
        (kind, n, k, tuple(ref.reflect(n, p) for p in args) if (mirror.random() < 0.5) != flip else args)
        for kind, n, k, args in poset_list()
    ]


def _check_intersect(op: Op) -> str | None:
    r = op.result
    (a, b), n = op.extra["pairs"], op.n
    ca, cb = ref.rank_cells(n, a), ref.rank_cells(n, b)
    bound = tuple(min(x, y) for x, y in zip(ca, cb))
    if tuple(r.meet.cells) != bound:
        return "meet is not the entrywise minimum"
    comps = [(c.pairs, ref.rank_cells(n, c.pairs)) for c in r.components]
    if not comps:
        return "no components"
    for pairs, cells in comps:
        if not ref.below(cells, bound):
            return f"component {ref.involution_text(pairs)} is not below the meet"
    for x in range(len(comps)):
        for y in range(len(comps)):
            if x != y and ref.below(comps[x][1], comps[y][1]):
                return "components are comparable"
    if n <= 8 and {pairs for pairs, _ in comps} != ref.maximal_below(n, bound):
        return "components differ from the maximal involutions below the meet"
    dims = tuple(ref.dimension(n, pairs) for pairs, _ in comps)
    if tuple(r.component_dims) != dims:
        return "component dimensions differ from the reference"
    if r.codim != min(ref.dimension(n, a), ref.dimension(n, b)) - max(dims):
        return "codim is not min(dim a, dim b) - max(component dim)"
    return None


def _check_closure(op: Op) -> str | None:
    (a,), n = op.extra["pairs"], op.n
    members = {m.pairs for m in op.result}
    if a not in members:
        return "closure misses its own input"
    if n <= 8:
        top = ref.rank_cells(n, a)
        expected = {p for p, cells in ref.all_involution_cells(n) if ref.below(cells, top)}
        if members != expected:
            return "closure differs from the entrywise filter of all involutions"
    return None


def _render_intersect(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


def _render_members(result) -> str:
    return " ".join(sorted(str(m) for m in result))


def _poset_ops(lib, data) -> list[Op]:
    poset, Involution = lib.poset, lib.Involution
    ops = []
    for kind, n, k, args in data:
        invs = [Involution(n, pairs) for pairs in args]
        if kind.startswith("intersect"):
            a, b = invs
            op = Op(kind, n, k, lambda a=a, b=b: poset.intersect(a, b), _check_intersect, _render_intersect)
        else:
            (a,) = invs
            op = Op(kind, n, k, lambda a=a: poset.closure(a), _check_closure, _render_members)
        op.extra["pairs"] = args
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# tableau-queries
# ---------------------------------------------------------------------------

TABLEAU_NS = (10, 12, 14, 16, 20)


def _exchange(col1, col2, i, j):
    """Swap entry i of the first column with entry j of the second."""
    return (
        tuple(sorted(set(col1) - {i} | {j})),
        tuple(sorted(set(col2) - {j} | {i})),
    )


def _low_partners(col1, col2) -> list:
    """Exchanges along the greedy pairing in b order with b_s > 2s (tableaux)."""
    free, out = set(col1), []
    for s, b in enumerate(col2, start=1):
        i = max(d for d in free if d < b)
        free.remove(i)
        if b > 2 * s:
            out.append(_exchange(col1, col2, i, b))
    return out


def _tableau_inputs(seed: int, index: int) -> list:
    """Per (n, k): a tableau; at k = 2 also a partner (hit) and a non-partner (miss)."""
    rng = _rng("tableau-queries", seed, index)
    data = []
    for n in TABLEAU_NS:
        for k in range(1, n // 2 + 1):
            tab = ref.random_tableau(rng, n, k)
            hit = miss = None
            if k == 2:
                while not _low_partners(*tab):
                    tab = ref.random_tableau(rng, n, k)
                hit = rng.choice(_low_partners(*tab))
                # An exchange moves one entry of each column, so a tableau
                # sharing no second-column entry with ``tab`` is no partner.
                miss = ref.random_tableau(rng, n, k)
                while set(miss[1]) & set(tab[1]):
                    miss = ref.random_tableau(rng, n, k)
            data.append((n, k, tab, hit, miss))
    return data


def _tableau_ops(lib, data) -> list[Op]:
    tableaux, rs, TCT = lib.tableaux, lib.rs, lib.TwoColumnTableau
    ops = []
    for n, k, cols, hit, miss in data:
        tab = TCT(*cols)
        partners = Op("partners", n, k, lambda t=tab: tableaux.codim1_partners(t), None, _render_members)
        rule = Op("rule-partners", n, k, lambda t=tab: tableaux.change_rule_partners(t), None, _render_members)
        # the two routes to the partner set must agree
        partners.check = lambda op, other=rule: _same_partners(op, other)
        rule.check = lambda op, other=partners: _same_partners(op, other)
        trip = Op("round-trip", n, k, lambda t=tab: _round_trip(tableaux, t), _check_round_trip,
                  lambda r: f"{r[0]} {r[1]}")
        trip.extra["cols"] = cols
        ops += [partners, rule, trip]
        if k == 2:
            for kind, other in (("witness-hit", hit), ("witness-miss", miss)):
                op = Op(kind, n, k, lambda t=tab, s=TCT(*other): rs.find_rs_witness(t, s),
                        _check_witness, _render_witness)
                ops.append(op)
    return ops


def _round_trip(tableaux, tab):
    sig = tableaux.sigma_T(tab)
    return sig, tableaux.tableau_of(sig)


def _same_partners(op: Op, other: Op) -> str | None:
    if other.error is None and op.result != other.result:
        return "codim1_partners and change_rule_partners disagree"
    return None


def _check_round_trip(op: Op) -> str | None:
    sig, back = op.result
    col1, col2 = op.extra["cols"]
    if sig.pairs != ref.greedy_pairs(col1, col2):
        return "sigma_T differs from the greedy pairing"
    if back is None or (back.col1, back.col2) != (col1, col2):
        return "tableau_of(sigma_T(T)) is not T"
    return None


def _check_witness(op: Op) -> str | None:
    if (op.result is None) != (op.kind == "witness-miss"):
        return f"{op.kind}: witness {'missing' if op.result is None else 'found'}"
    return None


def _render_witness(result) -> str:
    return "none" if result is None else f"{result[0]} {result[1]}"


# ---------------------------------------------------------------------------
# cli-stream
# ---------------------------------------------------------------------------

CLI_NS = (12, 20, 30)
CLI_COMMANDS = ("dim", "q", "rank", "leq", "desc", "anc", "cover", "inv2tab")


def _cli_inputs(seed: int, index: int) -> list:
    """Fresh random involutions; each command at k = 2, n//4 and n//2 pairs.

    Every pass has the same commands, sizes and pair counts; only the
    involutions are new.  Pair counts that changed with the pass index made
    pass cost depend on how many passes fit in a run.
    """
    rng = _rng("cli-stream", seed, index)
    data = []
    for n in CLI_NS:
        for k in sorted({2, n // 4, n // 2}):
            for cmd in CLI_COMMANDS:
                cols = None
                if cmd == "inv2tab":
                    cols = ref.random_tableau(rng, n, k)
                    args = [ref.greedy_pairs(*cols)]
                else:
                    args = [ref.random_involution(rng, n, k)]
                    if cmd == "leq":
                        args.append(ref.random_involution(rng, n, k))
                data.append((cmd, n, k, args, cols))
    return data


@lru_cache(maxsize=None)
def _validator(schema_path: str, command: str):
    import jsonschema  # not at the top: set-up probes (run.SETUP_PROBE) do not need it

    with open(schema_path) as fh:
        schema = json.load(fh)
    return jsonschema.Draft7Validator({"$ref": f"#/$defs/{command}", "$defs": schema["$defs"]})


def _cli_check(schema_path: str):
    def check(op: Op) -> str | None:
        code, text = op.result
        if code != 0:
            return f"exit code {code}"
        lines = text.splitlines()
        if len(lines) != 1:
            return f"expected one output line, got {len(lines)}"
        payload = json.loads(lines[0])
        errors = list(_validator(schema_path, op.kind).iter_errors(payload))
        if errors:
            return f"schema: {errors[0].message}"
        return _cli_semantics(op, payload)

    return check


def _cli_semantics(op: Op, payload: dict) -> str | None:
    n, args = op.n, op.extra["args"]
    top = ref.rank_cells(n, args[0])
    if op.kind == "dim" and payload["dim"] != ref.dimension(n, args[0]):
        return "dim differs from the reference"
    if op.kind == "rank":
        rows = payload["rank_matrix"]
        cells = tuple(rows[i][j] for i in range(n) for j in range(i + 1, n))
        if cells != top:
            return "rank matrix differs from the reference"
    if op.kind == "leq" and payload["leq"] != ref.below(top, ref.rank_cells(n, args[1])):
        return "leq differs from the reference"
    if op.kind in ("desc", "anc", "cover"):
        for move in payload["moves"]:
            pairs = _parse_pairs(move["target"])
            cells = ref.rank_cells(n, pairs)
            lower, upper = (top, cells) if op.kind == "anc" else (cells, top)
            if cells == top or not ref.below(lower, upper):
                return f"{op.kind} target {move['target']} is on the wrong side"
            if op.kind != "cover" and len(pairs) != len(args[0]):
                return f"{op.kind} target {move['target']} changes the pair count"
    if op.kind == "inv2tab" and payload["tableau"] != ref.tableau_text(*op.extra["cols"]):
        return "inv2tab does not return the generating tableau"
    return None


def _parse_pairs(text: str) -> ref.Pairs:
    if text == "id":
        return ()
    return tuple(tuple(int(x) for x in chunk.split(",")) for chunk in text[1:-1].split(")("))


def _cli_ops(lib, data) -> list[Op]:
    cli = lib.cli
    check = _cli_check(os.path.join(os.path.dirname(lib.__file__), "schemas", "cli_output.schema.json"))
    ops = []
    for cmd, n, k, args, cols in data:
        argv = [cmd, *(ref.involution_text(p) for p in args), "--n", str(n), "--json"]

        def call(argv=argv):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        op = Op(cmd, n, k, call, check, lambda r: f"{r[0]} {r[1]}")
        op.extra.update(args=args, cols=cols)
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _oracle_ops(lib, data) -> list[Op]:
    oracle = lib.oracle
    return [
        Op(name, 0, 0, lambda name=name: oracle.verify_suite(name), _check_suite, _render_report)
        for name in oracle.suite_names()
    ]


def _check_suite(op: Op) -> str | None:
    report = op.result
    if report.suite != op.kind:
        return f"report names suite {report.suite}"
    if not report.passed:
        return f"{len(report.failures)} failures, first: {report.failures[0]}"
    return None


def _render_report(report) -> str:
    failures = " | ".join(str(f) for f in report.failures)
    return f"{report.suite} n<={report.n_max} checks={report.checks_run} failures={failures} notes={list(report.notes)}"


def oracle_gate(ops: list[Op]) -> str | None:
    """All 17 suites ran in order and their checks add up to the pinned total."""
    names = tuple(op.kind for op in ops)
    if names != ORACLE_SUITES:
        return f"suites {names} differ from {ORACLE_SUITES}"
    total = sum(op.result.checks_run for op in ops if op.error is None)
    if total != ORACLE_CHECKS:
        return f"oracle ran {total} checks, expected exactly {ORACLE_CHECKS}"
    return None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, int], Any]
    ops: Callable[[Any, Any], list[Op]]
    # Passes run on one load of the library before it is reloaded cold.  One
    # for workloads whose passes should each start as a new process does; more
    # where caches filling up over a long-running stream is part of the load.
    passes_per_load: int = 1
    # seed-independent inputs: the pinned digests hold for every seed
    fixed_inputs: bool = False
    gate: Callable[[list[Op]], str | None] | None = None
    # Latency percentiles over whole passes instead of ops: the oracle's 17
    # suites (7 ms to 17 s each) are too few and too unequal to be a latency
    # distribution, and a 0.1 s suite moves by a quarter with host noise.
    pass_latency: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle", lambda seed, index: None, _oracle_ops,
                 fixed_inputs=True, gate=oracle_gate, pass_latency=True),
        Workload("poset-queries", _poset_inputs, _poset_ops),
        # ~2 s of 0.1 s passes per load; a reload per pass would cost more than the pass
        Workload("tableau-queries", _tableau_inputs, _tableau_ops, passes_per_load=20),
        # ~8 s and ~2 800 new rank_matrix cache entries per load: a long-running stream
        Workload("cli-stream", _cli_inputs, _cli_ops, passes_per_load=16),
    )
}
