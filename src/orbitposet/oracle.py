"""Brute-force re-verification of every structural claim at small rank.

Each suite recomputes a family of facts by an independent route (full
enumeration, all-pairs comparisons, explicit chain walking, literal subset
criteria) and compares against the library implementations.  A suite never
uses the formula it is checking to produce its own expected values: chain
lengths are walked, cover sets come from all-pairs order scans, tableau
counts come from the hook-length product, involution counts from the
classical recurrence.

Each suite checks every cycle count k at every rank up to ``n_max`` (its
own default unless given; ``--n`` on the CLI).  ``max_n`` (``--max-n``)
lifts the suite's feasibility guard for one call.  Run everything from the
command line with ``orbitposet verify --all``.

A check passes its witness as a zero-argument callable, and the text is
built only for a check that fails: the passing checks, which are nearly
all of them, format nothing.

Each table's per-element library answers (rank matrices, descendants,
tableau images, dimensions) are computed once and read by position, and
every element a check is about still reaches the library function under
test.  An order table holds one int per element: its down-set by all-pairs
``leq`` as position bits.  It is built per suite call, so a patched ``leq``
cannot leave it stale, and covers and the order axioms are bit operations.

Every walk over the order (cover chains, descendant reachability) is one
pass over a linear extension of the all-pairs table, so no oracle function
recurses, and a table that is not a partial order fails checks instead of
raising.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import asdict, dataclass
from functools import reduce
from math import factorial
from operator import or_
from typing import Callable, Iterator

from .errors import UnknownSuite
from .involutions import (
    Involution,
    all_involutions,
    delete_pair,
    dimension,
    project,
    sigma_o,
)
from .limits import ALL_PAIRS_MAX_N, SINGLE_PASS_MAX_N, check_guard
from .moves import (
    KIND_CROSS_DOWN,
    KIND_CROSS_UP,
    KIND_MOVE_DOWN,
    KIND_MOVE_LEFT,
    KIND_MOVE_RIGHT,
    KIND_MOVE_UP,
    KIND_SWAP_DOWN,
    KIND_SWAP_UP,
    ancestor_moves,
    ancestors,
    cover,
    cross_down,
    cross_up,
    descendant_moves,
    descendants,
    move_down,
    move_left,
    move_right,
    move_up,
    swap_down,
    swap_up,
)
from .poset import closure, depth, intersect
from .rank_matrices import RankMatrix, from_rank_matrix, is_valid, leq, meet, rank_matrix
from .rs import find_rs_witness, rs_pair, rs_word
from .tableaux import (
    TwoColumnTableau,
    change_candidates_high,
    change_candidates_low,
    change_rule_partners,
    codim1_partners,
    enumerate_tableaux,
    sigma_T,
    sigma_pairs_by_b,
    tableau_of,
)


# ---------------------------------------------------------------------------
# Independent counting oracles
# ---------------------------------------------------------------------------

def involution_number(n: int) -> int:
    """Number of involutions of rank n via a(n) = a(n-1) + (n-1)a(n-2)."""
    a, b = 1, 1  # a(0), a(1)
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b


def involution_number_k(n: int, k: int) -> int:
    """Number of involutions of rank n with exactly k pairs."""
    return factorial(n) // (2**k * factorial(k) * factorial(n - 2 * k))


def hook_length_count(n: int, k: int) -> int:
    """Standard tableaux with column lengths (n-k, k), by hook lengths."""
    row_shape = [2] * k + [1] * (n - 2 * k)
    col_shape = [len(row_shape), k] if k else [len(row_shape)]
    product = 1
    for r, row_len in enumerate(row_shape):
        for c in range(row_len):
            arm = row_len - c - 1
            leg = col_shape[c] - r - 1
            product *= arm + leg + 1
    return factorial(n) // product


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Failure:
    claim: str
    witness: str
    expected: str
    got: str

    def __str__(self) -> str:
        return f"{self.claim} | witness {self.witness} | expected {self.expected} | got {self.got}"


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    n_max: int
    checks_run: int
    failures: tuple[Failure, ...]
    notes: tuple[str, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        """No failures, and at least one check ran: an empty range proves nothing."""
        return self.checks_run > 0 and not self.failures

    def to_json_dict(self) -> dict:
        fields = asdict(self)  # keeps the tuples; JSON wants lists
        return fields | {
            "failures": list(fields["failures"]),
            "notes": list(fields["notes"]),
            "passed": self.passed,
        }


class _Recorder:
    """Collects one suite's checks.  ``checks`` (reported as ``checks_run``)
    counts checks, never failures: a check that fails is still one check.

    ``witness`` is a zero-argument callable returning the witness text.  It
    is called only when the check fails, and inside the call, so it reads
    the loop variables of the check that failed."""

    def __init__(self) -> None:
        self.checks = 0
        self.failures: list[Failure] = []
        self.notes: list[str] = []

    def check(self, ok: bool, claim: str, witness: Callable[[], str], expected, got) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(Failure(claim, witness(), str(expected), str(got)))

    def holds(self, ok: bool, claim: str, witness: Callable[[], str]) -> None:
        """One check that ``claim`` is true of ``witness``."""
        self.check(ok, claim, witness, True, False)

    def equal(self, expected, got, claim: str, witness: Callable[[], str]) -> None:
        self.check(expected == got, claim, witness, expected, got)

    def note(self, message: str) -> None:
        self.notes.append(message)


# ---------------------------------------------------------------------------
# All-pairs ground truth
# ---------------------------------------------------------------------------

def _strictly_below(els: tuple[Involution, ...]) -> list[int]:
    """What lies strictly below each element of ``els``, by all-pairs ``leq``:
    bit j of entry i is set when ``els[j] < els[i]``.  ``els`` holds distinct
    elements, so "not x itself" is a test on the position.
    """
    mats = [rank_matrix(e) for e in els]
    return [sum(1 << j for j, m in enumerate(mats) if j != i and leq(m, top)) for i, top in enumerate(mats)]


def _positions(bits: int) -> list[int]:
    """The set bits of ``bits``, lowest first."""
    return [j for j, digit in enumerate(reversed(bin(bits))) if digit == "1"]


def _members(els: tuple[Involution, ...], bits: int) -> set[Involution]:
    return {els[j] for j in _positions(bits)}


def _covers(below: list[int]) -> list[int]:
    """Covers read off a down-closed table of position bitsets: what lies
    below x and below nothing else that lies below x."""
    return [down & ~reduce(or_, [below[j] for j in _positions(down)], 0) for down in below]


def brute_covers(n: int, max_n: int | None = None) -> dict[Involution, set[Involution]]:
    """Cover relation computed the slow way: all-pairs order comparisons only."""
    check_guard(n, ALL_PAIRS_MAX_N, max_n)
    els = all_involutions(n)
    return {x: _members(els, c) for x, c in zip(els, _covers(_strictly_below(els)))}


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _suite_counts(rec: _Recorder, n_max: int) -> None:
    """Enumeration is complete, canonical, duplicate-free, in stable order."""
    for n in range(1, n_max + 1):
        els = list(all_involutions(n))
        rec.equal(involution_number(n), len(els), "involution count", lambda: f"n={n}")
        rec.equal(len(set(els)), len(els), "no duplicates", lambda: f"n={n}")
        keys = [tuple(x for p in e.pairs for x in p) for e in els]
        rec.equal(sorted(keys), keys, "flattened lexicographic order", lambda: f"n={n}")
        total = 0
        for k in range(n // 2 + 1):
            count = len(all_involutions(n, k))
            rec.equal(involution_number_k(n, k), count, "count by pair number", lambda: f"n={n} k={k}")
            total += count
        rec.equal(len(els), total, "counts partition the total", lambda: f"n={n}")


def _suite_dimension(rec: _Recorder, n_max: int) -> None:
    """Dimension bound, minimal and maximal orbit facts."""
    for n in range(1, n_max + 1):
        els = all_involutions(n)
        mats = [rank_matrix(e) for e in els]
        for k in range(n // 2 + 1):
            base = sigma_o(n, k)
            base_mat = rank_matrix(base)
            rec.equal(k * (k + 1) // 2, dimension(base), "minimal orbit dimension", lambda: f"n={n} k={k}")
            rec.equal(set(), descendants(base), "minimal orbit has no descendants", lambda: f"n={n} k={k}")
            for e, m in zip(els, mats):
                if e.length >= k:
                    rec.holds(leq(base_mat, m), "minimal orbit below every longer element", lambda: f"n={n} k={k} sigma={e}")
            same = all_involutions(n, k)
            dims = [dimension(e) for e in same]
            maximal = {e for e, d in zip(same, dims) if d == k * (n - k)}
            images = {sigma_T(t) for t in enumerate_tableaux(n, k)}
            rec.equal(images, maximal, "maximal orbits are tableau images", lambda: f"n={n} k={k}")
            no_desc = {e for e in same if not descendants(e)}
            rec.equal({base}, no_desc, "only the minimal orbit lacks descendants", lambda: f"n={n} k={k}")
            no_anc = {e for e in same if not ancestors(e)}
            rec.equal(maximal, no_anc, "only maximal orbits lack ancestors", lambda: f"n={n} k={k}")
            for e, d in zip(same, dims):
                rec.check(0 <= d <= k * (n - k), "dimension bound", lambda: f"n={n} sigma={e}", f"0..{k * (n - k)}", d)
    # the minimal-orbit dimension formula is cheap enough to push further
    for n in range(max(n_max, 0) + 1, 13):
        for k in range(n // 2 + 1):
            rec.equal(k * (k + 1) // 2, dimension(sigma_o(n, k)), "minimal orbit dimension", lambda: f"n={n} k={k}")


def _suite_rank(rec: _Recorder, n_max: int) -> None:
    """Rank-matrix recovery, validity of images, window law, soundness."""
    for n in range(1, n_max + 1):
        for e in all_involutions(n):
            r = rank_matrix(e)
            rec.equal(e, from_rank_matrix(r), "recovery roundtrip", lambda: f"n={n} sigma={e}")
            rec.holds(is_valid(r), "images are valid", lambda: f"n={n} sigma={e}")
            rec.equal(e.length, r.entry(1, n) if n > 1 else 0, "corner entry is the pair count", lambda: f"n={n} sigma={e}")
    for n in range(2, min(n_max, 6) + 1):
        windows = _windows(n)
        for e in all_involutions(n):
            cells = rank_matrix(e).cells
            if len(cells) != len(windows):  # fails every window; zip would cut it short
                cells = (None,) * len(windows)
            for (i, j), got in zip(windows, cells):
                rec.equal(project(e, i, j).length, got, "window law", lambda: f"n={n} sigma={e} window=({i},{j})")
    for n in range(1, min(n_max, 6) + 1):
        images = {rank_matrix(e) for e in all_involutions(n)}
        valid = {r for r in _step_matrices(n) if is_valid(r)}
        rec.equal(images, valid, "validity characterises exactly the images", lambda: f"n={n}")
    rng = random.Random(20240216)
    for n in range(max(n_max, 0) + 1, 13):
        for _ in range(40):
            e = _random_involution(rng, n)
            rec.equal(e, from_rank_matrix(rank_matrix(e)), "recovery roundtrip (spot)", lambda: f"n={n} sigma={e}")


def _windows(n: int) -> list[tuple[int, int]]:
    """The windows ``(i, j)``, ``i < j``, in the row-by-row order of ``RankMatrix.cells``."""
    return list(itertools.combinations(range(1, n + 1), 2))


def _random_involution(rng: random.Random, n: int) -> Involution:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    k = rng.randint(0, n // 2)
    pairs = [tuple(sorted((values[2 * i], values[2 * i + 1]))) for i in range(k)]
    return Involution(n, tuple(sorted(pairs)))


def _step_matrices(n: int) -> list[RankMatrix]:
    """Every strictly-upper matrix with entries in ``0..n // 2`` that step by
    0 or 1 when the window grows by one row or column (the search space for
    validity: no window holds more than ``n // 2`` pairs).

    Cells are filled by growing window, one layer per cell, so both inner
    neighbours of a cell are filled before it; a neighbour on the diagonal
    (slot ``None``) reads 0.  Each layer extends every partial filling in
    order, so the fillings come out in lexicographic order.
    """
    order = [(i, i + gap) for gap in range(1, n) for i in range(1, n - gap + 1)]
    slot = {cell: s for s, cell in enumerate(order)}
    inner = [(slot.get((i + 1, j)), slot.get((i, j - 1))) for i, j in order]
    row_major = [slot[(i, j)] for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    layer: list[tuple[int, ...]] = [()]
    for below, beside in inner:
        grown = []
        for values in layer:
            down = 0 if below is None else values[below]
            left = 0 if beside is None else values[beside]
            step = range(max(down, left), min(down + 1, left + 1, n // 2) + 1)
            grown += [values + (v,) for v in step]
        layer = grown
    return [RankMatrix(n, tuple(values[s] for s in row_major)) for values in layer]


def _suite_order(rec: _Recorder, n_max: int) -> None:
    """Partial-order axioms and the literal triangle criterion.

    The axiom scans read one table, ``up[a]`` with bit b set when
    ``leq(a, b)``: antisymmetry and transitivity are bit operations on it.
    They stay capped (n <= 6 and n <= 5) so a raised range does not blow up;
    reflexivity follows the requested range.
    """
    for n in range(1, n_max + 1):
        els = list(all_involutions(n))
        mats = [rank_matrix(e) for e in els]
        for e, m in zip(els, mats):
            rec.holds(leq(m, m), "reflexive", lambda: f"n={n} sigma={e}")
        pos = range(len(els))
        if n <= 6:
            up = [sum(1 << b for b, top in enumerate(mats) if leq(m, top)) for m in mats]
            two_way = [(els[a], els[b]) for a in pos for b in _positions(up[a] & ~(1 << a)) if up[b] >> a & 1]
            rec.equal([], two_way, "antisymmetric", lambda: f"n={n}")
        if n <= 5:
            # a <= b <= c with not a <= c: c is above b and not above a
            broken = [(els[a], els[b], els[c]) for a in pos for b in _positions(up[a]) for c in _positions(up[b] & ~up[a])]
            rec.equal([], broken, "transitive", lambda: f"n={n}")
    for n in range(1, min(n_max, 5) + 1):
        short = [e for e in all_involutions(n) if e.length <= 2]
        mats = [rank_matrix(e) for e in short]
        for lower, lower_mat in zip(short, mats):
            for upper, upper_mat in zip(short, mats):
                rec.equal(
                    leq(lower_mat, upper_mat),
                    _triangle_criterion(lower, upper),
                    "triangle-subset criterion matches the order",
                    lambda: f"n={n} lower={lower} upper={upper}",
                )


def _triangle_criterion(lower: Involution, upper: Involution) -> bool:
    """Literal reading: every corner triangle spanned by a subset of the
    lower element admits a subset of the upper element whose triangle fits
    inside and captures at least as many points.

    Only nonempty subsets are read.  The empty lower subset needs 0 points,
    which the empty upper subset always captures; a nonempty lower subset
    needs at least its own pairs, which the empty upper subset never meets.
    """

    def triangles(pairs: tuple) -> Iterator[tuple[int, int]]:
        for r in range(1, len(pairs) + 1):
            for subset in itertools.combinations(pairs, r):
                entries = [x for p in subset for x in p]
                yield min(entries), max(entries)

    def inside(pairs: tuple, x: int, y: int) -> int:
        return sum(1 for a, b in pairs if x <= a and b <= y)

    def admitted(x: int, y: int) -> bool:
        need = inside(lower.pairs, x, y)
        return any(
            x <= u and v <= y and inside(upper.pairs, u, v) >= need
            for u, v in triangles(upper.pairs)
        )

    return all(admitted(x, y) for x, y in triangles(lower.pairs))


def _suite_delete(rec: _Recorder, n_max: int) -> None:
    """Deleting one pair lowers exactly the window counts that contained it."""
    for n in range(1, n_max + 1):
        windows = _windows(n)
        for e in all_involutions(n):
            cells = rank_matrix(e).cells
            for s in range(1, e.length + 1):
                i_s, j_s = e.pairs[s - 1]
                shorter = rank_matrix(delete_pair(e, s)).cells
                # equal lengths first: zip would cut a wrong-length tuple short
                ok = len(cells) == len(shorter) == len(windows) and all(
                    a - b == (i <= i_s and j >= j_s)
                    for (i, j), a, b in zip(windows, cells, shorter)
                )
                rec.holds(ok, "one-pair deletion rank delta", lambda: f"n={n} sigma={e} s={s}")


# Each tag's inverse law: its claim, the inverse move, and which new pair of
# the target anchors the inverse (the smaller for move/swap, the larger for
# cross).
_INVERSES = {
    KIND_MOVE_DOWN: ("vertical moves invert", move_up, min),
    KIND_MOVE_UP: ("vertical moves invert", move_down, min),
    KIND_MOVE_RIGHT: ("horizontal moves invert", move_left, min),
    KIND_MOVE_LEFT: ("horizontal moves invert", move_right, min),
    KIND_CROSS_DOWN: ("uncross inverts", cross_up, max),
    KIND_CROSS_UP: ("recross inverts", cross_down, max),
    KIND_SWAP_DOWN: ("nested swap inverts", swap_up, min),
    KIND_SWAP_UP: ("crossing swap inverts", swap_down, min),
}
_FAMILIES = {
    "down": (KIND_MOVE_DOWN, KIND_MOVE_RIGHT, KIND_CROSS_DOWN, KIND_SWAP_DOWN),
    "up": (KIND_MOVE_UP, KIND_MOVE_LEFT, KIND_CROSS_UP, KIND_SWAP_UP),
}


def _suite_moves(rec: _Recorder, n_max: int) -> None:
    """Inverse laws, direction law, and disjointness of the four families."""
    for n in range(1, n_max + 1):
        for e in all_involutions(n):
            mat = rank_matrix(e)
            for way, outcomes in (("down", descendant_moves(e)), ("up", ancestor_moves(e))):
                sets: dict[str, set[Involution]] = {kind: set() for kind in _FAMILIES[way]}
                for m in outcomes:
                    sets[m.kind].add(m.target)
                    claim, inverse, pick = _INVERSES[m.kind]
                    anchor = pick(set(m.target.pairs) - set(e.pairs))
                    got = inverse(m.target, m.target.pairs.index(anchor) + 1)
                    ok = e in got if isinstance(got, set) else e == got
                    rec.check(ok, claim, lambda: f"n={n} sigma={e} {m.kind} at {m.source}", e, got)
                for family, members in sets.items():
                    for target in members:
                        lo, hi = (rank_matrix(target), mat) if way == "down" else (mat, rank_matrix(target))
                        rec.holds(leq(lo, hi) and target != e, f"{way}-moves go strictly {way}", lambda: f"n={n} sigma={e} family={family} target={target}")
                for (fam_a, set_a), (fam_b, set_b) in itertools.combinations(sets.items(), 2):
                    rec.equal(set(), set_a & set_b, f"{way} families disjoint ({fam_a}/{fam_b})", lambda: f"n={n} sigma={e}")


def _suite_descendants(rec: _Recorder, n_max: int) -> None:
    """Move-generated descendants equal both order-theoretic descriptions."""
    for n in range(1, n_max + 1):
        for k in range(n // 2 + 1):
            els = all_involutions(n, k)
            below = _strictly_below(els)
            dims = [dimension(e) for e in els]
            for e, drop, down, lower in zip(els, dims, below, _covers(below)):
                by_dim = {els[j] for j in _positions(down) if dims[j] == drop - 1}
                moved = descendants(e)
                rec.equal(_members(els, lower), moved, "descendants are the same-length covers", lambda: f"n={n} sigma={e}")
                rec.equal(by_dim, moved, "descendants are the dimension-drop-one set", lambda: f"n={n} sigma={e}")


def _suite_cover(rec: _Recorder, n_max: int) -> None:
    """The graded cover equals the all-pairs cover; covers drop one level."""
    for n in range(1, n_max + 1):
        els = all_involutions(n)
        dims = [dimension(e) for e in els]
        for e, dim, truth in zip(els, dims, _covers(_strictly_below(els))):
            rec.equal(_members(els, truth), cover(e), "cover matches all-pairs scan", lambda: f"n={n} sigma={e}")
            for j in _positions(truth):
                rec.equal(1, dim - dims[j], "covers drop dimension by one", lambda: f"n={n} sigma={e} lower={els[j]}")


def _suite_depth(rec: _Recorder, n_max: int) -> None:
    """All cover chains between comparable elements have the same walked
    length, and it equals the dimension difference."""
    for n in range(1, n_max + 1):
        els = all_involutions(n)
        below = _strictly_below(els)
        covers = [_positions(c) for c in _covers(below)]
        dims = [dimension(e) for e in els]
        pos = range(len(els))
        # by down-set size: a strictly smaller element has a strictly smaller
        # down-set, so every cover of x comes before x
        order = sorted(pos, key=lambda x: below[x].bit_count())
        # chains[target][x]: (shortest, longest) cover chain walked from x down to target
        chains: list[dict[int, tuple[int, int]]] = []
        for target in pos:
            chains.append(walked := {target: (0, 0)})
            for x in order:
                if below[x] >> target & 1:
                    rest = [walked[c] for c in covers[x] if c in walked]
                    if rest:
                        walked[x] = (1 + min(lo for lo, _ in rest), 1 + max(hi for _, hi in rest))
            for x in pos:
                if below[x] >> target & 1:
                    gap, got = dims[x] - dims[target], walked.get(x)
                    claim = "all chains have length equal to the dimension gap"
                    rec.check(got == (gap, gap), claim, lambda: f"n={n} upper={els[x]} lower={els[target]}", gap, got)
        bases = [els.index(sigma_o(n, k)) for k in range(n // 2 + 1)]
        for i, x in enumerate(els):
            for k in range(x.length + 1):
                if i == bases[k]:
                    rec.equal(0, depth(x, k), "depth of the minimal element", lambda: f"n={n} k={k}")
                else:
                    chain = chains[bases[k]].get(i, (None,))
                    rec.equal(chain[0], depth(x, k), "depth equals walked chain length", lambda: f"n={n} sigma={x} k={k}")


def _suite_closure(rec: _Recorder, n_max: int) -> None:
    """The rank-bounded search behind ``closure`` equals the enumeration filter."""
    for n in range(1, n_max + 1):
        els = all_involutions(n)
        for i, (e, down) in enumerate(zip(els, _strictly_below(els))):
            rec.equal(_members(els, down | 1 << i), closure(e), "closure by rank-bounded search equals filter", lambda: f"n={n} sigma={e}")


def _suite_reachability(rec: _Recorder, n_max: int) -> None:
    """Repeated one-level degenerations reach the whole same-length down-set."""
    for n in range(1, n_max + 1):
        for k in range(n // 2 + 1):
            els = all_involutions(n, k)
            below = _strictly_below(els)
            # by down-set size, as in the depth walk, so a descendant below e
            # is passed before e; one not passed yet, or outside the table,
            # reaches only itself: it already makes `reached` differ
            reached: dict[Involution, set[Involution]] = {}
            for i in sorted(range(len(els)), key=lambda x: below[x].bit_count()):
                e = els[i]
                reached[e] = {e}.union(*(reached.get(d, {d}) for d in descendants(e)))
            for i, (e, down) in enumerate(zip(els, below)):
                rec.equal(_members(els, down | 1 << i), reached[e], "descendant steps reach the down-set", lambda: f"n={n} sigma={e}")


def _suite_codim(rec: _Recorder, n_max: int) -> None:
    """Intersection decomposition: irreducibility test, component sanity."""
    for n in range(1, n_max + 1):
        reducible = []
        for k in range(n // 2 + 1):
            els = all_involutions(n, k)
            mats = [rank_matrix(e) for e in els]
            for ia, ib in itertools.combinations_with_replacement(range(len(els)), 2):
                a, b = els[ia], els[ib]
                result = intersect(a, b)
                comp_mats = [rank_matrix(comp) for comp in result.components]
                one = len(result.components) == 1
                rec.equal(result.irreducible, one, "irreducible exactly when one component", lambda: f"n={n} a={a} b={b}")
                if result.irreducible:
                    rec.equal(result.meet, comp_mats[0], "irreducible component realises the meet", lambda: f"n={n} a={a} b={b}")
                for comp, m in zip(result.components, comp_mats):
                    below_both = leq(m, mats[ia]) and leq(m, mats[ib])
                    rec.holds(below_both, "components lie below both inputs", lambda: f"n={n} a={a} b={b} comp={comp}")
                for x, y in itertools.combinations(comp_mats, 2):
                    apart = not leq(x, y) and not leq(y, x)
                    rec.holds(apart, "components are incomparable", lambda: f"n={n} a={a} b={b}")
                if a != b and not result.irreducible:
                    reducible.append((a, b, result))
        if reducible:
            a, b, result = reducible[0]
            comps = ",".join(str(c) for c in result.components)
            rec.note(
                f"n={n}: {len(reducible)} reducible equal-length intersections; "
                f"first {a} with {b}: components {comps}"
            )


def _suite_ancestors(rec: _Recorder, n_max: int) -> None:
    """Every one-level degeneration of a maximal orbit has exactly two
    maximal ancestors, and their meet realises it."""
    for n in range(1, n_max + 1):
        for k in range(n // 2 + 1):
            top_dim = k * (n - k)
            tabs = list(enumerate_tableaux(n, k))
            sigmas = [sigma_T(tab) for tab in tabs]
            down = [descendants(sig) for sig in sigmas]
            down_of = dict(zip(sigmas, down))
            for (a, down_a), (b, down_b) in itertools.combinations(zip(sigmas, down), 2):
                # for maximal orbits, codimension one is the same thing as a
                # shared one-level degeneration
                rec.equal(
                    bool(down_a & down_b),
                    intersect(a, b).codim == 1,
                    "codim one iff shared degeneration (maximal orbits)",
                    lambda: f"n={n} a={a} b={b}",
                )
            for tab, sig, below in zip(tabs, sigmas, down):
                for lower in below:
                    anc = ancestors(lower)
                    rec.equal(2, len(anc), "exactly two ancestors", lambda: f"n={n} T={tab} lower={lower}")
                    rec.holds(sig in anc, "original orbit is an ancestor", lambda: f"n={n} T={tab} lower={lower}")
                    others = [a for a in anc if a != sig]
                    if len(others) != 1:
                        continue
                    other = others[0]
                    rec.equal(top_dim, dimension(other), "second ancestor is maximal", lambda: f"n={n} T={tab} lower={lower}")
                    rec.holds(tableau_of(other) is not None, "second ancestor is a tableau image", lambda: f"n={n} lower={lower}")
                    joint = meet(rank_matrix(sig), rank_matrix(other))
                    rec.holds(is_valid(joint), "meet of the two ancestors is valid", lambda: f"n={n} T={tab} lower={lower}")
                    rec.equal(rank_matrix(lower), joint, "meet realises the degeneration", lambda: f"n={n} T={tab} lower={lower}")
                    rec.equal(
                        {lower},
                        below & (down_of[other] if other in down_of else descendants(other)),
                        "the two ancestors share exactly this descendant",
                        lambda: f"n={n} T={tab} lower={lower}",
                    )
                    result = intersect(sig, other)
                    rec.holds(result.irreducible, "codim-1 intersection of maximal orbits is irreducible", lambda: f"n={n} T={tab} lower={lower}")
                    rec.equal((lower,), result.components, "intersection component is the degeneration", lambda: f"n={n} T={tab} lower={lower}")


def _suite_tableaux(rec: _Recorder, n_max: int) -> None:
    """Tableau correspondence: bijection, counts, gap parity, interval law."""
    for n in range(1, n_max + 1):
        for k in range(n // 2 + 1):
            tabs = list(enumerate_tableaux(n, k))
            rec.equal(hook_length_count(n, k), len(tabs), "tableau count matches hook lengths", lambda: f"n={n} k={k}")
            images = {}
            for tab in tabs:
                sig = sigma_T(tab)
                images[tab] = sig
                rec.equal(k * (n - k), dimension(sig), "tableau image has maximal dimension", lambda: f"n={n} T={tab}")
                rec.equal(tab, tableau_of(sig), "tableau roundtrip", lambda: f"n={n} T={tab}")
                by_b = sigma_pairs_by_b(tab)
                for s, (i_s, b_s) in enumerate(by_b):
                    rec.holds((b_s - i_s) % 2 == 1, "pair gaps are odd", lambda: f"n={n} T={tab} pair=({i_s},{b_s})")
                    if i_s != b_s - 1:
                        earlier = {x for q in range(s) for x in by_b[q]}
                        rec.holds(
                            all(p in earlier for p in range(i_s + 1, b_s)),
                            "interior of a long pair is used by earlier pairs",
                            lambda: f"n={n} T={tab} pair=({i_s},{b_s})",
                        )
            rec.equal(len(set(images.values())), len(tabs), "tableau map is injective", lambda: f"n={n} k={k}")
            maximal = {e for e in all_involutions(n, k) if dimension(e) == k * (n - k)}
            rec.equal(maximal, set(images.values()), "images exhaust the maximal orbits", lambda: f"n={n} k={k}")


def _suite_partners(rec: _Recorder, n_max: int) -> None:
    """The two exchange rules produce exactly the codimension-one partners."""
    for n in range(1, n_max + 1):
        for k in range(n // 2 + 1):
            tabs = list(enumerate_tableaux(n, k))
            via_thm = {tab: codim1_partners(tab) for tab in tabs}
            for tab in tabs:
                via_change = change_rule_partners(tab)
                rec.equal(via_thm[tab], via_change, "exchange rules match the ancestor route", lambda: f"n={n} T={tab}")
                for i, b in change_candidates_low(tab):
                    rec.holds((b - i) % 2 == 1, "low exchange has odd gap", lambda: f"n={n} T={tab} swap=({i},{b})")
                for a, bs in change_candidates_high(tab):
                    for b in bs:
                        rec.holds((a - b) % 2 == 1, "high exchange has odd gap", lambda: f"n={n} T={tab} swap=({a},{b})")
                for other in via_thm[tab]:
                    rec.holds(tab in via_thm[other], "partnership is symmetric", lambda: f"n={n} T={tab} S={other}")


def _suite_rs(rec: _Recorder, n_max: int) -> None:
    """Insertion bijectivity and the witness criterion."""
    for n in range(1, min(n_max, 7) + 1):
        for word in itertools.permutations(range(1, n + 1)):
            p_tab, q_tab = rs_pair(word)
            rec.equal(word, rs_word(p_tab, q_tab), "insertion roundtrip", lambda: f"word={list(word)}")
    for n in range(2, min(n_max, 6) + 1):
        for k in range(n // 2 + 1):
            tabs = list(enumerate_tableaux(n, k))
            sigmas = [sigma_T(tab) for tab in tabs]
            for (t_tab, t_sig), (s_tab, s_sig) in itertools.combinations(zip(tabs, sigmas), 2):
                witness = find_rs_witness(t_tab, s_tab)
                if witness is not None:
                    result = intersect(t_sig, s_sig)
                    rec.equal(1, result.codim, "witness implies codimension one", lambda: f"n={n} T={t_tab} S={s_tab}")
    for n in range(4, n_max + 1):
        tabs = list(enumerate_tableaux(n, 2))
        sigmas = [sigma_T(tab) for tab in tabs]
        for (t_tab, t_sig), (s_tab, s_sig) in itertools.combinations(zip(tabs, sigmas), 2):
            witness = find_rs_witness(t_tab, s_tab)
            codim_one = intersect(t_sig, s_sig).codim == 1
            rec.equal(
                codim_one,
                witness is not None,
                "two-pair shape: witness exactly at codimension one",
                lambda: f"n={n} T={t_tab} S={s_tab}",
            )


def _suite_experiments(rec: _Recorder, n_max: int) -> None:
    """Reported-only explorations; nothing here is asserted as a failure."""
    # beyond maximal orbits: does codimension one still mean a shared descendant?
    for n in range(1, min(n_max, 6) + 1):
        agreements = disagreements = 0
        examples = []
        for k in range(n // 2 + 1):
            els = all_involutions(n, k)
            rows = [(e, dimension(e), descendants(e)) for e in els]
            for (a, dim_a, down_a), (b, dim_b, down_b) in itertools.combinations(rows, 2):
                if dim_a != dim_b:
                    continue
                codim_one = intersect(a, b).codim == 1
                shared = bool(down_a & down_b)
                if codim_one == shared:
                    agreements += 1
                else:
                    disagreements += 1
                    if len(examples) < 3:
                        examples.append(f"{a} vs {b} (codim1={codim_one}, shared={shared})")
                rec.checks += 1
        line = (
            f"n={n}: equal-dimension pairs, codim-1 vs shared-descendant: "
            f"{agreements} agree, {disagreements} disagree"
        )
        if examples:
            line += "; e.g. " + "; ".join(examples)
        rec.note(line)
    # codimension-one intersections of maximal orbits: irreducibility evidence
    # sigmas[n, k]: each tableau with its image, shared with the last part
    sigmas: dict[tuple[int, int], list[tuple[TwoColumnTableau, Involution]]] = {}
    for n in range(2, n_max + 1):
        total = irreducible_count = 0
        for k in range(n // 2 + 1):
            sigmas[n, k] = [(tab, sigma_T(tab)) for tab in enumerate_tableaux(n, k)]
            for (_, t_sig), (_, s_sig) in itertools.combinations(sigmas[n, k], 2):
                result = intersect(t_sig, s_sig)
                if result.codim != 1:
                    continue
                total += 1
                if result.irreducible:
                    irreducible_count += 1
                rec.checks += 1
        rec.note(
            f"n={n}: {irreducible_count}/{total} codim-1 maximal intersections irreducible"
        )
    # witness-free codimension-one pairs for three or more pairs of cycles
    def shared_descendant_pairs() -> Iterator[tuple]:
        for n in range(6, n_max + 1):
            for k in range(3, n // 2 + 1):
                rows = [(tab, descendants(sig)) for tab, sig in sigmas[n, k]]
                for (t_tab, t_down), (s_tab, s_down) in itertools.combinations(rows, 2):
                    if t_down & s_down:
                        rec.checks += 1
                        yield n, k, t_tab, s_tab

    found = next(((n, k, t, s) for n, k, t, s in shared_descendant_pairs() if find_rs_witness(t, s) is None), None)
    if found:
        n, k, t_tab, s_tab = found
        rec.note(f"smallest witness-free codim-1 pair with k>=3: n={n} k={k} T={t_tab} S={s_tab}")
    else:
        rec.note(f"no witness-free codim-1 pair with k>=3 found for n<={n_max}")


# ---------------------------------------------------------------------------
# Registry and entry points
# ---------------------------------------------------------------------------

SUITES: dict[str, tuple] = {
    "counts": (_suite_counts, 8, SINGLE_PASS_MAX_N),
    "dimension": (_suite_dimension, 8, SINGLE_PASS_MAX_N),
    "rank": (_suite_rank, 7, SINGLE_PASS_MAX_N),
    "order": (_suite_order, 5, ALL_PAIRS_MAX_N),
    "delete": (_suite_delete, 7, SINGLE_PASS_MAX_N),
    "moves": (_suite_moves, 7, SINGLE_PASS_MAX_N),
    "descendants": (_suite_descendants, 7, ALL_PAIRS_MAX_N),
    "cover": (_suite_cover, 6, ALL_PAIRS_MAX_N),
    "depth": (_suite_depth, 6, ALL_PAIRS_MAX_N),
    "closure": (_suite_closure, 6, ALL_PAIRS_MAX_N),
    "reachability": (_suite_reachability, 6, ALL_PAIRS_MAX_N),
    "codim": (_suite_codim, 6, ALL_PAIRS_MAX_N),
    "ancestors": (_suite_ancestors, 7, ALL_PAIRS_MAX_N),
    "tableaux": (_suite_tableaux, 8, SINGLE_PASS_MAX_N),
    "partners": (_suite_partners, 7, SINGLE_PASS_MAX_N),
    "rs": (_suite_rs, 7, ALL_PAIRS_MAX_N),
    "experiments": (_suite_experiments, 8, ALL_PAIRS_MAX_N),
}


def suite_names() -> list[str]:
    return list(SUITES)


def verify_suite(
    name: str, n_max: int | None = None, *, max_n: int | None = None
) -> VerificationReport:
    """Run one named suite and report; failures list stays empty on success."""
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    fn, default_n, cap = SUITES[name]
    n = default_n if n_max is None else n_max
    check_guard(n, cap, max_n)
    rec = _Recorder()
    start = time.perf_counter()
    fn(rec, n)
    elapsed = time.perf_counter() - start
    if rec.checks == 0:
        rec.note("no checks ran in this range, so the suite did not pass")
    return VerificationReport(
        suite=name,
        n_max=n,
        checks_run=rec.checks,
        failures=tuple(rec.failures),
        notes=tuple(rec.notes),
        elapsed=elapsed,
    )


def verify_all(n_max: int | None = None, *, max_n: int | None = None) -> list[VerificationReport]:
    """Run every suite (at its own default range unless n_max overrides)."""
    return [verify_suite(name, n_max, max_n=max_n) for name in SUITES]
