"""Brute-force re-verification of every structural claim at small rank.

Each suite recomputes a family of facts by an independent route (full
enumeration, all-pairs comparisons, explicit chain walking, literal subset
criteria) and compares against the library implementations.  A suite never
uses the formula it is checking to produce its own expected values: chain
lengths are walked, cover sets come from all-pairs order scans, tableau
counts come from the hook-length product, involution counts from the
classical recurrence.

Run everything from the command line with ``orbitposet verify --all``.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import asdict, dataclass
from math import factorial
from typing import Iterator

from .errors import BadRank, UnknownSuite
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
    k_max: int | None
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
    counts checks, never failures: a check that fails is still one check."""

    def __init__(self) -> None:
        self.checks = 0
        self.failures: list[Failure] = []
        self.notes: list[str] = []

    def check(self, ok: bool, claim: str, witness: str, expected, got) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(Failure(claim, witness, str(expected), str(got)))

    def holds(self, ok: bool, claim: str, witness: str) -> None:
        """One check that ``claim`` is true of ``witness``."""
        self.check(ok, claim, witness, True, False)

    def equal(self, expected, got, claim: str, witness: str) -> None:
        self.check(expected == got, claim, witness, expected, got)

    def note(self, message: str) -> None:
        self.notes.append(message)


def _ks(n: int, k_max: int | None) -> range:
    top = n // 2 if k_max is None else min(k_max, n // 2)
    return range(top + 1)


def _within(n: int, k_max: int | None) -> list[Involution]:
    """The involutions of rank n with at most k_max pairs, in stable order."""
    return [e for e in all_involutions(n) if k_max is None or e.length <= k_max]


# ---------------------------------------------------------------------------
# All-pairs ground truth
# ---------------------------------------------------------------------------

def _strictly_below(
    els: tuple[Involution, ...]
) -> dict[Involution, frozenset[Involution]]:
    """What lies strictly below each element of ``els``, by all-pairs ``leq``."""
    mats = {e: rank_matrix(e) for e in els}
    return {
        x: frozenset(y for y in els if y != x and leq(mats[y], mats[x])) for x in els
    }


def _covers(
    below: dict[Involution, frozenset[Involution]]
) -> dict[Involution, set[Involution]]:
    """Covers read off a down-closed table: what lies below x and below
    nothing else that lies below x."""
    return {
        x: set(members).difference(*(below[z] for z in members))
        for x, members in below.items()
    }


def brute_covers(
    n: int, max_n: int | None = None
) -> dict[Involution, set[Involution]]:
    """Cover relation computed the slow way: all-pairs order comparisons only."""
    check_guard(n, ALL_PAIRS_MAX_N, max_n)
    return _covers(_strictly_below(all_involutions(n)))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _suite_counts(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """Enumeration is complete, canonical, duplicate-free, in stable order."""
    for n in range(1, n_max + 1):
        els = list(all_involutions(n))
        rec.equal(involution_number(n), len(els), "involution count", f"n={n}")
        rec.equal(len(set(els)), len(els), "no duplicates", f"n={n}")
        keys = [tuple(x for p in e.pairs for x in p) for e in els]
        rec.equal(sorted(keys), keys, "flattened lexicographic order", f"n={n}")
        total = 0
        for k in _ks(n, k_max):
            count = len(all_involutions(n, k))
            rec.equal(involution_number_k(n, k), count, "count by pair number", f"n={n} k={k}")
            total += count
        if k_max is None:
            rec.equal(len(els), total, "counts partition the total", f"n={n}")


def _suite_dimension(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """Dimension bound, minimal and maximal orbit facts."""
    for n in range(1, n_max + 1):
        mats = {e: rank_matrix(e) for e in all_involutions(n)}
        for k in _ks(n, k_max):
            base = sigma_o(n, k)
            rec.equal(k * (k + 1) // 2, dimension(base), "minimal orbit dimension", f"n={n} k={k}")
            rec.equal(set(), descendants(base), "minimal orbit has no descendants", f"n={n} k={k}")
            for e in all_involutions(n):
                if e.length >= k:
                    rec.holds(leq(mats[base], mats[e]), "minimal orbit below every longer element", f"n={n} k={k} sigma={e}")
            maximal = {e for e in all_involutions(n, k) if dimension(e) == k * (n - k)}
            images = {sigma_T(t) for t in enumerate_tableaux(n, k)}
            rec.equal(images, maximal, "maximal orbits are tableau images", f"n={n} k={k}")
            no_desc = {e for e in all_involutions(n, k) if not descendants(e)}
            rec.equal({base}, no_desc, "only the minimal orbit lacks descendants", f"n={n} k={k}")
            no_anc = {e for e in all_involutions(n, k) if not ancestors(e)}
            rec.equal(maximal, no_anc, "only maximal orbits lack ancestors", f"n={n} k={k}")
            for e in all_involutions(n, k):
                d = dimension(e)
                rec.check(0 <= d <= k * (n - k), "dimension bound", f"n={n} sigma={e}", f"0..{k * (n - k)}", d)
    # the minimal-orbit dimension formula is cheap enough to push further
    for n in range(max(n_max, 0) + 1, 13):
        for k in _ks(n, k_max):
            rec.equal(k * (k + 1) // 2, dimension(sigma_o(n, k)), "minimal orbit dimension", f"n={n} k={k}")


def _suite_rank(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """Rank-matrix recovery, validity of images, window law, soundness."""
    for n in range(1, n_max + 1):
        for e in _within(n, k_max):
            r = rank_matrix(e)
            rec.equal(e, from_rank_matrix(r), "recovery roundtrip", f"n={n} sigma={e}")
            rec.holds(is_valid(r), "images are valid", f"n={n} sigma={e}")
            rec.equal(e.length, r.entry(1, n) if n > 1 else 0, "corner entry is the pair count", f"n={n} sigma={e}")
    for n in range(2, min(n_max, 6) + 1):
        for e in all_involutions(n):
            r = rank_matrix(e)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                rec.equal(project(e, i, j).length, r.entry(i, j), "window law", f"n={n} sigma={e} window=({i},{j})")
    for n in range(1, min(n_max, 6) + 1):
        images = {rank_matrix(e) for e in all_involutions(n)}
        valid = {r for r in _step_matrices(n) if is_valid(r)}
        rec.equal(images, valid, "validity characterises exactly the images", f"n={n}")
    rng = random.Random(20240216)
    for n in range(max(n_max, 0) + 1, 13):
        for _ in range(40):
            e = _random_involution(rng, n)
            rec.equal(e, from_rank_matrix(rank_matrix(e)), "recovery roundtrip (spot)", f"n={n} sigma={e}")


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

    Cells are filled by growing window, so both inner neighbours of a cell
    are filled before it; a neighbour on the diagonal (slot ``None``) reads 0.
    """
    order = [(i, i + gap) for gap in range(1, n) for i in range(1, n - gap + 1)]
    slot = {cell: s for s, cell in enumerate(order)}
    inner = [(slot.get((i + 1, j)), slot.get((i, j - 1))) for i, j in order]
    row_major = [slot[(i, j)] for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def fill(values: tuple[int, ...]) -> list[tuple[int, ...]]:
        if len(values) == len(order):
            return [values]
        down, left = (0 if s is None else values[s] for s in inner[len(values)])
        step = range(max(down, left), min(down + 1, left + 1, n // 2) + 1)
        return [done for v in step for done in fill(values + (v,))]

    return [RankMatrix(n, tuple(values[s] for s in row_major)) for values in fill(())]


def _suite_order(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """Partial-order axioms and the literal triangle criterion.

    The quadratic and cubic axiom scans stay capped (n <= 6 and n <= 5) so a
    raised range does not blow up; reflexivity follows the requested range.
    """
    for n in range(1, n_max + 1):
        els = list(all_involutions(n))
        mats = {e: rank_matrix(e) for e in els}
        for e in els:
            rec.holds(leq(mats[e], mats[e]), "reflexive", f"n={n} sigma={e}")
        if n <= 6:
            two_way = [
                (a, b) for a, b in itertools.permutations(els, 2)
                if leq(mats[a], mats[b]) and leq(mats[b], mats[a])
            ]
            rec.equal([], two_way, "antisymmetric", f"n={n}")
        if n <= 5:
            broken = [
                (a, b, c) for a, b, c in itertools.product(els, repeat=3)
                if leq(mats[a], mats[b]) and leq(mats[b], mats[c]) and not leq(mats[a], mats[c])
            ]
            rec.equal([], broken, "transitive", f"n={n}")
    for n in range(1, min(n_max, 5) + 1):
        short = [e for e in all_involutions(n) if e.length <= 2]
        mats = {e: rank_matrix(e) for e in short}
        for lower in short:
            for upper in short:
                rec.equal(
                    leq(mats[lower], mats[upper]),
                    _triangle_criterion(lower, upper),
                    "triangle-subset criterion matches the order",
                    f"n={n} lower={lower} upper={upper}",
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


def _suite_delete(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """Deleting one pair lowers exactly the window counts that contained it."""
    for n in range(1, n_max + 1):
        for e in _within(n, k_max):
            r = rank_matrix(e)
            for s in range(1, e.length + 1):
                i_s, j_s = e.pairs[s - 1]
                shorter = rank_matrix(delete_pair(e, s))
                ok = all(
                    r.entry(i, j) - shorter.entry(i, j) == (1 if i <= i_s and j >= j_s else 0)
                    for i, j in itertools.combinations(range(1, n + 1), 2)
                )
                rec.holds(ok, "one-pair deletion rank delta", f"n={n} sigma={e} s={s}")


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


def _suite_moves(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """Inverse laws, direction law, and disjointness of the four families."""
    for n in range(1, n_max + 1):
        for e in _within(n, k_max):
            mat = rank_matrix(e)
            for way, outcomes in (("down", descendant_moves(e)), ("up", ancestor_moves(e))):
                sets: dict[str, set[Involution]] = {kind: set() for kind in _FAMILIES[way]}
                for m in outcomes:
                    sets[m.kind].add(m.target)
                    claim, inverse, pick = _INVERSES[m.kind]
                    anchor = pick(set(m.target.pairs) - set(e.pairs))
                    got = inverse(m.target, m.target.pairs.index(anchor) + 1)
                    ok = e in got if isinstance(got, set) else e == got
                    rec.check(ok, claim, f"n={n} sigma={e} {m.kind} at {m.source}", e, got)
                for family, members in sets.items():
                    for target in members:
                        lo, hi = (rank_matrix(target), mat) if way == "down" else (mat, rank_matrix(target))
                        rec.holds(leq(lo, hi) and target != e, f"{way}-moves go strictly {way}", f"n={n} sigma={e} family={family} target={target}")
                for (fam_a, set_a), (fam_b, set_b) in itertools.combinations(sets.items(), 2):
                    rec.equal(set(), set_a & set_b, f"{way} families disjoint ({fam_a}/{fam_b})", f"n={n} sigma={e}")


def _suite_descendants(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """Move-generated descendants equal both order-theoretic descriptions."""
    for n in range(1, n_max + 1):
        for k in _ks(n, k_max):
            below = _strictly_below(all_involutions(n, k))
            covers = _covers(below)
            for e, members in below.items():
                by_dim = {x for x in members if dimension(e) - dimension(x) == 1}
                moved = descendants(e)
                rec.equal(covers[e], moved, "descendants are the same-length covers", f"n={n} sigma={e}")
                rec.equal(by_dim, moved, "descendants are the dimension-drop-one set", f"n={n} sigma={e}")


def _suite_cover(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """The graded cover equals the all-pairs cover; covers drop one level."""
    for n in range(1, n_max + 1):
        truth = _covers(_strictly_below(all_involutions(n)))
        for e in _within(n, k_max):
            rec.equal(truth[e], cover(e), "cover matches all-pairs scan", f"n={n} sigma={e}")
            for lower in truth[e]:
                rec.equal(1, dimension(e) - dimension(lower), "covers drop dimension by one", f"n={n} sigma={e} lower={lower}")


def _suite_depth(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """All cover chains between comparable elements have the same walked
    length, and it equals the dimension difference."""
    for n in range(1, n_max + 1):
        below = _strictly_below(all_involutions(n))
        covers = _covers(below)
        # chains[target][x]: (shortest, longest) cover chain walked from x down to target
        chains: dict[Involution, dict[Involution, tuple[int, int]]] = {}

        def walk(x: Involution, target: Involution) -> tuple[int, int]:
            memo = chains.setdefault(target, {})
            if x not in memo:
                rest = [
                    (0, 0) if c == target else walk(c, target)
                    for c in covers[x]
                    if c == target or target in below[c]
                ]
                memo[x] = (1 + min(lo for lo, _ in rest), 1 + max(hi for _, hi in rest))
            return memo[x]

        for target in below:
            for x, members in below.items():
                if target not in members:
                    continue
                lo, hi = walk(x, target)
                gap = dimension(x) - dimension(target)
                claim = "all chains have length equal to the dimension gap"
                rec.check(lo == hi == gap, claim, f"n={n} upper={x} lower={target}", gap, (lo, hi))
        for x in _within(n, k_max):
            for k in range(x.length + 1):
                base = sigma_o(n, k)
                if x == base:
                    rec.equal(0, depth(x, k), "depth of the minimal element", f"n={n} k={k}")
                else:
                    rec.equal(chains[base][x][0], depth(x, k), "depth equals walked chain length", f"n={n} sigma={x} k={k}")


def _suite_closure(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """The rank-bounded search behind ``closure`` equals the enumeration filter."""
    for n in range(1, n_max + 1):
        below = _strictly_below(all_involutions(n))
        for e in _within(n, k_max):
            rec.equal(below[e] | {e}, closure(e), "closure by rank-bounded search equals filter", f"n={n} sigma={e}")


def _suite_reachability(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """Repeated one-level degenerations reach the whole same-length down-set."""
    for n in range(1, n_max + 1):
        for k in _ks(n, k_max):
            below = _strictly_below(all_involutions(n, k))
            for e in below:
                reached = {e}
                frontier = [e]
                while frontier:
                    nxt = frontier.pop()
                    for d in descendants(nxt):
                        if d not in reached:
                            reached.add(d)
                            frontier.append(d)
                rec.equal(below[e] | {e}, reached, "descendant steps reach the down-set", f"n={n} sigma={e}")


def _suite_codim(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """Intersection decomposition: irreducibility test, component sanity."""
    for n in range(1, n_max + 1):
        reducible = []
        for k in _ks(n, k_max):
            els = list(all_involutions(n, k))
            mats = {e: rank_matrix(e) for e in els}
            for a, b in itertools.combinations_with_replacement(els, 2):
                result = intersect(a, b)
                one = len(result.components) == 1
                rec.equal(result.irreducible, one, "irreducible exactly when one component", f"n={n} a={a} b={b}")
                if result.irreducible:
                    realised = rank_matrix(result.components[0])
                    rec.equal(result.meet, realised, "irreducible component realises the meet", f"n={n} a={a} b={b}")
                for comp in result.components:
                    below_both = leq(rank_matrix(comp), mats[a]) and leq(rank_matrix(comp), mats[b])
                    rec.holds(below_both, "components lie below both inputs", f"n={n} a={a} b={b} comp={comp}")
                for x, y in itertools.combinations(result.components, 2):
                    apart = not leq(rank_matrix(x), rank_matrix(y)) and not leq(rank_matrix(y), rank_matrix(x))
                    rec.holds(apart, "components are incomparable", f"n={n} a={a} b={b}")
                if a != b and not result.irreducible:
                    reducible.append((a, b, result))
        if reducible:
            a, b, result = reducible[0]
            comps = ",".join(str(c) for c in result.components)
            rec.note(
                f"n={n}: {len(reducible)} reducible equal-length intersections; "
                f"first {a} with {b}: components {comps}"
            )


def _suite_ancestors(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """Every one-level degeneration of a maximal orbit has exactly two
    maximal ancestors, and their meet realises it."""
    for n in range(1, n_max + 1):
        for k in _ks(n, k_max):
            top_dim = k * (n - k)
            sigmas = [sigma_T(tab) for tab in enumerate_tableaux(n, k)]
            for a, b in itertools.combinations(sigmas, 2):
                # for maximal orbits, codimension one is the same thing as a
                # shared one-level degeneration
                rec.equal(
                    bool(descendants(a) & descendants(b)),
                    intersect(a, b).codim == 1,
                    "codim one iff shared degeneration (maximal orbits)",
                    f"n={n} a={a} b={b}",
                )
            for tab in enumerate_tableaux(n, k):
                sig = sigma_T(tab)
                for lower in descendants(sig):
                    anc = ancestors(lower)
                    rec.equal(2, len(anc), "exactly two ancestors", f"n={n} T={tab} lower={lower}")
                    rec.holds(sig in anc, "original orbit is an ancestor", f"n={n} T={tab} lower={lower}")
                    others = [a for a in anc if a != sig]
                    if len(others) != 1:
                        continue
                    other = others[0]
                    rec.equal(top_dim, dimension(other), "second ancestor is maximal", f"n={n} T={tab} lower={lower}")
                    rec.holds(tableau_of(other) is not None, "second ancestor is a tableau image", f"n={n} lower={lower}")
                    joint = meet(rank_matrix(sig), rank_matrix(other))
                    rec.holds(is_valid(joint), "meet of the two ancestors is valid", f"n={n} T={tab} lower={lower}")
                    rec.equal(rank_matrix(lower), joint, "meet realises the degeneration", f"n={n} T={tab} lower={lower}")
                    rec.equal(
                        {lower},
                        descendants(sig) & descendants(other),
                        "the two ancestors share exactly this descendant",
                        f"n={n} T={tab} lower={lower}",
                    )
                    result = intersect(sig, other)
                    rec.holds(result.irreducible, "codim-1 intersection of maximal orbits is irreducible", f"n={n} T={tab} lower={lower}")
                    rec.equal((lower,), result.components, "intersection component is the degeneration", f"n={n} T={tab} lower={lower}")


def _suite_tableaux(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """Tableau correspondence: bijection, counts, gap parity, interval law."""
    for n in range(1, n_max + 1):
        for k in _ks(n, k_max):
            tabs = list(enumerate_tableaux(n, k))
            rec.equal(hook_length_count(n, k), len(tabs), "tableau count matches hook lengths", f"n={n} k={k}")
            images = {}
            for tab in tabs:
                sig = sigma_T(tab)
                images[tab] = sig
                rec.equal(k * (n - k), dimension(sig), "tableau image has maximal dimension", f"n={n} T={tab}")
                rec.equal(tab, tableau_of(sig), "tableau roundtrip", f"n={n} T={tab}")
                by_b = sigma_pairs_by_b(tab)
                for s, (i_s, b_s) in enumerate(by_b):
                    rec.holds((b_s - i_s) % 2 == 1, "pair gaps are odd", f"n={n} T={tab} pair=({i_s},{b_s})")
                    if i_s != b_s - 1:
                        earlier = {x for q in range(s) for x in by_b[q]}
                        rec.holds(
                            all(p in earlier for p in range(i_s + 1, b_s)),
                            "interior of a long pair is used by earlier pairs",
                            f"n={n} T={tab} pair=({i_s},{b_s})",
                        )
            rec.equal(len(set(images.values())), len(tabs), "tableau map is injective", f"n={n} k={k}")
            maximal = {e for e in all_involutions(n, k) if dimension(e) == k * (n - k)}
            rec.equal(maximal, set(images.values()), "images exhaust the maximal orbits", f"n={n} k={k}")


def _suite_partners(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """The two exchange rules produce exactly the codimension-one partners."""
    for n in range(1, n_max + 1):
        for k in _ks(n, k_max):
            tabs = list(enumerate_tableaux(n, k))
            via_thm = {tab: codim1_partners(tab) for tab in tabs}
            for tab in tabs:
                via_change = change_rule_partners(tab)
                rec.equal(via_thm[tab], via_change, "exchange rules match the ancestor route", f"n={n} T={tab}")
                for i, b in change_candidates_low(tab):
                    rec.holds((b - i) % 2 == 1, "low exchange has odd gap", f"n={n} T={tab} swap=({i},{b})")
                for a, bs in change_candidates_high(tab):
                    for b in bs:
                        rec.holds((a - b) % 2 == 1, "high exchange has odd gap", f"n={n} T={tab} swap=({a},{b})")
                for other in via_thm[tab]:
                    rec.holds(tab in via_thm[other], "partnership is symmetric", f"n={n} T={tab} S={other}")


def _suite_rs(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """Insertion bijectivity and the witness criterion."""
    for n in range(1, min(n_max, 7) + 1):
        for word in itertools.permutations(range(1, n + 1)):
            p_tab, q_tab = rs_pair(word)
            rec.equal(word, rs_word(p_tab, q_tab), "insertion roundtrip", f"word={list(word)}")
    for n in range(2, min(n_max, 6) + 1):
        for k in _ks(n, k_max):
            tabs = list(enumerate_tableaux(n, k))
            for t_tab, s_tab in itertools.combinations(tabs, 2):
                witness = find_rs_witness(t_tab, s_tab)
                if witness is not None:
                    result = intersect(sigma_T(t_tab), sigma_T(s_tab))
                    rec.equal(1, result.codim, "witness implies codimension one", f"n={n} T={t_tab} S={s_tab}")
    for n in range(1, n_max + 1):
        if 2 not in _ks(n, k_max):
            continue
        tabs = list(enumerate_tableaux(n, 2))
        for t_tab, s_tab in itertools.combinations(tabs, 2):
            witness = find_rs_witness(t_tab, s_tab)
            codim_one = intersect(sigma_T(t_tab), sigma_T(s_tab)).codim == 1
            rec.equal(
                codim_one,
                witness is not None,
                "two-pair shape: witness exactly at codimension one",
                f"n={n} T={t_tab} S={s_tab}",
            )


def _suite_experiments(rec: _Recorder, n_max: int, k_max: int | None) -> None:
    """Reported-only explorations; nothing here is asserted as a failure."""
    # beyond maximal orbits: does codimension one still mean a shared descendant?
    for n in range(1, min(n_max, 6) + 1):
        agreements = disagreements = 0
        examples = []
        for k in _ks(n, k_max):
            els = list(all_involutions(n, k))
            for a, b in itertools.combinations(els, 2):
                if dimension(a) != dimension(b):
                    continue
                codim_one = intersect(a, b).codim == 1
                shared = bool(descendants(a) & descendants(b))
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
    for n in range(2, n_max + 1):
        total = irreducible_count = 0
        for k in _ks(n, k_max):
            tabs = list(enumerate_tableaux(n, k))
            sigmas = {tab: sigma_T(tab) for tab in tabs}
            for t_tab, s_tab in itertools.combinations(tabs, 2):
                result = intersect(sigmas[t_tab], sigmas[s_tab])
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
            for k in _ks(n, k_max)[3:]:
                tabs = list(enumerate_tableaux(n, k))
                sigmas = {tab: sigma_T(tab) for tab in tabs}
                for t_tab, s_tab in itertools.combinations(tabs, 2):
                    if descendants(sigmas[t_tab]) & descendants(sigmas[s_tab]):
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
    name: str,
    n_max: int | None = None,
    k_max: int | None = None,
    max_n: int | None = None,
) -> VerificationReport:
    """Run one named suite and report; failures list stays empty on success."""
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if k_max is not None and k_max < 0:
        raise BadRank(f"k={k_max} must be >= 0")
    fn, default_n, cap = SUITES[name]
    n = default_n if n_max is None else n_max
    check_guard(n, cap, max_n)
    rec = _Recorder()
    start = time.perf_counter()
    fn(rec, n, k_max)
    elapsed = time.perf_counter() - start
    if rec.checks == 0:
        rec.note("no checks ran in this range, so the suite did not pass")
    return VerificationReport(
        suite=name,
        n_max=n,
        k_max=k_max,
        checks_run=rec.checks,
        failures=tuple(rec.failures),
        notes=tuple(rec.notes),
        elapsed=elapsed,
    )


def verify_all(
    n_max: int | None = None,
    k_max: int | None = None,
    max_n: int | None = None,
) -> list[VerificationReport]:
    """Run every suite (at its own default range unless n_max overrides)."""
    return [verify_suite(name, n_max, k_max, max_n) for name in SUITES]
