"""Minimal degeneration moves between involutions of equal cycle count.

Three rules step exactly one level down or up in the closure order, each read
in two directions under one blocking condition, so the directions invert each
other.  ``_shift`` moves an entry of a pair onto the nearest fixed point, away
from the other entry (``move_down``, ``move_right``) or towards it
(``move_up``, ``move_left``).  ``_cross_moves`` makes two sequential pairs
cross (``cross_down``) or two crossing pairs sequential (``cross_up``).
``_swap_moves`` exchanges the second entries of two nested pairs
(``swap_down``) or of two crossing ones (``swap_up``).  Each rule states its
conditions on points and reads them off one partner table (``_partners``),
built once per move set or per public single move.  A rule takes that table,
the 0-based slot of its pair and the pair itself, so only the public single
moves check a 1-based index (``_pair_at``).  Its scans are plain loops that
stop at the first blocking point, and its pair scans stop where the sorted
first entries leave the range a partner can open in.

``descendants``/``ancestors`` collect the same-length elements one level
away.  The closure order is graded by orbit dimension, so ``cover`` is the
descendants plus the single-pair deletions exactly one dimension down: the
full cover relation of the closure order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange
from .involutions import Involution, Pair, _deletion_drops, _trusted, delete_pair

KIND_MOVE_DOWN = "move_down"
KIND_MOVE_UP = "move_up"
KIND_MOVE_RIGHT = "move_right"
KIND_MOVE_LEFT = "move_left"
KIND_CROSS_DOWN = "cross_down"
KIND_CROSS_UP = "cross_up"
KIND_SWAP_DOWN = "swap_down"
KIND_SWAP_UP = "swap_up"
KIND_DELETE = "delete"

_PairedMove = tuple[tuple[Pair, Pair], Involution]  # the source pairs of a two-pair move, its target


@dataclass(frozen=True, order=True)
class MoveOutcome:
    """One applied move: its family tag, the source pair(s), the result."""

    kind: str
    source: tuple[Pair, ...]
    target: Involution


def _pair_at(inv: Involution, s: int) -> Pair:
    if not 1 <= s <= inv.length:
        raise IndexOutOfRange(f"pair index {s} outside 1..{inv.length}")
    return inv.pairs[s - 1]


def _rewritten(inv: Involution, pairs: list[Pair]) -> Involution:
    """Sort a rewritten copy of ``inv.pairs`` in place and wrap it, unchecked.

    Every rule writes increasing pairs, each on fixed points or on points the
    rewritten pairs held, so the sorted pairs are canonical.
    """
    pairs.sort()
    return _trusted(inv.n, tuple(pairs))


def _partners(inv: Involution) -> list[int]:
    """The partner table: ``p[x]`` is the partner of point ``x``, 0 for a fixed point."""
    p = [0] * (inv.n + 1)
    for i, j in inv.pairs:
        p[i], p[j] = j, i
    return p


def _shift(inv: Involution, p: list[int], s0: int, pair: Pair, end: int, outward: bool) -> Involution | None:
    """Move one entry of ``pair``, at 0-based slot ``s0``, onto the nearest fixed point on one side.

    ``end`` 0 moves the first entry, 1 the second.  ``outward`` moves it away
    from the other entry (down or right), otherwise inward (up or left) and
    never past the other entry.  Every point strictly between the old and the
    new place is moved, and the far entry of the pair bounds them all.  The
    move is blocked when one of those points is paired beyond the far entry:
    ``p[x] > far`` for a first entry, ``p[x] < far`` for a second.  Neither the
    far entry nor the points in between change, so the condition reads the
    same before and after the move and the outward and inward shifts of an
    end invert each other.
    """
    old, far = pair[end], pair[1 - end]
    step = 1 if (end == 1) == outward else -1
    stop = far if not outward else (inv.n + 1 if step > 0 else 0)
    new = old + step
    while new != stop and p[new]:
        new += step
    if new == stop:
        return None
    lo, hi = (old, new) if old < new else (new, old)
    if end == 0:
        for x in range(lo + 1, hi):
            if p[x] > far:
                return None
        moved = (new, far)
    else:
        for x in range(lo + 1, hi):
            if p[x] < far:
                return None
        moved = (far, new)
    pairs = list(inv.pairs)
    pairs[s0] = moved
    return _rewritten(inv, pairs)


def move_down(inv: Involution, s: int) -> Involution | None:
    """Drop the first entry of pair ``s`` onto the nearest lower fixed point."""
    return _shift(inv, _partners(inv), s - 1, _pair_at(inv, s), 0, True)


def move_up(inv: Involution, s: int) -> Involution | None:
    """Raise the first entry of pair ``s`` onto the nearest fixed point inside it."""
    return _shift(inv, _partners(inv), s - 1, _pair_at(inv, s), 0, False)


def move_right(inv: Involution, s: int) -> Involution | None:
    """Push the second entry of pair ``s`` onto the nearest higher fixed point."""
    return _shift(inv, _partners(inv), s - 1, _pair_at(inv, s), 1, True)


def move_left(inv: Involution, s: int) -> Involution | None:
    """Pull the second entry of pair ``s`` onto the nearest fixed point inside it."""
    return _shift(inv, _partners(inv), s - 1, _pair_at(inv, s), 1, False)


def _swap_moves(inv: Involution, p: list[int], s0: int, pair: Pair, nested: bool) -> list[_PairedMove]:
    """Exchange the second entries of ``pair`` (pair ``s``, at 0-based slot
    ``s0``) and a pair ``t`` starting inside it.

    ``t`` is nested in ``s`` for a down-move, crossing it for an up-move.  The
    exchange is blocked when a point strictly between ``i_s`` and ``i_t`` is
    paired strictly between the two second entries.  The exchange keeps both
    the first entries and the set of second entries, so the condition reads
    the same before and after and the two directions invert each other.
    Pairs are sorted by first entry, so the candidates ``t`` follow slot
    ``s0`` and end at the first pair opening past ``j_s``.
    """
    i_s, j_s = pair
    pairs = inv.pairs
    out: list[_PairedMove] = []
    for t0 in range(s0 + 1, len(pairs)):
        i_t, j_t = pairs[t0]
        if i_t > j_s:
            break
        if (j_t < j_s) != nested:
            continue
        lo, hi = (j_t, j_s) if nested else (j_s, j_t)
        for x in range(i_s + 1, i_t):
            if lo < p[x] < hi:
                break
        else:
            target = list(pairs)
            target[s0], target[t0] = (i_s, j_t), (i_t, j_s)
            out.append(((pair, (i_t, j_t)), _rewritten(inv, target)))
    return out


def swap_down(inv: Involution, s: int) -> set[Involution]:
    """All nested-pair exchanges at pair ``s`` giving a smaller element."""
    return {target for _, target in _swap_moves(inv, _partners(inv), s - 1, _pair_at(inv, s), True)}


def swap_up(inv: Involution, s: int) -> set[Involution]:
    """All crossing-pair exchanges at pair ``s`` giving a bigger element."""
    return {target for _, target in _swap_moves(inv, _partners(inv), s - 1, _pair_at(inv, s), False)}


def _cross_moves(inv: Involution, p: list[int], t0: int, pair: Pair, down: bool) -> list[_PairedMove]:
    """Make ``pair`` (pair ``t``, at 0-based slot ``t0``) and an earlier pair
    ``s`` cross (down) or sequential (up).

    Down, ``s`` closes before ``t`` opens; up, ``s`` crosses ``t``.  Both
    give ``s -> (i_s, i_t)`` and ``t -> (j_s, j_t)``.  The move is allowed
    when every point strictly between the two middle entries is paired
    strictly between the outer entries: ``i_s < p[x] < j_t``.  The move keeps
    the outer entries and the pairs in between, so the condition reads the
    same before and after and the two directions invert each other.  Both
    cases have ``i_s < i_t``, so the candidates ``s`` are the slots before
    ``t0``.
    """
    i_t, j_t = pair
    pairs = inv.pairs
    out: list[_PairedMove] = []
    for s0 in range(t0):
        i_s, j_s = pairs[s0]
        if down:
            if j_s > i_t:
                continue
            lo, hi = j_s, i_t
        else:
            if not i_t < j_s < j_t:
                continue
            lo, hi = i_t, j_s
        for x in range(lo + 1, hi):
            if not i_s < p[x] < j_t:
                break
        else:
            target = list(pairs)
            target[s0], target[t0] = (i_s, i_t), (j_s, j_t)
            out.append((((i_s, j_s), pair), _rewritten(inv, target)))
    return out


def cross_down(inv: Involution, t: int) -> set[Involution]:
    """All moves making pair ``t`` and a pair closing before it cross."""
    return {target for _, target in _cross_moves(inv, _partners(inv), t - 1, _pair_at(inv, t), True)}


def cross_up(inv: Involution, t: int) -> set[Involution]:
    """All moves making pair ``t`` and a pair crossing it sequential."""
    return {target for _, target in _cross_moves(inv, _partners(inv), t - 1, _pair_at(inv, t), False)}


_TAGS = {
    True: (KIND_MOVE_DOWN, KIND_MOVE_RIGHT, KIND_CROSS_DOWN, KIND_SWAP_DOWN),
    False: (KIND_MOVE_UP, KIND_MOVE_LEFT, KIND_CROSS_UP, KIND_SWAP_UP),
}


def _outcomes(inv: Involution, down: bool) -> list[MoveOutcome]:
    """Apply each family in one direction at every pair, in table order, on one partner table.

    The order is: shifts of first entries, shifts of second entries, cross
    moves, swaps; within a family by pair, then by the other pair's slot.
    Every rule reads ``down`` as its direction (``outward``, ``down``,
    ``nested``).
    """
    first, second, cross, swap = _TAGS[down]
    p = _partners(inv)
    pairs = inv.pairs
    out: list[MoveOutcome] = []
    for tag, end in ((first, 0), (second, 1)):
        for s0, pair in enumerate(pairs):
            target = _shift(inv, p, s0, pair, end, down)
            if target is not None:
                out.append(MoveOutcome(tag, (pair,), target))
    for tag, rule in ((cross, _cross_moves), (swap, _swap_moves)):
        for s0, pair in enumerate(pairs):
            for source, target in rule(inv, p, s0, pair, down):
                out.append(MoveOutcome(tag, source, target))
    return out


def descendant_moves(inv: Involution) -> list[MoveOutcome]:
    """Every down-move with provenance, in deterministic order."""
    return _outcomes(inv, True)


def ancestor_moves(inv: Involution) -> list[MoveOutcome]:
    """Every up-move with provenance, in deterministic order."""
    return _outcomes(inv, False)


def descendants(inv: Involution) -> set[Involution]:
    """Same-length elements exactly one closure level below ``inv``."""
    return {m.target for m in descendant_moves(inv)}


def ancestors(inv: Involution) -> set[Involution]:
    """Same-length elements exactly one closure level above ``inv``."""
    return {m.target for m in ancestor_moves(inv)}


def cover_moves(inv: Involution) -> list[MoveOutcome]:
    """Cover relation below ``inv`` with provenance.

    The closure order is graded by orbit dimension, so an element covers
    exactly what lies one dimension below it.  The down-moves all do; a
    single-pair deletion does when its dimension is exactly one below, read
    off ``_deletion_drops`` so that only the kept deletions are built.
    Same-length covers carry their move tag, shorter ones the ``delete``
    tag, deletions in pair order.
    """
    out = descendant_moves(inv)
    for s, (pair, drop) in enumerate(zip(inv.pairs, _deletion_drops(inv)), 1):
        if drop == 1:
            out.append(MoveOutcome(KIND_DELETE, (pair,), delete_pair(inv, s)))
    return out


def cover(inv: Involution) -> set[Involution]:
    """Elements covered by ``inv`` in the full closure order (all lengths)."""
    return {m.target for m in cover_moves(inv)}
