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
built once per move set or per public single move.

``descendants``/``ancestors`` collect the same-length elements one level
away.  The closure order is graded by orbit dimension, so ``cover`` is the
descendants plus the single-pair deletions exactly one dimension down: the
full cover relation of the closure order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import IndexOutOfRange
from .involutions import Involution, Pair, _trusted, delete_pair, dimension

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


def _replace(inv: Involution, changes: dict[int, Pair]) -> Involution:
    """Rewrite the pairs at the given 0-based slots and re-sort them.

    Built unchecked: every rule writes increasing pairs, each on fixed points
    or on points the rewritten pairs held, so the sorted pairs are canonical.
    """
    return _trusted(inv.n, tuple(sorted(changes.get(idx, p) for idx, p in enumerate(inv.pairs))))


def _partners(inv: Involution) -> list[int]:
    """The partner table: ``p[x]`` is the partner of point ``x``, 0 for a fixed point."""
    p = [0] * (inv.n + 1)
    for i, j in inv.pairs:
        p[i], p[j] = j, i
    return p


def _shift(inv: Involution, p: list[int], s: int, end: int, outward: bool) -> Involution | None:
    """Move one entry of pair ``s`` onto the nearest fixed point on one side.

    ``end`` 0 moves the first entry, 1 the second.  ``outward`` moves it away
    from the other entry (down or right), otherwise inward (up or left) and
    never past the other entry.  Every point strictly between the old and the
    new place is moved, and the far entry of pair ``s`` bounds them all.  The
    move is blocked when one of those points is paired beyond the far entry:
    ``p[x] > far`` for a first entry, ``p[x] < far`` for a second.  Neither the
    far entry nor the points in between change, so the condition reads the
    same before and after the move and the outward and inward shifts of an
    end invert each other.
    """
    pair = _pair_at(inv, s)
    old, far = pair[end], pair[1 - end]
    step = 1 if bool(end) == outward else -1
    stop = far if not outward else (inv.n + 1 if step > 0 else 0)
    new = old + step
    while new != stop and p[new]:
        new += step
    if new == stop:
        return None
    lo, hi = sorted((old, new))
    if any(p[x] > far if end == 0 else p[x] < far for x in range(lo + 1, hi)):
        return None
    return _replace(inv, {s - 1: (new, far) if end == 0 else (far, new)})


def move_down(inv: Involution, s: int) -> Involution | None:
    """Drop the first entry of pair ``s`` onto the nearest lower fixed point."""
    return _shift(inv, _partners(inv), s, 0, True)


def move_up(inv: Involution, s: int) -> Involution | None:
    """Raise the first entry of pair ``s`` onto the nearest fixed point inside it."""
    return _shift(inv, _partners(inv), s, 0, False)


def move_right(inv: Involution, s: int) -> Involution | None:
    """Push the second entry of pair ``s`` onto the nearest higher fixed point."""
    return _shift(inv, _partners(inv), s, 1, True)


def move_left(inv: Involution, s: int) -> Involution | None:
    """Pull the second entry of pair ``s`` onto the nearest fixed point inside it."""
    return _shift(inv, _partners(inv), s, 1, False)


def _swap_moves(inv: Involution, p: list[int], s: int, nested: bool) -> list[_PairedMove]:
    """Exchange the second entries of pair ``s`` and a pair ``t`` starting inside it.

    ``t`` is nested in ``s`` for a down-move, crossing it for an up-move.  The
    exchange is blocked when a point strictly between ``i_s`` and ``i_t`` is
    paired strictly between the two second entries.  The exchange keeps both
    the first entries and the set of second entries, so the condition reads
    the same before and after and the two directions invert each other.
    """
    i_s, j_s = _pair_at(inv, s)
    out: list[_PairedMove] = []
    for t0, (i_t, j_t) in enumerate(inv.pairs):
        if not i_s < i_t < j_s or (j_t < j_s) != nested:
            continue
        lo, hi = sorted((j_s, j_t))
        if not any(lo < p[x] < hi for x in range(i_s + 1, i_t)):
            target = _replace(inv, {s - 1: (i_s, j_t), t0: (i_t, j_s)})
            out.append((((i_s, j_s), (i_t, j_t)), target))
    return out


def swap_down(inv: Involution, s: int) -> set[Involution]:
    """All nested-pair exchanges at pair ``s`` giving a smaller element."""
    return {target for _, target in _swap_moves(inv, _partners(inv), s, True)}


def swap_up(inv: Involution, s: int) -> set[Involution]:
    """All crossing-pair exchanges at pair ``s`` giving a bigger element."""
    return {target for _, target in _swap_moves(inv, _partners(inv), s, False)}


def _cross_moves(inv: Involution, p: list[int], t: int, down: bool) -> list[_PairedMove]:
    """Make pair ``t`` and an earlier pair ``s`` cross (down) or sequential (up).

    Down, ``s`` closes before ``t`` opens; up, ``s`` crosses ``t``.  Both
    give ``s -> (i_s, i_t)`` and ``t -> (j_s, j_t)``.  The move is allowed
    when every point strictly between the two middle entries is paired
    strictly between the outer entries: ``i_s < p[x] < j_t``.  The move keeps
    the outer entries and the pairs in between, so the condition reads the
    same before and after and the two directions invert each other.
    """
    i_t, j_t = _pair_at(inv, t)
    out: list[_PairedMove] = []
    for s0, (i_s, j_s) in enumerate(inv.pairs):
        if not (j_s < i_t if down else i_s < i_t < j_s < j_t):
            continue
        lo, hi = sorted((j_s, i_t))
        if all(i_s < p[x] < j_t for x in range(lo + 1, hi)):
            target = _replace(inv, {s0: (i_s, i_t), t - 1: (j_s, j_t)})
            out.append((((i_s, j_s), (i_t, j_t)), target))
    return out


def cross_down(inv: Involution, t: int) -> set[Involution]:
    """All moves making pair ``t`` and a pair closing before it cross."""
    return {target for _, target in _cross_moves(inv, _partners(inv), t, True)}


def cross_up(inv: Involution, t: int) -> set[Involution]:
    """All moves making pair ``t`` and a pair crossing it sequential."""
    return {target for _, target in _cross_moves(inv, _partners(inv), t, False)}


def _outcomes(inv: Involution, single, paired) -> list[MoveOutcome]:
    """Apply each family at every pair index, in table order, on one partner table.

    ``single`` holds ``(tag, rule)`` for one-pair rules returning a target or
    ``None``; ``paired`` holds ``(tag, rule)`` for rules listing
    ``(source, target)`` per anchor.
    """
    p = _partners(inv)
    out: list[MoveOutcome] = []
    for tag, rule in single:
        for s, pair in enumerate(inv.pairs, 1):
            target = rule(inv, p, s)
            if target is not None:
                out.append(MoveOutcome(tag, (pair,), target))
    for tag, rule in paired:
        for t in range(1, inv.length + 1):
            for source, target in rule(inv, p, t):
                out.append(MoveOutcome(tag, source, target))
    return out


def descendant_moves(inv: Involution) -> list[MoveOutcome]:
    """Every down-move with provenance, in deterministic order."""
    return _outcomes(
        inv,
        ((KIND_MOVE_DOWN, partial(_shift, end=0, outward=True)),
         (KIND_MOVE_RIGHT, partial(_shift, end=1, outward=True))),
        ((KIND_CROSS_DOWN, partial(_cross_moves, down=True)),
         (KIND_SWAP_DOWN, partial(_swap_moves, nested=True))),
    )


def ancestor_moves(inv: Involution) -> list[MoveOutcome]:
    """Every up-move with provenance, in deterministic order."""
    return _outcomes(
        inv,
        ((KIND_MOVE_UP, partial(_shift, end=0, outward=False)),
         (KIND_MOVE_LEFT, partial(_shift, end=1, outward=False))),
        ((KIND_CROSS_UP, partial(_cross_moves, down=False)),
         (KIND_SWAP_UP, partial(_swap_moves, nested=False))),
    )


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
    single-pair deletion does when its dimension is exactly one below.
    Same-length covers carry their move tag, shorter ones the ``delete``
    tag, deletions in pair order.
    """
    out = descendant_moves(inv)
    level = dimension(inv) - 1
    for s, pair in enumerate(inv.pairs, 1):
        target = delete_pair(inv, s)
        if dimension(target) == level:
            out.append(MoveOutcome(KIND_DELETE, (pair,), target))
    return out


def cover(inv: Involution) -> set[Involution]:
    """Elements covered by ``inv`` in the full closure order (all lengths)."""
    return {m.target for m in cover_moves(inv)}
