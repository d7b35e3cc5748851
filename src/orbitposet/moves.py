"""Minimal degeneration moves between involutions of equal cycle count.

Four families of moves step exactly one level down (or up) in the closure
order: shifting one endpoint of a pair vertically or horizontally past the
nearest usable fixed point (``move_down``/``move_up``/``move_right``/
``move_left``), uncrossing two sequential pairs (``cross_down`` and its
inverse ``cross_up``), and exchanging the first entries of two nested pairs
(``swap_down``/``swap_up``).  Down-moves produce strictly smaller elements,
up-moves strictly bigger ones.

``descendants``/``ancestors`` collect the same-length elements one level
away.  The closure order is graded by orbit dimension, so ``cover`` is the
descendants plus the single-pair deletions exactly one dimension down: the
full cover relation of the closure order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange
from .involutions import Involution, Pair, delete_pair, dimension, window_support

KIND_MOVE_DOWN = "move_down"
KIND_MOVE_UP = "move_up"
KIND_MOVE_RIGHT = "move_right"
KIND_MOVE_LEFT = "move_left"
KIND_CROSS_DOWN = "cross_down"
KIND_CROSS_UP = "cross_up"
KIND_SWAP_DOWN = "swap_down"
KIND_SWAP_UP = "swap_up"
KIND_DELETE = "delete"


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
    """Rewrite the pairs at the given 0-based slots and recanonicalise."""
    pairs = sorted(
        changes.get(idx, p) for idx, p in enumerate(inv.pairs)
    )
    return Involution(inv.n, tuple(pairs))


def move_down(inv: Involution, s: int) -> Involution | None:
    """Drop the first entry of pair ``s`` onto the nearest lower fixed point.

    Defined when such a fixed point x exists and either sits directly below
    or every pair starting strictly between x and the moved entry closes
    before the moved pair does.
    """
    i_s, j_s = _pair_at(inv, s)
    comp = inv.support_complement()
    below = [p for p in comp if p < i_s]
    if not below:
        return None
    x = max(below)
    if x != i_s - 1:
        if any(x < i_t < i_s and j_t > j_s for i_t, j_t in inv.pairs):
            return None
    return _replace(inv, {s - 1: (x, j_s)})


def move_up(inv: Involution, s: int) -> Involution | None:
    """Raise the first entry of pair ``s`` onto the nearest fixed point inside it."""
    i_s, j_s = _pair_at(inv, s)
    comp = inv.support_complement()
    inside = [p for p in comp if i_s < p < j_s]
    if not inside:
        return None
    x = min(inside)
    if x != i_s + 1:
        if any(i_s < i_t < x and j_t > j_s for i_t, j_t in inv.pairs):
            return None
    return _replace(inv, {s - 1: (x, j_s)})


def move_right(inv: Involution, s: int) -> Involution | None:
    """Push the second entry of pair ``s`` onto the nearest higher fixed point."""
    i_s, j_s = _pair_at(inv, s)
    comp = inv.support_complement()
    above = [p for p in comp if p > j_s]
    if not above:
        return None
    y = min(above)
    if y != j_s + 1:
        if any(j_s < j_t < y and i_t < i_s for i_t, j_t in inv.pairs):
            return None
    return _replace(inv, {s - 1: (i_s, y)})


def move_left(inv: Involution, s: int) -> Involution | None:
    """Pull the second entry of pair ``s`` onto the nearest fixed point inside it."""
    i_s, j_s = _pair_at(inv, s)
    comp = inv.support_complement()
    inside = [p for p in comp if i_s < p < j_s]
    if not inside:
        return None
    y = max(inside)
    if y != j_s - 1:
        if any(y < j_t < j_s and i_t < i_s for i_t, j_t in inv.pairs):
            return None
    return _replace(inv, {s - 1: (i_s, y)})


def _cross_down_moves(
    inv: Involution, t: int
) -> list[tuple[tuple[Pair, Pair], Involution]]:
    """Detailed uncross moves anchored at pair ``t``: exchange its first
    entry with the second entry of an earlier pair closing before it."""
    i_t, j_t = _pair_at(inv, t)
    comp = set(inv.support_complement())
    out: list[tuple[tuple[Pair, Pair], Involution]] = []
    for s0, (i_s, j_s) in enumerate(inv.pairs):
        if j_s >= i_t:
            continue
        gap = range(j_s + 1, i_t)
        if any(q in comp for q in gap):
            continue
        if j_s != i_t - 1:
            inner = window_support(inv, i_s, j_t)
            if not all(q in inner for q in gap):
                continue
        # Minimality forces the neighbourhood constraints below; keep them
        # as live checks rather than assumptions.
        assert all(
            j_p < j_s or j_p > i_t for i_p, j_p in inv.pairs if i_p < i_s
        )
        assert all(
            i_p < j_s or j_p < j_t for i_p, j_p in inv.pairs if i_s < i_p < i_t
        )
        for x in gap:
            i_p, j_p = next(p for p in inv.pairs if x in p)
            assert i_s < i_p < j_p < j_t
        target = _replace(inv, {s0: (i_s, i_t), t - 1: (j_s, j_t)})
        out.append((((i_s, j_s), (i_t, j_t)), target))
    return out


def cross_down(inv: Involution, t: int) -> set[Involution]:
    """All uncross moves anchored at pair ``t`` (possibly empty)."""
    return {target for _, target in _cross_down_moves(inv, t)}


def _cross_up_moves(
    inv: Involution, t: int
) -> list[tuple[tuple[Pair, Pair], Involution]]:
    """Detailed recross moves anchored at pair ``t``, defined as the exact
    inverse relation of :func:`cross_down`.

    Candidates exchange the first entry of pair ``t`` with the second entry
    of a pair crossing it; a candidate is kept only when the corresponding
    down-move of the result restores the input.
    """
    i_t, j_t = _pair_at(inv, t)
    out: list[tuple[tuple[Pair, Pair], Involution]] = []
    for s0, (i_s, j_s) in enumerate(inv.pairs):
        if not i_s < i_t < j_s < j_t:
            continue
        cand = _replace(inv, {s0: (i_s, i_t), t - 1: (j_s, j_t)})
        t_back = cand.pairs.index((j_s, j_t)) + 1
        if inv in cross_down(cand, t_back):
            out.append((((i_s, j_s), (i_t, j_t)), cand))
    return out


def cross_up(inv: Involution, t: int) -> set[Involution]:
    """All recross moves anchored at pair ``t`` (possibly empty)."""
    return {target for _, target in _cross_up_moves(inv, t)}


def _swap_down_moves(
    inv: Involution, s: int
) -> list[tuple[tuple[Pair, Pair], Involution]]:
    """Exchange first entries of pair ``s`` with a pair nested inside it."""
    i_s, j_s = _pair_at(inv, s)
    out: list[tuple[tuple[Pair, Pair], Involution]] = []
    for t0, (i_t, j_t) in enumerate(inv.pairs):
        if not (i_s < i_t and j_t < j_s):
            continue
        if all(
            j_q < j_t or j_q > j_s
            for i_q, j_q in inv.pairs
            if i_s < i_q < i_t
        ):
            target = _replace(inv, {s - 1: (i_s, j_t), t0: (i_t, j_s)})
            out.append((((i_s, j_s), (i_t, j_t)), target))
    return out


def swap_down(inv: Involution, s: int) -> set[Involution]:
    """All nested-pair exchanges at pair ``s`` giving a smaller element."""
    return {target for _, target in _swap_down_moves(inv, s)}


def _swap_up_moves(
    inv: Involution, s: int
) -> list[tuple[tuple[Pair, Pair], Involution]]:
    """Exchange first entries of pair ``s`` with a pair crossing it."""
    i_s, j_s = _pair_at(inv, s)
    out: list[tuple[tuple[Pair, Pair], Involution]] = []
    for t0, (i_t, j_t) in enumerate(inv.pairs):
        if not i_s < i_t < j_s < j_t:
            continue
        if all(
            j_q < j_s or j_q > j_t
            for i_q, j_q in inv.pairs
            if i_s < i_q < i_t
        ):
            target = _replace(inv, {s - 1: (i_s, j_t), t0: (i_t, j_s)})
            out.append((((i_s, j_s), (i_t, j_t)), target))
    return out


def swap_up(inv: Involution, s: int) -> set[Involution]:
    """All crossing-pair exchanges at pair ``s`` giving a bigger element."""
    return {target for _, target in _swap_up_moves(inv, s)}


def _outcomes(inv: Involution, single, paired) -> list[MoveOutcome]:
    """Apply each family at every pair index, in table order.

    ``single`` holds ``(tag, move)`` for one-pair moves returning a target or
    ``None``; ``paired`` holds ``(tag, family)`` for families listing
    ``(source, target)`` per anchor.
    """
    out: list[MoveOutcome] = []
    for tag, move in single:
        for s, pair in enumerate(inv.pairs, 1):
            target = move(inv, s)
            if target is not None:
                out.append(MoveOutcome(tag, (pair,), target))
    for tag, family in paired:
        for t in range(1, inv.length + 1):
            for source, target in family(inv, t):
                out.append(MoveOutcome(tag, source, target))
    return out


def descendant_moves(inv: Involution) -> list[MoveOutcome]:
    """Every down-move with provenance, in deterministic order."""
    return _outcomes(
        inv,
        ((KIND_MOVE_DOWN, move_down), (KIND_MOVE_RIGHT, move_right)),
        ((KIND_CROSS_DOWN, _cross_down_moves), (KIND_SWAP_DOWN, _swap_down_moves)),
    )


def ancestor_moves(inv: Involution) -> list[MoveOutcome]:
    """Every up-move with provenance, in deterministic order."""
    return _outcomes(
        inv,
        ((KIND_MOVE_UP, move_up), (KIND_MOVE_LEFT, move_left)),
        ((KIND_CROSS_UP, _cross_up_moves), (KIND_SWAP_UP, _swap_up_moves)),
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
