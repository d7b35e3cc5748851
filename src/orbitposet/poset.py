"""Order-level queries: closures, intersections, codimension, chains, Hasse data.

The closure order is the entrywise rank-matrix order.  A closure is the set
of involutions below one rank matrix, and the intersection of two closures
is the set below the entrywise minimum (meet) of two; the intersection is
irreducible exactly when that minimum is itself a valid rank matrix.  Both
sets come from one depth-first search that adds pairs while every window
count stays within the bound.  The counts are one packed integer (see
:mod:`.rank_matrices`), so adding a pair is one addition of its window mask
and the bound is checked in one test; masks are built only for the pairs
the search tries, so the cost follows the size of the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import BadRank, NotComparable, RankMismatch, SizeMismatch
from .involutions import Involution, Pair, _trusted, all_involutions, dimension, sigma_o
from .limits import INTERSECT_MAX_N, SINGLE_PASS_MAX_N, check_guard
from .moves import cover_moves
from .rank_matrices import RankMatrix, _layout, _pair_masks, is_valid, leq, meet, rank_matrix


@dataclass(frozen=True)
class IntersectionResult:
    """Decomposition of the intersection of two orbit closures."""

    meet: RankMatrix
    irreducible: bool
    components: tuple[Involution, ...]
    component_dims: tuple[int, ...]
    codim: int
    equidimensional: bool

    def to_json_dict(self) -> dict:
        return {
            "meet": self.meet.to_rows(),
            "irreducible": self.irreducible,
            "components": [
                {"involution": str(c), "dim": d}
                for c, d in zip(self.components, self.component_dims)
            ],
            "codim": self.codim,
            "equidimensional": self.equidimensional,
        }


@dataclass(frozen=True, order=True)
class PosetEdge:
    """One cover edge of the closure order, with its move tag."""

    upper: Involution
    lower: Involution
    kind: str


def _below_bound(bound: RankMatrix) -> Iterator[tuple[tuple[Pair, ...], int]]:
    """Every involution whose rank matrix lies entrywise below ``bound``.

    Yields ``(pairs, packed)``: the canonical pairs and the packed rank
    matrix (:attr:`RankMatrix.packed`).  A depth-first search adds pairs with
    increasing first entries; adding ``(a, b)`` adds its window mask, one to
    every window ``(i, j)`` with ``i <= a`` and ``b <= j``.  Counts only
    grow, so a branch is dropped as soon as one window would pass the bound,
    and the work follows the size of the output.  Each involution is yielded
    once, in no promised order.  Every cell of ``bound`` must fit the
    packing, as every meet of rank matrices does.
    """
    n = bound.n
    masks = _pair_masks(n)
    guard = _layout(n)[1]
    cap = bound.packed | guard
    used = [False] * (n + 1)
    prefix: list[Pair] = []

    def rec(min_first: int, counts: int) -> Iterator[tuple[tuple[Pair, ...], int]]:
        yield tuple(prefix), counts
        for a in range(min_first, n):
            if used[a]:
                continue
            row = masks[a]
            # (a, b) raises a superset of the windows (a, b + 1) raises, so
            # once one second entry fails every smaller one fails too.
            for b in range(n, a, -1):
                if used[b]:
                    continue
                raised = counts + row[b]
                if (cap - raised) & guard != guard:
                    break
                used[a] = used[b] = True
                prefix.append((a, b))
                yield from rec(a + 1, raised)
                prefix.pop()
                used[a] = used[b] = False

    return rec(1, 0)


def closure(inv: Involution) -> set[Involution]:
    """Everything below ``inv`` in the closure order, ``inv`` included.

    Enumerated by :func:`_below_bound` under the rank matrix of ``inv``, so
    the cost follows the size of the closure.
    """
    return {_trusted(inv.n, pairs) for pairs, _ in _below_bound(rank_matrix(inv))}


def intersect(
    a: Involution, b: Involution, force: bool = False, max_n: int | None = None
) -> IntersectionResult:
    """Decompose the intersection of the two orbit closures.

    Both arguments must have the same ambient rank and, unless ``force`` is
    set, the same cycle count (the decomposition below is stated for equal
    counts; ``force`` applies the same recipe outside that scope).  The
    components are the maximal involutions below the meet, kept in one pass
    over :func:`_below_bound`: a candidate below a kept element is skipped,
    otherwise it replaces the kept elements below it.
    """
    if a.n != b.n:
        raise SizeMismatch(f"cannot intersect ranks {a.n} and {b.n}")
    if a.length != b.length and not force:
        raise RankMismatch(
            f"cycle counts differ ({a.length} vs {b.length}); pass force to proceed"
        )
    check_guard(a.n, INTERSECT_MAX_N, max_n)
    bound = meet(rank_matrix(a), rank_matrix(b))
    kept: list[tuple[tuple[Pair, ...], RankMatrix]] = []
    for pairs, packed in _below_bound(bound):
        candidate = RankMatrix._from_packed(a.n, packed)
        if any(leq(candidate, top) for _, top in kept):
            continue
        kept = [(p, top) for p, top in kept if not leq(top, candidate)]
        kept.append((pairs, candidate))
    components = sorted(_trusted(a.n, pairs) for pairs, _ in kept)
    dims = tuple(dimension(c) for c in components)
    codim_value = min(dimension(a), dimension(b)) - max(dims)
    return IntersectionResult(
        meet=bound,
        irreducible=is_valid(bound),
        components=tuple(components),
        component_dims=dims,
        codim=codim_value,
        equidimensional=len(set(dims)) <= 1,
    )


def codim(upper: Involution, lower: Involution) -> int:
    """Codimension of the lower orbit inside the closure of the upper one."""
    if not leq(lower, upper):
        raise NotComparable(f"{lower} is not below {upper}")
    return dimension(upper) - dimension(lower)


def depth(inv: Involution, k: int) -> int:
    """Cover-chain length from ``inv`` down to the minimal k-pair involution.

    Equals the dimension difference; ``depth(inv, 0)`` is the orbit dimension.
    """
    if not 0 <= k <= inv.length:
        raise BadRank(f"k={k} outside 0..{inv.length}")
    return dimension(inv) - dimension(sigma_o(inv.n, k))


def hasse(n: int, k: int | None = None, max_n: int | None = None) -> list[PosetEdge]:
    """All cover edges for rank ``n`` (restricted to cycle count ``k`` if given).

    With ``k`` given only the same-length covers survive, which are exactly
    the one-level degenerations.  Ordering is deterministic: upper elements
    in enumeration order, moves in generation order.
    """
    check_guard(n, SINGLE_PASS_MAX_N, max_n)
    edges: list[PosetEdge] = []
    for upper in all_involutions(n, k):
        for move in cover_moves(upper):
            if k is not None and move.target.length != k:
                continue
            edges.append(PosetEdge(upper, move.target, move.kind))
    return edges


def hasse_dot(n: int, k: int | None = None, max_n: int | None = None) -> str:
    """DOT rendering of the cover relation, ranked by orbit dimension."""
    edges = hasse(n, k, max_n)
    nodes = sorted({e.upper for e in edges} | {e.lower for e in edges})
    if not nodes:
        nodes = list(all_involutions(n, k))
    by_dim: dict[int, list[Involution]] = {}
    for node in nodes:
        by_dim.setdefault(dimension(node), []).append(node)
    lines = [f'digraph "involution_poset_n{n}" {{']
    lines.append("  rankdir=TB;")
    lines.append('  node [shape=box, fontname="monospace"];')
    for dim_value in sorted(by_dim, reverse=True):
        group = " ".join(f'"{node}"' for node in sorted(by_dim[dim_value]))
        lines.append(f"  {{ rank=same; {group} }}")
    for node in nodes:
        lines.append(f'  "{node}" [label="{node}\\ndim {dimension(node)}"];')
    for edge in edges:
        lines.append(f'  "{edge.upper}" -> "{edge.lower}" [label="{edge.kind}"];')
    lines.append("}")
    return "\n".join(lines)
