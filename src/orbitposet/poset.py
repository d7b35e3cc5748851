"""Order-level queries: closures, intersections, codimension, chains, Hasse data.

The closure order is the entrywise rank-matrix order.  A closure is the set
of involutions below one rank matrix, enumerated by one depth-first search,
``rank_matrices._below_bound``, that adds pairs while every window count
stays within the bound, so the cost follows the size of the answer.  The
intersection of two closures is the set below the entrywise minimum (meet)
of the two matrices, for any two involutions of one rank whatever their
cycle counts, and ``intersect`` finds its components in three steps:
a comparable pair has the lower one as its only component; a meet that is
itself the rank matrix of an involution has that involution as the only
component (the intersection is irreducible exactly then), and one pass,
``rank_matrices._involution_of``, both recognises such a meet and recovers
its involution; only a reducible meet is searched, for its maximal nodes,
by ``rank_matrices._maximal_below``.
The search and the packed form it counts in live in :mod:`.rank_matrices`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import BadRank, NotComparable
from .involutions import Involution, _trusted_all, all_involutions, dimension, sigma_o
from .limits import INTERSECT_MAX_N, SINGLE_PASS_MAX_N, check_guard
from .moves import cover_moves, descendant_moves
from .rank_matrices import (
    RankMatrix,
    _below_bound,
    _involution_of,
    _maximal_below,
    leq,
    meet,
    rank_matrix,
)


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


def closure(inv: Involution) -> set[Involution]:
    """Everything below ``inv`` in the closure order, ``inv`` included.

    Enumerated by :func:`_below_bound` under the rank matrix of ``inv``, so
    the cost follows the size of the closure.  Each node's pairs become an
    involution through ``involutions._trusted_all``, without a Python-level
    call per member.
    """
    return set(_trusted_all(inv.n, map(itemgetter(0), _below_bound(rank_matrix(inv)))))


def intersect(a: Involution, b: Involution, max_n: int | None = None) -> IntersectionResult:
    """Decompose the intersection of the two orbit closures.

    Both arguments must have the same ambient rank (else
    :class:`SizeMismatch`, from the first ``leq``); their cycle counts may
    differ.  The components are the maximal involutions below the meet,
    found in three steps:

    1. if one rank matrix lies below the other, the meet is that matrix and
       its involution is the only component;
    2. otherwise, if the meet is the rank matrix of an involution (one pass
       of ``_involution_of`` decides this and recovers it), everything below
       the meet lies below that involution, the only component;
    3. otherwise the intersection is reducible, and the components are the
       maximal nodes of the search under the meet (``_maximal_below``).  Only
       this step is guarded: past n = ``limits.INTERSECT_MAX_N`` (or
       ``max_n``) it raises :class:`TooLarge` before any node is searched.
    """
    ra, rb = rank_matrix(a), rank_matrix(b)
    if leq(ra, rb):
        bound, irreducible, components = ra, True, [a]
    elif leq(rb, ra):
        bound, irreducible, components = rb, True, [b]
    else:
        bound = meet(ra, rb)
        component = _involution_of(bound)
        irreducible = component is not None
        if irreducible:
            components = [component]
        else:
            check_guard(a.n, INTERSECT_MAX_N, max_n)
            components = sorted(_maximal_below(bound))
    dims = tuple(dimension(c) for c in components)
    codim_value = min(dimension(a), dimension(b)) - max(dims)
    return IntersectionResult(
        meet=bound,
        irreducible=irreducible,
        components=tuple(components),
        component_dims=dims,
        codim=codim_value,
        equidimensional=len(set(dims)) <= 1,
    )


def codim(upper: Involution, lower: Involution) -> int:
    """Codimension of the lower orbit inside the closure of the upper one."""
    if not leq(rank_matrix(lower), rank_matrix(upper)):
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

    With ``k`` given only the same-length covers are kept, and those are
    exactly the one-level degenerations, read off :func:`descendant_moves`.
    Ordering is deterministic: upper elements in enumeration order, moves in
    generation order.
    """
    check_guard(n, SINGLE_PASS_MAX_N, max_n)
    moves = cover_moves if k is None else descendant_moves
    return [PosetEdge(upper, m.target, m.kind) for upper in all_involutions(n, k) for m in moves(upper)]


def hasse_dot(n: int, k: int | None = None, max_n: int | None = None) -> str:
    """DOT rendering of the cover relation, ranked by orbit dimension."""
    edges = hasse(n, k, max_n)
    nodes = all_involutions(n, k)
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
