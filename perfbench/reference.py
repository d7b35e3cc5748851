"""Independent reference code for input generation and output checks.

Nothing here calls orbitposet: rank matrices, the order, orbit dimensions and
the greedy tableau pairing are recomputed from their definitions on plain
tuples, so a check never goes through the code it is checking and never warms
one of the library's caches between timed operations.
"""

from __future__ import annotations

import random
from functools import lru_cache

Pairs = tuple[tuple[int, int], ...]


def rank_cells(n: int, pairs: Pairs) -> tuple[int, ...]:
    """Strict upper triangle of the rank matrix, row by row.

    Cell (i, j) counts the pairs inside the window [i, j]; row i is row i+1
    plus the pair starting at i, from its end onwards.
    """
    end_of = dict(pairs)
    below = [0] * (n + 2)
    rows = []
    for i in range(n, 0, -1):
        b = end_of.get(i)
        row = below[:]
        if b is not None:
            for j in range(b, n + 1):
                row[j] += 1
        rows.append(row[i + 1 : n + 1])
        below = row
    return tuple(x for row in reversed(rows) for x in row)


def below(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """Entrywise order on rank-matrix cells."""
    return all(p <= q for p, q in zip(x, y))


def dimension(n: int, pairs: Pairs) -> int:
    """``k*n - sum(j-i) - sum(q)`` straight from the definition of q."""
    pairs = tuple(sorted(pairs))
    q = 0
    for s, (i_s, j_s) in enumerate(pairs):
        for p, (i_p, j_p) in enumerate(pairs):
            if p != s:
                q += (i_p < i_s and j_p < j_s) + (j_p < i_s)
    return len(pairs) * n - sum(b - a for a, b in pairs) - q


def greedy_pairs(col1: tuple[int, ...], col2: tuple[int, ...]) -> Pairs:
    """Maximal-orbit image of a two-column tableau, sorted by first entry."""
    free = set(col1)
    pairs = []
    for b in col2:
        a = max(d for d in free if d < b)
        free.remove(a)
        pairs.append((a, b))
    return tuple(sorted(pairs))


def reflect(n: int, pairs: Pairs) -> Pairs:
    """Image under x -> n+1-x, an automorphism of the closure order."""
    return tuple(sorted((n + 1 - b, n + 1 - a) for a, b in pairs))


def involution_text(pairs: Pairs) -> str:
    return "".join(f"({a},{b})" for a, b in sorted(pairs)) or "id"


def tableau_text(col1: tuple[int, ...], col2: tuple[int, ...]) -> str:
    first = ",".join(map(str, col1))
    return first + "|" + ",".join(map(str, col2)) if col2 else first


@lru_cache(maxsize=None)
def all_involution_cells(n: int) -> tuple[tuple[Pairs, tuple[int, ...]], ...]:
    """Every involution of rank n (all pair counts) with its rank cells."""
    out = []

    def rec(free: tuple[int, ...], pairs: tuple) -> None:
        if not free:
            out.append((pairs, rank_cells(n, pairs)))
            return
        x, rest = free[0], free[1:]
        rec(rest, pairs)
        for idx, y in enumerate(rest):
            rec(rest[:idx] + rest[idx + 1 :], tuple(sorted(pairs + ((x, y),))))

    rec(tuple(range(1, n + 1)), ())
    return tuple(out)


@lru_cache(maxsize=None)
def maximal_below(n: int, bound: tuple[int, ...]) -> frozenset:
    """Maximal involutions of rank n whose rank cells lie below ``bound``.

    Distinct involutions have distinct cells, so anything above a candidate
    has a larger cell sum: scanning by descending sum, a candidate is maximal
    exactly when no candidate kept so far lies above it.
    """
    down = [(p, cells) for p, cells in all_involution_cells(n) if below(cells, bound)]
    down.sort(key=lambda item: sum(item[1]), reverse=True)
    kept: list = []
    for pairs, cells in down:
        if not any(below(cells, top) for _, top in kept):
            kept.append((pairs, cells))
    return frozenset(pairs for pairs, _ in kept)


def random_involution(rng: random.Random, n: int, k: int) -> Pairs:
    points = rng.sample(range(1, n + 1), 2 * k)
    return tuple(sorted(tuple(sorted(points[2 * s : 2 * s + 2])) for s in range(k)))


def random_tableau(rng: random.Random, n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Uniform two-column tableau with column lengths (n-k, k)."""
    while True:
        col2 = tuple(sorted(rng.sample(range(1, n + 1), k)))
        if all(c >= 2 * (r + 1) for r, c in enumerate(col2)):
            col1 = tuple(x for x in range(1, n + 1) if x not in col2)
            return col1, col2
