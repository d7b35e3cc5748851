"""Involutions of the symmetric group as immutable combinatorial values.

An involution is stored as its ambient rank ``n`` plus its disjoint 2-cycles
in canonical form: each pair ``(i, j)`` has ``i < j`` and pairs are sorted by
first entry.  Every operation here is a pure function on such values, so they
can be shared freely between threads.

Text format: ``"(1,8)(2,5)(3,4)(6,7)"``, identity written ``"id"``.  Parsing
ignores whitespace; emission is always canonical with no spaces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import (
    BadRank,
    BadWindow,
    DuplicateEntry,
    IndexOutOfRange,
    NotCanonical,
    OutOfRange,
    ParseError,
)

Pair = tuple[int, int]

_PAIR_RE = re.compile(r"\((\d+),(\d+)\)")


@dataclass(frozen=True, order=True)
class Involution:
    """An involution in canonical form.

    The strict constructor insists on canonical input; use
    :func:`canonicalize` (or :meth:`parse`) to normalise arbitrary pair
    lists.  Ordering compares ``(n, pairs)`` lexicographically, which for a
    fixed ``n`` is the flattened-pair-list order used everywhere for
    deterministic output.
    """

    n: int
    pairs: tuple[Pair, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise OutOfRange(f"ambient rank must be >= 1, got {self.n}")
        seen: set[int] = set()
        prev_first = 0
        for a, b in self.pairs:
            for x in (a, b):
                if not 1 <= x <= self.n:
                    raise OutOfRange(f"entry {x} outside 1..{self.n}")
                if x in seen:
                    raise DuplicateEntry(f"entry {x} appears twice")
                seen.add(x)
            if a >= b:
                raise NotCanonical(f"pair ({a},{b}) is not increasing")
            if a <= prev_first:
                raise NotCanonical("pairs are not sorted by first entry")
            prev_first = a

    @property
    def length(self) -> int:
        """Number of 2-cycles (not Coxeter length)."""
        return len(self.pairs)

    def support(self) -> tuple[int, ...]:
        """Entries moved by the involution, ascending."""
        return tuple(sorted(x for p in self.pairs for x in p))

    def support_complement(self) -> tuple[int, ...]:
        """Fixed points, ascending."""
        moved = {x for p in self.pairs for x in p}
        return tuple(x for x in range(1, self.n + 1) if x not in moved)

    def partner(self, x: int) -> int | None:
        """The other entry of the pair containing ``x``, or None if fixed."""
        for a, b in self.pairs:
            if x == a:
                return b
            if x == b:
                return a
        return None

    def __str__(self) -> str:
        if not self.pairs:
            return "id"
        return "".join(f"({a},{b})" for a, b in self.pairs)

    @classmethod
    def identity(cls, n: int) -> Involution:
        return cls(n)

    @classmethod
    def parse(cls, text: str, n: int) -> Involution:
        """Parse the text format (whitespace-insensitive)."""
        compact = "".join(text.split())
        if compact == "id":
            return cls(n)
        matches = list(_PAIR_RE.finditer(compact))
        if not matches or "".join(m.group(0) for m in matches) != compact:
            raise ParseError(f"cannot parse involution from {text!r}")
        return canonicalize(
            [(int(m.group(1)), int(m.group(2))) for m in matches], n
        )


def _trusted(n: int, pairs: tuple[Pair, ...]) -> Involution:
    """An :class:`Involution` from pairs known to be canonical, unchecked.

    For the library's own searches, whose outputs are canonical by
    construction; user input goes through the validating constructor.  The
    fields are set as the dataclass ``__init__`` sets them, so the instance
    is laid out, and sized, like a checked one.
    """
    inv = object.__new__(Involution)
    object.__setattr__(inv, "n", n)
    object.__setattr__(inv, "pairs", pairs)
    return inv


def canonicalize(pairs: Iterable[tuple[int, int]], n: int) -> Involution:
    """Build an involution from pairs in any order, any within-pair order.

    Raises OutOfRange for entries outside 1..n and DuplicateEntry when an
    integer occurs twice (including twice within one pair).
    """
    seen: set[int] = set()
    norm: list[Pair] = []
    for a, b in pairs:
        for x in (a, b):
            if not 1 <= x <= n:
                raise OutOfRange(f"entry {x} outside 1..{n}")
            if x in seen:
                raise DuplicateEntry(f"entry {x} appears twice")
            seen.add(x)
        norm.append((a, b) if a < b else (b, a))
    norm.sort()
    return Involution(n, tuple(norm))


def q_values(inv: Involution) -> list[int]:
    """Per-pair interleaving statistic entering the orbit dimension.

    For the pair ``(i_s, j_s)`` it counts the pairs lying strictly
    north-west of it plus the pairs ending before it starts:
    ``#{p : i_p < i_s and j_p < j_s} + #{p : j_p < i_s}``.  A pair that
    closes before ``i_s`` is counted by both terms.  In canonical form the
    first value is always 0.
    """
    pairs = inv.pairs
    out: list[int] = []
    for s, (i_s, j_s) in enumerate(pairs):
        q = 0
        for p, (i_p, j_p) in enumerate(pairs):
            if p == s:
                continue
            if i_p < i_s and j_p < j_s:
                q += 1
            if j_p < i_s:
                q += 1
        out.append(q)
    return out


@lru_cache(maxsize=None)
def dimension(inv: Involution) -> int:
    """Dimension of the conjugation orbit attached to the involution.

    ``k*n - sum(j_s - i_s) - sum(q_s)`` with k the number of pairs; the
    identity has dimension 0.  The value never exceeds ``k*(n-k)``.
    """
    k = inv.length
    if k == 0:
        return 0
    qs = q_values(inv)
    assert qs[0] == 0  # canonical form forces the first statistic to vanish
    return k * inv.n - sum(b - a for a, b in inv.pairs) - sum(qs)


def project(inv: Involution, i: int, j: int) -> Involution:
    """Keep the pairs contained in ``[i, j]``; re-index the window to 1-based.

    The number of kept pairs equals the rank-matrix entry ``(i, j)``.
    """
    if not 1 <= i < j <= inv.n:
        raise BadWindow(f"window ({i},{j}) must satisfy 1 <= i < j <= {inv.n}")
    shifted = tuple(
        (a - i + 1, b - i + 1) for a, b in inv.pairs if i <= a and b <= j
    )
    return Involution(j - i + 1, shifted)


def window_support(inv: Involution, i: int, j: int) -> frozenset[int]:
    """Support of the pairs contained in ``[i, j]`` (original labels)."""
    return frozenset(x for a, b in inv.pairs if i <= a and b <= j for x in (a, b))


def delete_pair(inv: Involution, s: int) -> Involution:
    """Remove the s-th pair (1-based, canonical order)."""
    if not 1 <= s <= inv.length:
        raise IndexOutOfRange(f"pair index {s} outside 1..{inv.length}")
    return Involution(inv.n, inv.pairs[: s - 1] + inv.pairs[s:])


def sigma_o(n: int, k: int) -> Involution:
    """The minimal involution with k pairs: (1,n-k+1)(2,n-k+2)...(k,n)."""
    if not 0 <= k <= n // 2:
        raise BadRank(f"k={k} outside 0..{n // 2} for n={n}")
    return Involution(n, tuple((s, n - k + s) for s in range(1, k + 1)))


def enumerate_involutions(n: int, k: int | None = None) -> Iterator[Involution]:
    """Yield every involution of rank n (or only those with k pairs).

    Emission order is lexicographic on the flattened canonical pair list,
    so identity comes first and the order is reproducible.
    """
    if n < 1:
        raise OutOfRange(f"ambient rank must be >= 1, got {n}")
    if k is not None and not 0 <= k <= n // 2:
        raise BadRank(f"k={k} outside 0..{n // 2} for n={n}")

    prefix: list[Pair] = []
    used: set[int] = set()

    def rec(min_first: int) -> Iterator[Involution]:
        if k is None or len(prefix) == k:
            yield _trusted(n, tuple(prefix))
            if k is not None:
                return
        for i in range(min_first, n + 1):
            if i in used:
                continue
            used.add(i)
            for j in range(i + 1, n + 1):
                if j in used:
                    continue
                used.add(j)
                prefix.append((i, j))
                yield from rec(i + 1)
                prefix.pop()
                used.discard(j)
            used.discard(i)

    yield from rec(1)


@lru_cache(maxsize=None)
def all_involutions(n: int, k: int | None = None) -> tuple[Involution, ...]:
    """Materialised, cached form of :func:`enumerate_involutions`."""
    return tuple(enumerate_involutions(n, k))
