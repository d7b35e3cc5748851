"""Involutions of the symmetric group as immutable combinatorial values.

An involution is the tuple ``(n, pairs)``: its ambient rank ``n`` plus its
disjoint 2-cycles in canonical form, where each pair ``(i, j)`` has ``i < j``
and pairs are sorted by first entry.  Being a tuple, it is built, hashed and
compared in C, so a closure of thousands of members pays no Python-level
call per member for them; the dataclass surface (fields, ``asdict``,
``replace``, frozen attributes, the ``repr``) is kept on top.  Every
operation here is a pure function on such values, so they can be shared
freely between threads.

Text format: ``"(1,8)(2,5)(3,4)(6,7)"``, identity written ``"id"``.  Parsing
ignores whitespace; emission is always canonical with no spaces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, TypeVar

from .errors import (
    BadRank,
    BadWindow,
    DuplicateEntry,
    IndexOutOfRange,
    NotCanonical,
    OutOfRange,
    ParseError,
)
from .limits import CACHE_SIZE

Pair = tuple[int, int]
T = TypeVar("T")

_PAIR_RE = re.compile(r"\((\d+),(\d+)\)")


@dataclass(frozen=True, eq=False, init=False)
class Involution(tuple):
    """An involution in canonical form: the tuple ``(n, pairs)``.

    The strict constructor insists on canonical input; use
    :func:`canonicalize` (or :meth:`parse`) to normalise arbitrary pair
    lists.  Hashing, equality and ordering are the tuple's own, so, as for a
    NamedTuple, ``Involution(n, pairs) == (n, pairs)`` and both hash alike.
    Ordering compares ``(n, pairs)`` lexicographically, which for a fixed
    ``n`` is the flattened-pair-list order used everywhere for deterministic
    output.

    ``__new__`` only builds the tuple; the checks run in ``__init__``.
    """

    __slots__ = ()

    # the fields read the tuple's two slots; their "defaults" are the readers
    n: int = property(itemgetter(0), doc="The ambient rank.")
    pairs: tuple[Pair, ...] = property(itemgetter(1), doc="The 2-cycles, canonical.")

    def __new__(cls, n: int, pairs: tuple[Pair, ...] = ()) -> Involution:
        return tuple.__new__(cls, (n, pairs))

    def __init__(self, n: int, pairs: tuple[Pair, ...] = ()) -> None:
        if n < 1:
            raise OutOfRange(f"ambient rank must be >= 1, got {n}")
        seen: set[int] = set()
        prev_first = 0
        for a, b in pairs:
            for x in (a, b):
                if not 1 <= x <= n:
                    raise OutOfRange(f"entry {x} outside 1..{n}")
                if x in seen:
                    raise DuplicateEntry(f"entry {x} appears twice")
                seen.add(x)
            if a >= b:
                raise NotCanonical(f"pair ({a},{b}) is not increasing")
            if a <= prev_first:
                raise NotCanonical("pairs are not sorted by first entry")
            prev_first = a

    def __getnewargs__(self) -> tuple[int, tuple[Pair, ...]]:
        # pickle and copy rebuild through __new__(cls, n, pairs), not tuple's one-argument form
        return tuple(self)

    @property
    def length(self) -> int:
        """Number of 2-cycles (not Coxeter length)."""
        return len(self.pairs)

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
        try:
            pairs = [(int(m.group(1)), int(m.group(2))) for m in matches]
        except ValueError as exc:  # an entry past int's digit limit
            raise ParseError(f"cannot parse involution from {text!r}") from exc
        return canonicalize(pairs, n)


def _unchecked(cls: type[T], **fields: object) -> T:
    """An instance of the frozen dataclass ``cls`` from fields known to be
    valid, built without running its checks.

    For the library's own results, which are valid by construction; user
    input goes through the validating constructor.  The fields are set as
    the dataclass ``__init__`` sets them, so the instance is laid out, and
    sized, like a checked one.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _trusted(n: int, pairs: tuple[Pair, ...]) -> Involution:
    """``Involution(n, pairs)`` for canonical pairs, built without its checks.

    The move rules and the searches build one of these per target.  To build
    many, ``map(partial(tuple.__new__, Involution), ...)`` over ``(n, pairs)``
    tuples skips even this call.
    """
    return tuple.__new__(Involution, (n, pairs))


def canonicalize(pairs: Iterable[tuple[int, int]], n: int) -> Involution:
    """Build an involution from pairs in any order, any within-pair order.

    Only normalises and sorts; the constructor then raises OutOfRange for a
    bad rank or an entry outside 1..n, and DuplicateEntry when an integer
    occurs twice (including twice within one pair).
    """
    return Involution(n, tuple(sorted((a, b) if a < b else (b, a) for a, b in pairs)))


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


@lru_cache(maxsize=CACHE_SIZE)
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


def _deletion_drops(inv: Involution) -> list[int]:
    """``dimension(inv) - dimension(delete_pair(inv, s))`` for each pair s, in
    pair order, without building the shorter involutions.

    Deleting pair s takes its own terms out of the :func:`dimension` formula
    (``n``, ``j_s - i_s`` and ``q_s``) and its share of every other pair's
    statistic: ``#{p : i_s < i_p and j_s < j_p} + #{p : j_s < i_p}``.  Both
    counts are false at ``p = s``, so the scan need not skip it.
    """
    out: list[int] = []
    for (i_s, j_s), q_s in zip(inv.pairs, q_values(inv)):
        share = sum((i_s < i_p and j_s < j_p) + (j_s < i_p) for i_p, j_p in inv.pairs)
        out.append(inv.n - (j_s - i_s) - q_s - share)
    return out


def project(inv: Involution, i: int, j: int) -> Involution:
    """Keep the pairs contained in ``[i, j]``; re-index the window to 1-based.

    The number of kept pairs equals the rank-matrix entry ``(i, j)``.  One
    shift keeps canonical pairs canonical, so the result is built unchecked.
    """
    if not 1 <= i < j <= inv.n:
        raise BadWindow(f"window ({i},{j}) must satisfy 1 <= i < j <= {inv.n}")
    shifted = tuple(
        (a - i + 1, b - i + 1) for a, b in inv.pairs if i <= a and b <= j
    )
    return _trusted(j - i + 1, shifted)


def delete_pair(inv: Involution, s: int) -> Involution:
    """Remove the s-th pair (1-based, canonical order); the rest stay canonical."""
    if not 1 <= s <= inv.length:
        raise IndexOutOfRange(f"pair index {s} outside 1..{inv.length}")
    return _trusted(inv.n, inv.pairs[: s - 1] + inv.pairs[s:])


def sigma_o(n: int, k: int) -> Involution:
    """The minimal involution with k pairs: (1,n-k+1)(2,n-k+2)...(k,n)."""
    if not 0 <= k <= n // 2:
        raise BadRank(f"k={k} outside 0..{n // 2} for n={n}")
    if n < 1:  # only n = 0, k = 0 passes the test above
        raise OutOfRange(f"ambient rank must be >= 1, got {n}")
    return _trusted(n, tuple((s, n - k + s) for s in range(1, k + 1)))


def enumerate_involutions(n: int, k: int | None = None) -> Iterator[Involution]:
    """Every involution of rank n (or only those with k pairs), lazily.

    Emission order is lexicographic on the flattened canonical pair list,
    so identity comes first and the order is reproducible.  The walk is one
    loop over a stack of lazy iterators, one per open node, each giving that
    node's children in order; so no depth limit applies, and the stack holds
    at most ``n // 2 + 1`` iterators, however long the output.  A node is
    the pairs so far as a tuple, the used points as the bits of one int, and
    the smallest first entry left.  With ``k`` given, a node ends as soon as
    too few free points are left for the pairs still missing.  Bad arguments
    raise at the call, before anything is iterated.
    """
    if n < 1:
        raise OutOfRange(f"ambient rank must be >= 1, got {n}")
    if k is not None and not 0 <= k <= n // 2:
        raise BadRank(f"k={k} outside 0..{n // 2} for n={n}")

    def children(pairs: tuple[Pair, ...], used: int, min_first: int) -> Iterator[tuple]:
        # a call of its own, so each iterator keeps its own node's fields
        return (
            (pairs + ((i, j),), used | 1 << i | 1 << j, i + 1)
            for i in range(min_first, n + 1) if not used >> i & 1
            for j in range(i + 1, n + 1) if not used >> j & 1
        )

    def walk() -> Iterator[Involution]:
        stack = [iter((((), 0, 1),))]
        while stack:
            for pairs, used, min_first in stack[-1]:  # the next node of the innermost open one
                if k is None or len(pairs) == k:
                    yield _trusted(n, pairs)
                    if k is not None:
                        continue
                elif n + 1 - min_first - (used >> min_first).bit_count() < 2 * (k - len(pairs)):
                    continue  # each missing pair needs two free points at or above min_first
                stack.append(children(pairs, used, min_first))
                break
            else:  # that node has no children left
                stack.pop()

    return walk()


@lru_cache(maxsize=None)
def all_involutions(n: int, k: int | None = None) -> tuple[Involution, ...]:
    """Materialised, cached form of :func:`enumerate_involutions`.

    Unbounded: its callers are guarded (:mod:`.limits`), which caps the ``(n, k)`` keys.
    """
    return tuple(enumerate_involutions(n, k))
