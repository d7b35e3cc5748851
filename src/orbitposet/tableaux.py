"""Two-column standard Young tableaux and the maximal-orbit correspondence.

A two-column tableau with column lengths ``(n-k, k)`` indexes the maximal
orbits of cycle count ``k``: the greedy pairing ``sigma_T`` sends it to an
involution of maximal dimension ``k*(n-k)``, and ``tableau_of`` inverts that
map.  Exchanging one entry between the columns (``change``) realises the
codimension-one intersections of two maximal orbit closures; the two
candidate rules below enumerate exactly the exchanges that work.

Read 1..n in order, a tableau is a bracket word: first-column entries open
and second-column entries close.  The columns form a tableau exactly when
no entry closes with nothing open, that is when the r-th second-column
entry is at least 2r, and ``sigma_T`` pairs each closer with the nearest
entry still open.

Text format: columns separated by ``|``, entries comma-separated, e.g.
``"1,2,3,6|4,5,7,8"``; a single-column tableau is written without the bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse
from typing import Iterator

from .errors import BadRank, InvalidTableau, NotInColumn, OutOfRange, ParseError
from .involutions import Involution, Pair, _unchecked, canonicalize, dimension
from .moves import ancestors, descendants


@dataclass(frozen=True, order=True)
class ColumnPairArray:
    """Two disjoint increasing columns partitioning 1..n, rows unconstrained.

    This is the raw result type of :func:`change`; it becomes a tableau only
    when every row increases left to right.  A :class:`TwoColumnTableau` is
    one whose rows do, and is never equal to an array.
    """

    col1: tuple[int, ...]
    col2: tuple[int, ...]

    def __post_init__(self) -> None:
        col1, col2, n = self.col1, self.col2, self.n
        if not col1:  # it would print as "|...", which parse refuses
            raise InvalidTableau("first column must be nonempty")
        for col in (col1, col2):
            if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
                raise InvalidTableau("column entries must strictly increase")
        if set(col1) | set(col2) != set(range(1, n + 1)) or set(col1) & set(col2):
            raise InvalidTableau(f"columns must partition 1..{n}")

    @property
    def n(self) -> int:
        return len(self.col1) + len(self.col2)

    @property
    def k(self) -> int:
        return len(self.col2)

    def _row_failure(self) -> str | None:
        """Why the rows fail the tableau condition, or None if they pass."""
        if len(self.col1) < len(self.col2):
            return "first column must be at least as long as the second"
        if any(a >= b for a, b in zip(self.col1, self.col2)):
            return "rows must increase from left to right"
        return None

    def is_tableau(self) -> bool:
        return self._row_failure() is None

    def to_tableau(self) -> "TwoColumnTableau":
        """This array as a tableau; the columns are checked already, so only the rows are."""
        failure = self._row_failure()
        if failure is not None:
            raise InvalidTableau(failure)
        return _unchecked(TwoColumnTableau, col1=self.col1, col2=self.col2)

    def __str__(self) -> str:
        first = ",".join(str(x) for x in self.col1)
        if not self.col2:
            return first
        return first + "|" + ",".join(str(x) for x in self.col2)

    @classmethod
    def parse(cls, text: str) -> "ColumnPairArray":
        """Read the text format; ``TwoColumnTableau.parse`` also checks the rows."""
        compact = "".join(text.split())
        parts = compact.split("|")
        if len(parts) > 2 or not parts[0]:
            raise ParseError(f"cannot parse tableau from {text!r}")
        try:
            col1 = tuple(int(x) for x in parts[0].split(","))
            col2 = tuple(int(x) for x in parts[1].split(",")) if len(parts) == 2 and parts[1] else ()
        except ValueError as exc:
            raise ParseError(f"cannot parse tableau from {text!r}") from exc
        return cls(col1, col2)


class TwoColumnTableau(ColumnPairArray):
    """Standard two-column Young tableau, column lengths ``(n-k, k)``."""

    def __post_init__(self) -> None:
        super().__post_init__()
        failure = self._row_failure()
        if failure is not None:
            raise InvalidTableau(failure)

    @property
    def shape(self) -> tuple[int, int]:
        """Column lengths ``(n-k, k)``."""
        return (len(self.col1), len(self.col2))


def sigma_pairs_by_b(tab: TwoColumnTableau) -> tuple[Pair, ...]:
    """Greedy pairing in second-column order, read as brackets.

    Reading 1..n in order, a first-column entry opens and a second-column
    entry b closes the nearest entry still open.  The first-column entries
    below the s-th closer b are the first ``b - s`` of that column, so each
    closer pushes the ones not yet opened and pops one.  A pair encloses
    only whole pairs, so its gap is odd.  The result lists pairs by
    increasing b, which is the presentation the exchange rules below are
    indexed against.
    """
    col1, opened, pairs = tab.col1, [], []
    for s, b in enumerate(tab.col2, start=1):
        opened += col1[len(opened) + len(pairs) : b - s]
        pairs.append((opened.pop(), b))
    return tuple(pairs)


def sigma_T(tab: TwoColumnTableau) -> Involution:
    """The maximal-dimension involution attached to the tableau."""
    pairs = sigma_pairs_by_b(tab)
    assert all((b - a) % 2 == 1 for a, b in pairs)  # gaps are always odd
    return canonicalize(pairs, tab.n)


def tableau_of(inv: Involution) -> TwoColumnTableau | None:
    """Invert :func:`sigma_T`; None unless the orbit dimension is maximal."""
    k, n = inv.length, inv.n
    if dimension(inv) != k * (n - k):
        return None
    return _tableau_of_maximal(inv)


def _tableau_of_maximal(inv: Involution) -> TwoColumnTableau:
    """:func:`tableau_of` for an orbit known to be maximal, built unchecked:
    the second column holds the second entries of its pairs."""
    col2 = tuple(sorted(b for _, b in inv.pairs))
    return _unchecked(TwoColumnTableau, col1=_first_column(inv.n, col2), col2=col2)


def change(tab: TwoColumnTableau, i: int, j: int) -> ColumnPairArray:
    """Swap entry ``i`` of column 1 with entry ``j`` of column 2.

    The result keeps both columns sorted but may violate the row condition;
    check with :meth:`ColumnPairArray.is_tableau`.
    """
    if i not in tab.col1:
        raise NotInColumn(f"{i} is not in the first column")
    if j not in tab.col2:
        raise NotInColumn(f"{j} is not in the second column")
    col1 = tuple(sorted((set(tab.col1) - {i}) | {j}))
    col2 = tuple(sorted((set(tab.col2) - {j}) | {i}))
    return ColumnPairArray(col1, col2)


def change_candidates_low(tab: TwoColumnTableau) -> list[Pair]:
    """Exchanges (i_s, b_s) along the greedy pairing that stay tableaux.

    In the b-ordered presentation the s-th pair qualifies iff ``b_s > 2s``;
    each such ``change(tab, i_s, b_s)`` is a valid tableau and a
    codimension-one partner.
    """
    return [
        (i, b)
        for s, (i, b) in enumerate(sigma_pairs_by_b(tab), start=1)
        if b > 2 * s
    ]


def change_candidates_high(tab: TwoColumnTableau) -> list[tuple[int, tuple[int, ...]]]:
    """Exchanges (a, b_p) with a > b_p that stay tableaux.

    Only first-column entries ``a`` with ``a - 1`` in the second column can
    move; the partners ``b_p`` are ``a - 1`` itself, or any earlier
    second-column entry such that the pairs between it and ``a - 1`` in the
    b-ordered presentation tile the interval ``(b_p, a)`` exactly.  Those
    pairs close inside the interval, so they tile it exactly when each opens
    after ``b_p`` and there are ``(a - 1 - b_p) / 2`` of them.
    """
    by_b = sigma_pairs_by_b(tab)
    bs = [b for _, b in by_b]
    col2 = set(tab.col2)
    out: list[tuple[int, tuple[int, ...]]] = []
    for a in tab.col1:
        if a - 1 not in col2:
            continue
        t = bs.index(a - 1)
        hits = tuple(
            b_p
            for p, b_p in enumerate(bs[: t + 1])
            if 2 * (t - p) == a - 1 - b_p and all(i > b_p for i, _ in by_b[p + 1 : t + 1])
        )
        out.append((a, hits))
    return out


def change_rule_partners(tab: TwoColumnTableau) -> set[TwoColumnTableau]:
    """Codimension-one partners from the two exchange rules."""
    out: set[TwoColumnTableau] = set()
    for i, b in change_candidates_low(tab):
        out.add(change(tab, i, b).to_tableau())
    for a, bs in change_candidates_high(tab):
        for b in bs:
            out.add(change(tab, a, b).to_tableau())
    return out


def codim1_partners(tab: TwoColumnTableau) -> set[TwoColumnTableau]:
    """Tableaux whose orbit closure meets this one in codimension one.

    Each one-level degeneration of the maximal orbit has exactly two
    maximal orbits above it; the partner is the other one.
    """
    sigma = sigma_T(tab)
    out: set[TwoColumnTableau] = set()
    for lower in descendants(sigma):
        # lower has dimension k(n-k) - 1, so each ancestor is maximal and has a tableau
        out.update(_tableau_of_maximal(upper) for upper in ancestors(lower) if upper != sigma)
    return out


def _second_columns(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """The second column of every tableau with column lengths (n-k, k).

    A k-subset works as the second column iff its r-th smallest entry is at
    least 2r (the ballot condition: no closer without an open entry), so its
    r-th entry runs from the floor ``max(previous + 1, 2r)`` to the ceiling
    ``n - k + r``.  Each step raises the last entry below its ceiling and
    resets every later one to its floor; the order is lexicographic.
    """
    if not 0 <= k <= n // 2:
        return
    col2 = list(range(2, 2 * k + 1, 2))
    while True:
        yield tuple(col2)
        r = k
        while r and col2[r - 1] == n - k + r:
            r -= 1
        if not r:
            return
        col2[r - 1] += 1
        for i in range(r, k):
            col2[i] = max(col2[i - 1] + 1, 2 * i + 2)


def _first_column(n: int, col2: tuple[int, ...]) -> tuple[int, ...]:
    """The entries of 1..n outside the second column, increasing."""
    return tuple(filterfalse(set(col2).__contains__, range(1, n + 1)))


def enumerate_tableaux(n: int, k: int) -> Iterator[TwoColumnTableau]:
    """All two-column tableaux with column lengths (n-k, k), lexicographically.

    Bad arguments raise at the call, before anything is iterated.
    """
    if n < 1:
        raise OutOfRange(f"ambient rank must be >= 1, got {n}")
    if not 0 <= k <= n // 2:
        raise BadRank(f"k={k} outside 0..{n // 2} for n={n}")
    return (TwoColumnTableau(_first_column(n, col2), col2) for col2 in _second_columns(n, k))
