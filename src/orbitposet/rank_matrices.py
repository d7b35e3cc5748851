"""Rank matrices: the carrier of the closure order on involutions.

The entry ``(i, j)`` of the rank matrix counts the pairs contained in the
window ``[i, j]``; everything on or below the diagonal is zero.  Matrices of
equal rank are compared entrywise, and the entrywise order lifted back to
involutions is the orbit-closure order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import le

from .errors import InvalidRankMatrix, OutOfRange, SizeMismatch
from .involutions import Involution, Pair, canonicalize


def _tri_len(n: int) -> int:
    return n * (n - 1) // 2


def _offset(n: int, i: int, j: int) -> int:
    # rows are stored top to bottom, each row holding columns i+1..n
    return (i - 1) * n - i * (i - 1) // 2 + (j - i - 1)


@dataclass(frozen=True, order=True)
class RankMatrix:
    """Strictly upper-triangular nonnegative integer matrix.

    Only the strict upper triangle is stored; ``entry`` reads 0 on and below
    the diagonal and outside the index range, which keeps boundary cases in
    the validity clauses uniform.
    """

    n: int
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise OutOfRange(f"ambient rank must be >= 1, got {self.n}")
        if len(self.cells) != _tri_len(self.n):
            raise SizeMismatch(
                f"expected {_tri_len(self.n)} cells for n={self.n}, got {len(self.cells)}"
            )
        if self.cells and min(self.cells) < 0:
            raise OutOfRange("rank matrix entries must be nonnegative")

    def entry(self, i: int, j: int) -> int:
        if i < 1 or j > self.n or i >= j:
            return 0
        return self.cells[_offset(self.n, i, j)]

    def to_rows(self) -> list[list[int]]:
        """Dense n-by-n list form (lower triangle zeros included)."""
        return [[self.entry(i, j) for j in range(1, self.n + 1)] for i in range(1, self.n + 1)]

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "RankMatrix":
        """Build from a dense square list of lists of integers.

        Raises SizeMismatch unless ``rows`` is a non-empty square list of
        lists, and InvalidRankMatrix for a cell that is not an ``int`` (bools
        included) or a nonzero cell on or below the diagonal.
        """
        if not isinstance(rows, list) or not rows or any(
            not isinstance(r, list) or len(r) != len(rows) for r in rows
        ):
            raise SizeMismatch("expected a square array")
        n = len(rows)
        cells = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                v = rows[i - 1][j - 1]
                if type(v) is not int:  # bool is an int subclass, and is refused
                    raise InvalidRankMatrix(f"entry ({i},{j}) is not an integer: {v!r}")
                if i >= j:
                    if v != 0:
                        raise InvalidRankMatrix(
                            f"entry ({i},{j}) on or below the diagonal must be 0"
                        )
                else:
                    cells.append(v)
        return cls(n, tuple(cells))

    def to_json_dict(self) -> dict:
        return {"rank_matrix": self.to_rows()}

    def format_grid(self) -> str:
        """Aligned text grid for terminal display."""
        width = max(len(str(v)) for row in self.to_rows() for v in row)
        return "\n".join(
            " ".join(str(v).rjust(width) for v in row) for row in self.to_rows()
        )


@lru_cache(maxsize=None)
def rank_matrix(inv: Involution) -> RankMatrix:
    """Matrix whose (i,j) entry counts the pairs of ``inv`` inside [i, j]."""
    n = inv.n
    cells = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            cells.append(sum(1 for a, b in inv.pairs if i <= a and b <= j))
    return RankMatrix(n, tuple(cells))


def is_valid(r: RankMatrix) -> bool:
    """Whether ``r`` is the rank matrix of some involution.

    Checks the step conditions (each entry grows by 0 or 1 when the window
    grows by one row or column) and, at every corner (an entry exceeding its
    three inner neighbours by one), the propagation laws that force the
    corner to behave like a genuine pair position.
    """
    n = r.n
    e = r.entry
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            v = e(i, j)
            below, left = e(i + 1, j), e(i, j - 1)
            if not below <= v <= below + 1:
                return False
            if not left <= v <= left + 1:
                return False
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            v = e(i, j)
            if not (v == e(i + 1, j) + 1 == e(i, j - 1) + 1 == e(i + 1, j - 1) + 1):
                continue
            # (i, j) is a corner: row i must split from row i+1 exactly at j,
            # column j from column j-1 exactly at i, and j must start no pair
            # while i ends none.
            for c in range(1, n + 1):
                expected = e(i + 1, c) + (1 if c >= j else 0)
                if e(i, c) != expected:
                    return False
                expected = e(c, j - 1) + (1 if c <= i else 0)
                if e(c, j) != expected:
                    return False
                if e(j, c) != e(j + 1, c):
                    return False
                if e(c, i) != e(c, i - 1):
                    return False
    return True


def _as_matrix(value: Involution | RankMatrix) -> RankMatrix:
    return rank_matrix(value) if isinstance(value, Involution) else value


def leq(a: Involution | RankMatrix, b: Involution | RankMatrix) -> bool:
    """Entrywise order: ``a`` below ``b``.  Accepts involutions or matrices."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.n != mb.n:
        raise SizeMismatch(f"cannot compare ranks {ma.n} and {mb.n}")
    return all(map(le, ma.cells, mb.cells))


def meet(a: Involution | RankMatrix, b: Involution | RankMatrix) -> RankMatrix:
    """Entrywise minimum of two rank matrices."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.n != mb.n:
        raise SizeMismatch(f"cannot meet ranks {ma.n} and {mb.n}")
    return RankMatrix(ma.n, tuple(min(x, y) for x, y in zip(ma.cells, mb.cells)))


def from_rank_matrix(r: RankMatrix) -> Involution:
    """Recover the unique involution with the given rank matrix.

    Pair positions are the unit second differences
    ``r(a,b) - r(a+1,b) - r(a,b-1) + r(a+1,b-1) = 1``.
    """
    if not is_valid(r):
        raise InvalidRankMatrix("matrix fails the rank-matrix characterisation")
    e = r.entry
    pairs: list[Pair] = []
    for a in range(1, r.n + 1):
        for b in range(a + 1, r.n + 1):
            if e(a, b) - e(a + 1, b) - e(a, b - 1) + e(a + 1, b - 1) == 1:
                pairs.append((a, b))
    return canonicalize(pairs, r.n)
