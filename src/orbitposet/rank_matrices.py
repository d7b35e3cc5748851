"""Rank matrices: the carrier of the closure order on involutions.

The entry ``(i, j)`` of the rank matrix counts the pairs contained in the
window ``[i, j]``; everything on or below the diagonal is zero.  Matrices of
equal rank are compared entrywise, and the entrywise order lifted back to
involutions is the orbit-closure order.

Besides its cell tuple a matrix carries the same cells packed into one
integer, a whole number of bytes per cell with the top bit of each cell
kept clear as a guard bit.  Cells then add and compare all at once:
``a <= b`` in every cell exactly when ``((b | G) - a) & G == G``, with ``G``
the guard bits, because no cell's difference borrows past its own guard.
The packed rank matrix of the single pair ``(a, b)`` is the mask of the
windows that hold it, so adding a pair to an involution adds its mask.
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


@lru_cache(maxsize=16)
def _layout(n: int) -> tuple[int, int]:
    """``(bytes per cell, guard bits)`` of the packed form at rank ``n``.

    A cell holds up to ``n // 2 + 1`` below its guard bit: no window holds
    more than ``n // 2`` pairs, and a search may overshoot a bound by one
    before it tests the fit.
    """
    size = ((n // 2 + 1).bit_length() + 8) // 8
    top_bit = (0x80 << 8 * (size - 1)).to_bytes(size, "little")
    return size, int.from_bytes(top_bit * _tri_len(n), "little")


def _pack(n: int, cells: tuple[int, ...]) -> int | None:
    """Cell ``o`` in byte ``size * o`` onwards; None if a cell reaches a guard bit."""
    size = _layout(n)[0]
    if cells and max(cells) >> (8 * size - 1):
        return None
    if size == 1:
        return int.from_bytes(bytes(cells), "little")
    return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in cells), "little")


def _unpack(n: int, packed: int) -> tuple[int, ...]:
    size = _layout(n)[0]
    raw = packed.to_bytes(_tri_len(n) * size, "little")
    if size == 1:
        return tuple(raw)
    return tuple(int.from_bytes(raw[o : o + size], "little") for o in range(0, len(raw), size))


class _MaskRow(dict):
    """``row[b]``: the packed windows ``(i, j)`` with ``i <= a`` and ``b <= j``.

    That is the packed rank matrix of the single pair ``(a, b)``, filled on
    first use by the row-run recurrence ``mask(a, b) = run(a, b) + mask(a -
    1, b)``, where ``run(a, b)`` is cells ``b..n`` of row ``a``.
    """

    def __init__(self, n: int, a: int, prev: "_MaskRow | None") -> None:
        super().__init__()
        self.n, self.a, self.prev = n, a, prev

    def __missing__(self, b: int) -> int:
        chain = []
        row: _MaskRow | None = self
        while row is not None and b not in row:
            chain.append(row)
            row = row.prev
        mask = 0 if row is None else row[b]
        size = _layout(self.n)[0]
        run = int.from_bytes((1).to_bytes(size, "little") * (self.n - b + 1), "little")
        for row in reversed(chain):
            mask += run << 8 * size * _offset(self.n, row.a, b)
            row[b] = mask
        return mask


@lru_cache(maxsize=4)
def _pair_masks(n: int) -> tuple[_MaskRow | None, ...]:
    """``_pair_masks(n)[a][b]``: packed windows holding the pair ``(a, b)``.

    Masks are filled lazily, so the cost follows the pairs a caller asks
    about rather than the O(n^4) cells of a full table.
    """
    rows: list[_MaskRow | None] = [None]
    for a in range(1, n + 1):
        rows.append(_MaskRow(n, a, rows[-1]))
    return tuple(rows)


@dataclass(frozen=True, order=True)
class RankMatrix:
    """Strictly upper-triangular nonnegative integer matrix.

    Only the strict upper triangle is stored; ``entry`` reads 0 on and below
    the diagonal and outside the index range, which keeps boundary cases in
    the validity clauses uniform.  ``packed`` holds the same cells as one
    integer (see the module docstring); it is derived, so equality, hashing
    and ordering ignore it, and it is None for a matrix with a cell too large
    for the packing, which no rank matrix of an involution has.
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
        object.__setattr__(self, "packed", _pack(self.n, self.cells))

    @classmethod
    def _from_packed(cls, n: int, packed: int) -> "RankMatrix":
        """Trusted constructor from a packed value at rank ``n``; nothing is checked."""
        # Search candidates are short-lived, so the fields go straight into
        # the instance dict, which is faster than three object.__setattr__.
        m = object.__new__(cls)
        fields = m.__dict__
        fields["n"] = n
        fields["cells"] = _unpack(n, packed)
        fields["packed"] = packed
        return m

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
    """Entrywise order: ``a`` below ``b``.  Accepts involutions or matrices.

    One guard-bit test on the packed forms, or a cell-by-cell comparison
    when either matrix has no packed form.
    """
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.n != mb.n:
        raise SizeMismatch(f"cannot compare ranks {ma.n} and {mb.n}")
    pa, pb = ma.packed, mb.packed
    if pa is None or pb is None:
        return all(map(le, ma.cells, mb.cells))
    guard = _layout(ma.n)[1]
    return ((pb | guard) - pa) & guard == guard


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
