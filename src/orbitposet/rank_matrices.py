"""Rank matrices: the carrier of the closure order on involutions.

The entry ``(i, j)`` of the rank matrix counts the pairs contained in the
window ``[i, j]``; everything on or below the diagonal is zero.  Matrices of
equal rank are compared entrywise, and the entrywise order lifted back to
involutions is the orbit-closure order.  Row ``a`` minus row ``a + 1``,
``D_a(b) = r(a, b) - r(a + 1, b)``, counts the pairs ``(a, b')`` with
``b' <= b``.  So a matrix is the rank matrix of an involution exactly when
every nonzero row difference is a run of ones to the end of its row, and the
pairs ``(a, b)``, with ``b`` the first column of row ``a``'s run, share no
point.  Those are then its pairs, so recognising a rank matrix and
recovering its involution are one pass over the rows (``_involution_of``),
which ``is_valid``, ``from_rank_matrix`` and ``poset.intersect`` all read.
Read the other way, row ``a`` is row ``a + 1`` moved one cell right plus the
run of the pair ``(a, b)``, and ``rank_matrix`` builds it so from the bottom
row up.  Both touch each row once, so either costs O(n^2) bytes.

A matrix is stored once, as its strict upper triangle packed into one
integer: cell ``o`` (rows top to bottom, each holding columns ``i+1..n``)
fills ``width`` bytes from byte ``width * o``, and the top bit of each cell is
kept clear as a guard bit.  No window holds more than ``n // 2`` pairs, so
that is the range of a cell, checked once by the constructor, and ``width``
is the narrowest that holds ``n // 2 + 1`` (a search may overshoot by one):
every matrix of rank ``n`` has the one layout.  Cells then add and compare all
at once: ``a <= b`` in every cell exactly when ``((b | G) - a) & G == G``,
with ``G`` the guard bits, because no cell's difference borrows past its own
guard.  The packed rank matrix of the single pair ``(a, b)`` is the mask of
the windows that hold it; the search for everything below a bound adds one
mask per pair, and those masks (``_pair_masks``) are built only there.
``meet`` and the filter for the maximal nodes of that search
(``_maximal_below``) work on the packed ints too.  No other module knows
this layout.

That search (``_below_bound``) is one loop over an explicit stack, not a
recursion, so a node is not passed up through its ancestors' frames.  Its
state is the pairs, the packed counts and the free points as the bits of
one int, from which pairs are chosen by bit operations.  Only a child that
fits is pushed, and each is yielded later, so the stack never holds more
than the rest of the output.  The nodes come in preorder, so
``_maximal_below`` reads the leaves off the walk, tests only those for
saturation, filters the saturated ones as packed ints in descending order
and reads the few it keeps back with ``_involution_of``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Iterator

from .errors import InvalidRankMatrix, OutOfRange, SizeMismatch
from .involutions import Involution, Pair, _trusted
from .limits import CACHE_SIZE


def _tri_len(n: int) -> int:
    return n * (n - 1) // 2


def _offset(n: int, i: int, j: int) -> int:
    # rows are stored top to bottom, each row holding columns i+1..n
    return (i - 1) * n - i * (i - 1) // 2 + (j - i - 1)


def _width(n: int) -> int:
    """Bytes per cell with room below the guard bit for ``n // 2 + 1``.

    No window holds more than ``n // 2`` pairs; a search may overshoot by one.
    """
    return ((n // 2 + 1).bit_length() + 8) // 8


@lru_cache(maxsize=4)
def _guard(n: int) -> int:
    """The top bit of every cell at rank ``n``.

    As large as a whole packed matrix, so only four ranks are kept, as in
    :func:`_pair_masks`: a suite or a query walks at most a few at a time.
    """
    width = _width(n)
    top_bit = (0x80 << 8 * (width - 1)).to_bytes(width, "little")
    return int.from_bytes(top_bit * _tri_len(n), "little")


@lru_cache(maxsize=16)
def _ones(n: int) -> int:
    """One in each of ``n`` cells at rank ``n``: shifted down, a row's run of ones."""
    return int.from_bytes((1).to_bytes(_width(n), "little") * n, "little")


def _pack(n: int, cells: tuple[int, ...]) -> int:
    """``cells`` in ``0..n // 2`` packed at ``_width(n)``."""
    width = _width(n)
    if width == 1:
        return int.from_bytes(bytes(cells), "little")
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in cells), "little")


def _unpack(n: int, packed: int) -> tuple[int, ...]:
    width = _width(n)
    raw = packed.to_bytes(_tri_len(n) * width, "little")
    if width == 1:
        return tuple(raw)
    return tuple(int.from_bytes(raw[o : o + width], "little") for o in range(0, len(raw), width))


class _MaskRow(dict):
    """``row[b]``: the packed windows ``(i, j)`` with ``i <= a`` and ``b <= j``.

    That is the packed rank matrix of the single pair ``(a, b)``, built on
    first use.
    """

    def __init__(self, n: int, a: int) -> None:
        super().__init__()
        self.n, self.a = n, a

    def __missing__(self, b: int) -> int:
        n, width = self.n, _width(self.n)
        one, zero = (1).to_bytes(width, "little"), bytes(width)
        # row i holds columns i+1..n; rows below a are zero, the high end of the int
        rows = (zero * (b - i - 1) + one * (n - b + 1) for i in range(1, self.a + 1))
        mask = self[b] = int.from_bytes(b"".join(rows), "little")
        return mask


@lru_cache(maxsize=4)
def _pair_masks(n: int) -> tuple[_MaskRow | None, ...]:
    """``_pair_masks(n)[a][b]``: packed windows holding the pair ``(a, b)``.

    Masks are built on first use, so the cost follows the pairs callers ask
    about rather than the O(n^4) cells of a full table.  Only the search
    below a bound reads them; ``rank_matrix`` and ``_involution_of`` never do.
    """
    return (None, *(_MaskRow(n, a) for a in range(1, n + 1)))


@dataclass(frozen=True, init=False, repr=False, slots=True)
class RankMatrix:
    """Strictly upper-triangular matrix with entries in ``0..n // 2``.

    ``RankMatrix(n, cells)`` takes the strict upper triangle row by row and
    stores it as ``n`` and ``packed``, its cells at ``_width(n)`` bytes each
    (see the module docstring).  ``cells``, ``entry`` and ``to_rows`` are
    derived; ``entry`` reads 0 on and below the diagonal and outside the
    index range.
    """

    n: int
    packed: int

    def __init__(self, n: int, cells: tuple[int, ...]) -> None:
        if n < 1:
            raise OutOfRange(f"ambient rank must be >= 1, got {n}")
        if len(cells) != _tri_len(n):
            raise SizeMismatch(f"expected {_tri_len(n)} cells for n={n}, got {len(cells)}")
        if cells and min(cells) < 0:
            raise OutOfRange("rank matrix entries must be nonnegative")
        if cells and max(cells) > n // 2:
            raise OutOfRange(f"rank matrix entries must be at most n // 2 = {n // 2}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "packed", _pack(n, cells))

    @classmethod
    def _from_packed(cls, n: int, packed: int) -> "RankMatrix":
        """Unchecked constructor from cells packed at width ``_width(n)``, each below its guard bit."""
        m = object.__new__(cls)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "packed", packed)
        return m

    @property
    def cells(self) -> tuple[int, ...]:
        """The strict upper triangle, row by row."""
        return _unpack(self.n, self.packed)

    def __repr__(self) -> str:
        return f"RankMatrix(n={self.n!r}, cells={self.cells!r})"

    def entry(self, i: int, j: int) -> int:
        if i < 1 or j > self.n or i >= j:
            return 0
        bits = 8 * _width(self.n)
        return (self.packed >> bits * _offset(self.n, i, j)) & ((1 << bits) - 1)

    def to_rows(self) -> list[list[int]]:
        """Dense n-by-n list form (lower triangle zeros included)."""
        cells = iter(self.cells)
        return [[0] * i + list(islice(cells, self.n - i)) for i in range(1, self.n + 1)]

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "RankMatrix":
        """Build from a dense square list of lists of integers.

        Raises SizeMismatch unless ``rows`` is a non-empty square list of
        lists, InvalidRankMatrix for a cell that is not an ``int`` (bools
        included) or a nonzero cell on or below the diagonal, and OutOfRange
        for a cell outside ``0..n // 2``.
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
                if i < j:
                    cells.append(v)
                elif v != 0:
                    raise InvalidRankMatrix(f"entry ({i},{j}) on or below the diagonal must be 0")
        return cls(n, tuple(cells))

    def format_grid(self) -> str:
        """Aligned text grid for terminal display."""
        rows = self.to_rows()
        width = max(len(str(v)) for row in rows for v in row)
        return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in rows)


@lru_cache(maxsize=CACHE_SIZE)
def rank_matrix(inv: Involution) -> RankMatrix:
    """Matrix whose (i,j) entry counts the pairs of ``inv`` inside [i, j].

    Built from the bottom row up: row ``i`` is row ``i + 1`` moved one cell
    right (``r(i + 1, i + 1)`` is 0), plus a one in every column from ``b``
    on when ``i`` opens the pair ``(i, b)``.  Each row is written to bytes
    once and the rows are joined once, so the cost is O(n^2) bytes.
    """
    n, width = inv.n, _width(inv.n)
    cell = 8 * width
    partner = [0] * (n + 1)
    for a, b in inv.pairs:
        partner[a] = b
    ones = _ones(n)
    row, chunks = 0, []
    for i in range(n - 1, 0, -1):  # row i holds columns i+1..n
        row <<= cell
        if partner[i]:
            skip = cell * (partner[i] - i - 1)
            row += (ones >> cell * i) >> skip << skip
        chunks.append(row.to_bytes((n - i) * width, "little"))
    chunks.reverse()
    return RankMatrix._from_packed(n, int.from_bytes(b"".join(chunks), "little"))


def _involution_of(r: RankMatrix) -> Involution | None:
    """The involution whose rank matrix is ``r``, or None if there is none.

    Reads the row differences ``D_a(b) = r(a, b) - r(a + 1, b)``, the pairs
    ``(a, b')`` with ``b' <= b``.  ``D_a`` is row ``a`` minus row ``a + 1``
    moved one cell right, one integer subtraction.  So ``r`` is the rank
    matrix of an involution exactly when every nonzero ``D_a`` is a run of
    ones from one cell ``t`` to the end of the row and no point is used
    twice; the pairs are then the ``(a, a + 1 + t)``, found in canonical
    order.  Comparing the difference with the run of ones is exact: each
    cell of row ``a + 1`` plus one stays below its guard bit, so no carry
    can hide a wrong cell.
    """
    n, width = r.n, _width(r.n)
    cell = 8 * width
    raw = r.packed.to_bytes(_tri_len(n) * width, "little")
    ones = _ones(n)
    used = 0  # bit x for each point x already in a pair
    pairs: list[Pair] = []
    end = (n - 1) * width  # row 1 holds columns 2..n
    row = int.from_bytes(raw[:end], "little")
    for a in range(1, n):
        start, end = end, end + (n - a - 1) * width
        below = int.from_bytes(raw[start:end], "little")
        diff = row - (below << cell)
        row = below
        if not diff:
            continue
        skip = ((diff & -diff).bit_length() - 1) // cell * cell
        if diff != (ones >> cell * a) >> skip << skip:
            return None
        b = a + 1 + skip // cell
        ends = 1 << a | 1 << b
        if used & ends:
            return None
        used |= ends
        pairs.append((a, b))
    return _trusted(n, tuple(pairs))


def is_valid(r: RankMatrix) -> bool:
    """Whether ``r`` is the rank matrix of some involution (see :func:`_involution_of`)."""
    return _involution_of(r) is not None


def leq(a: RankMatrix, b: RankMatrix) -> bool:
    """Entrywise order on rank matrices: ``a`` below ``b``.

    Involutions are compared through their :func:`rank_matrix`.  One
    guard-bit test on the packed forms.
    """
    if a.n != b.n:
        raise SizeMismatch(f"cannot compare ranks {a.n} and {b.n}")
    guard = _guard(a.n)
    return ((b.packed | guard) - a.packed) & guard == guard


def meet(a: RankMatrix, b: RankMatrix) -> RankMatrix:
    """Entrywise minimum of two rank matrices.

    The minimum is taken in every cell at once: the guard-bit test marks the
    cells where ``a >= b``, each mark is spread over its cell, and the marked
    cells are read from ``b``, the rest from ``a``.
    """
    n = a.n
    if n != b.n:
        raise SizeMismatch(f"cannot meet ranks {n} and {b.n}")
    guard = _guard(n)
    bits = 8 * _width(n)
    ge = ((a.packed | guard) - b.packed) & guard
    mask = (ge >> (bits - 1)) * ((1 << bits) - 1)
    return RankMatrix._from_packed(n, (b.packed & mask) | (a.packed & ~mask))


def from_rank_matrix(r: RankMatrix) -> Involution:
    """Recover the unique involution with the given rank matrix.

    Raises InvalidRankMatrix unless ``r`` passes :func:`is_valid`.
    """
    inv = _involution_of(r)
    if inv is None:
        raise InvalidRankMatrix("matrix fails the rank-matrix characterisation")
    return inv


_Node = tuple[tuple[Pair, ...], int, int]  # pairs, packed counts, free points


def _below_bound(bound: RankMatrix) -> Iterator[_Node]:
    """Every involution whose rank matrix lies entrywise below ``bound``.

    Yields the canonical pairs, the packed rank matrix (for
    :meth:`RankMatrix._from_packed`) and the free points as the bits of one
    int.  A depth-first search adds pairs with increasing first entries;
    adding ``(a, b)`` adds its window mask.  Counts only grow, so a branch is
    dropped as soon as one window would pass the bound.

    The fit rule: ``(a, b)`` raises the windows ``(i, j)`` with ``i <= a``
    and ``j >= b``, a subset of what ``(a', b')`` raises when ``a <= a'`` and
    ``b >= b'``.  So at one first entry, once a second entry fails every
    smaller one fails too; and the first pair tried at ``a``, ``(a, last
    free point)``, is the weakest pair there and at every later first entry,
    so if it fails the node is done.  The cuts skip only tests that would
    fail, and the work follows the size of the output.  Each involution is
    yielded once, in no promised order.

    The search is one loop over an explicit stack.  An entry is a node and
    its first entries left: the free points past the first entry of its last
    pair, as bits.  First entries are read off the
    bits lowest first, second entries highest first.  A popped node is
    yielded, and its children (every pair that fits) are pushed in reverse,
    so nodes come off in the preorder of a recursive search.  Every pushed
    child is a node still to be yielded, so the stack never holds more than
    the rest of the output.
    """
    n = bound.n
    masks = _pair_masks(n)
    guard = _guard(n)
    cap = bound.packed | guard
    points = (1 << (n + 1)) - 2  # bit x for each point x in 1..n
    stack = [((), 0, points, points)]
    pop = stack.pop
    while stack:
        pairs, counts, free, firsts = pop()
        yield pairs, counts, free
        last_bit = 1 << free.bit_length() >> 1  # the largest free point, 0 if none
        lows = firsts & (last_bit - 1)  # first entries below the largest free point
        children = []
        while lows:
            a_bit = lows & -lows
            lows ^= a_bit
            a = a_bit.bit_length() - 1
            row = masks[a]
            above = free & -(a_bit << 1)  # the free points past a, where b runs down
            seconds = above
            while seconds:
                b = seconds.bit_length() - 1
                b_bit = 1 << b
                raised = counts + row[b]
                if (cap - raised) & guard != guard:
                    break  # every smaller b fails too
                children.append((pairs + ((a, b),), raised, free ^ a_bit ^ b_bit, above ^ b_bit))
                seconds ^= b_bit
            if seconds == above:  # the weakest pair at a failed, so every later a fails
                break
        children.reverse()
        stack += children


def _maximal_below(bound: RankMatrix) -> list[tuple[Pair, ...]]:
    """The canonical pairs of the maximal involutions below ``bound``.

    Reads :func:`_below_bound` and keeps only its saturated nodes: those to
    which no free pair can be added within the bound.  Adding a pair raises
    the rank matrix, so an unsaturated node lies strictly below another node
    and is not maximal; and as every node lies below a maximal one, the
    maximal saturated nodes are the maximal nodes.  A saturated node has no
    child, and the search yields a preorder, where a node's first child comes
    right after it: so a node is a leaf exactly when the next node has no
    more pairs than it does, and only leaves are tested.  By the fit rule of
    :func:`_below_bound`, the pair of the first and the last free point is
    the weakest free pair, and one fit test on it, read off the free bits
    the search yields, decides saturation.

    The saturated leaves are held as packed ints only and sorted in
    descending order.  Cells never overlap, so entrywise ``<=`` implies
    ``<=`` as integers, and no candidate lies above an earlier one: a
    candidate is kept when it lies below no kept node (the guard-bit test),
    and the kept list never shrinks.  The few kept matrices are then read
    back as involutions by :func:`_involution_of`.  The order of the result
    is not promised.
    """
    n = bound.n
    masks = _pair_masks(n)
    guard = _guard(n)
    cap = bound.packed | guard
    saturated: list[int] = []
    depth, counts, free = -1, 0, 0  # the node before, yet to be tested
    # a root-level sentinel ends the last node, which is always a leaf
    for pairs, next_counts, next_free in chain(_below_bound(bound), (((), 0, 0),)):
        if len(pairs) <= depth:  # the node before has no child, so it is a leaf
            if not free & (free - 1):  # fewer than two free points
                saturated.append(counts)
            else:
                first, last = (free & -free).bit_length() - 1, free.bit_length() - 1
                if (cap - counts - masks[first][last]) & guard != guard:
                    saturated.append(counts)
        depth, counts, free = len(pairs), next_counts, next_free
    saturated.sort(reverse=True)
    kept: list[int] = []
    for counts in saturated:
        for top in kept:
            if ((top | guard) - counts) & guard == guard:
                break  # below a kept node
        else:
            kept.append(counts)
    return [_involution_of(RankMatrix._from_packed(n, top)).pairs for top in kept]
