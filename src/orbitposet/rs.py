"""Row-insertion correspondence and the witness criterion for codimension one.

``rs_pair`` sends a permutation word to its (insertion, recording) pair of
standard Young tableaux; ``rs_word`` inverts it.  A two-column tableau with
column lengths ``(n-k, k)`` is itself a standard tableau whose rows are the
tableau's rows, so the conversion between the two views is direct.
Insertion makes both tableaux standard by construction, so ``rs_pair``
builds them unchecked, with one attribute set per tableau (``_standard``),
and ``rs_word`` reads the shape of each argument once.

``find_rs_witness(T, S)`` searches for a tableau P and an index m such that
the words of (T, P) and (S, P) differ by swapping the values m and m+1; for
column shape ``(n-2, 2)`` such a witness exists exactly when the two orbit
closures intersect in codimension one.

The search is one lockstep pass per candidate P.  Inverse insertion
(``_reverse_bumps``, the one definition ``rs_word`` also reads) yields a
word's letters from the last step down, so the two words of (T, P) and
(S, P) are compared letter by letter as they are produced.  Two different
permutations agree after swapping m and m+1 exactly when they differ in
two positions holding m and m+1, so the pass stops at the third position
that differs.  A candidate thus costs the steps up to its third difference
(a few steps for most candidates), never a whole word, and only the
returned P is built as a validated tableau.  The bump works on a column
form: the rows of two or more boxes as lists, and the one-box rows as one
list, the tail of the first column.  A step pops the tail or a long row and
bisects the long rows above it, so for column shape (n-k, k) it costs O(k)
where climbing every row costs O(n-k).  A miss at n = 16, k = 2 scans all
104 candidates in about 0.6-0.9 ms, where climbing every row took 2.8 ms
(Python 3.11, shared 2-vCPU host); past ``limits.RS_WITNESS_MAX_CANDIDATES``
candidates the search is refused.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import NotAPermutation, ShapeMismatch
from .limits import RS_WITNESS_MAX_CANDIDATES, check_guard
from .tableaux import TwoColumnTableau, _first_column, _second_columns


@dataclass(frozen=True, order=True)
class StandardTableau:
    """Standard Young tableau: rows of a partition filled bijectively by 1..n,
    increasing along rows and down columns."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        lens = [len(r) for r in self.rows]
        if not lens or any(l == 0 for l in lens):
            raise ShapeMismatch("rows must be nonempty")
        if any(lens[i] < lens[i + 1] for i in range(len(lens) - 1)):
            raise ShapeMismatch("row lengths must weakly decrease")
        entries = [x for row in self.rows for x in row]
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise NotAPermutation("entries must be exactly 1..n")
        for row in self.rows:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ShapeMismatch("rows must strictly increase")
        for r in range(len(self.rows) - 1):
            for c in range(len(self.rows[r + 1])):
                if self.rows[r][c] >= self.rows[r + 1][c]:
                    raise ShapeMismatch("columns must strictly increase")

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)


def rs_pair(word: tuple[int, ...] | list[int]) -> tuple[StandardTableau, StandardTableau]:
    """Row-insert a permutation word; returns (insertion, recording) tableaux."""
    w = tuple(word)
    if not w:  # no tableau has zero boxes
        raise NotAPermutation("the word must be nonempty")
    if sorted(w) != list(range(1, len(w) + 1)):
        raise NotAPermutation(f"{w} is not a permutation of 1..{len(w)}")
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, value in enumerate(w, start=1):
        x = value
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([x])
                q_rows.append([step])
                break
            row = p_rows[r]
            pos = bisect_left(row, x)
            if pos == len(row):
                row.append(x)
                q_rows[r].append(step)
                break
            row[pos], x = x, row[pos]
            r += 1
    # both are standard by construction
    return _standard(tuple(map(tuple, p_rows))), _standard(tuple(map(tuple, q_rows)))


def _standard(rows: tuple[tuple[int, ...], ...]) -> StandardTableau:
    """``_unchecked(StandardTableau, rows=rows)`` for standard rows, unrolled:
    one call per tableau, no keyword loop."""
    tab = object.__new__(StandardTableau)
    object.__setattr__(tab, "rows", rows)
    return tab


def _row_index(rows: Sequence[Sequence[int]], n: int) -> list[int]:
    """``out[v]`` is the row that holds entry v of a tableau of 1..n (``out[0]`` unused)."""
    out = [0] * (n + 1)
    for r, row in enumerate(rows):
        for v in row:
            out[v] = r
    return out


def _column_form(p_rows: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The rows of two or more boxes, top first, and the tail of the first
    column: the entries of the one-box rows, bottom first."""
    rows = tuple(tuple(r) for r in p_rows if len(r) > 1)
    tail = tuple(r[0] for r in reversed(p_rows) if len(r) == 1)
    return rows, tail


def _reverse_bumps(
    long_rows: Sequence[Sequence[int]], tail: Sequence[int], row_of_step: Sequence[int]
) -> Iterator[int]:
    """The letters of the word with insertion tableau ``(long_rows, tail)``
    (see :func:`_column_form`), last letter first.

    ``row_of_step[s]`` is the row of step s in the recording tableau; a step
    in the first column may give any row at or past the long rows.  Each
    step removes one box and bumps its entry up to the first row, so the
    caller may stop early and pays only for the letters it reads.  A step
    costs one bisection per long row: taking the bottom box of the first
    column moves every one-box row up by one, which is one ``pop`` of the
    tail, and a long row that shrinks to one box joins the tail.
    """
    rows = list(map(list, long_rows))
    tail = list(tail)
    for step in range(len(row_of_step) - 1, 0, -1):
        # the box recorded at this step is rightmost in its row once all
        # later steps have been removed
        r = row_of_step[step]
        if r < len(rows):
            row = rows[r]
            x = row.pop()
            if len(row) == 1:  # only the last long row can shrink to one box
                tail.append(rows.pop()[0])
        else:
            x = tail.pop()
            r = len(rows)
        for rr in range(r - 1, -1, -1):
            row = rows[rr]
            idx = bisect_left(row, x) - 1
            row[idx], x = x, row[idx]
        yield x


def rs_word(p_tab: StandardTableau, q_tab: StandardTableau) -> tuple[int, ...]:
    """Invert :func:`rs_pair`: the word whose insertion pair is (p_tab, q_tab)."""
    p_rows, q_rows = p_tab.rows, q_tab.rows
    shape = list(map(len, p_rows))
    if shape != list(map(len, q_rows)):
        raise ShapeMismatch(f"shapes differ: {p_tab.shape} vs {q_tab.shape}")
    word = list(_reverse_bumps(*_column_form(p_rows), _row_index(q_rows, sum(shape))))
    word.reverse()
    return tuple(word)


def _rows_of_columns(col1: tuple[int, ...], col2: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The rows of a two-column array, top to bottom."""
    return tuple(zip(col1, col2)) + tuple((x,) for x in col1[len(col2):])


def standard_from_two_column(tab: TwoColumnTableau) -> StandardTableau:
    """Read a two-column tableau as a standard tableau row by row."""
    return StandardTableau(_rows_of_columns(tab.col1, tab.col2))


def two_column_from_standard(tab: StandardTableau) -> TwoColumnTableau:
    """Inverse of :func:`standard_from_two_column` (needs at most 2 columns)."""
    if tab.shape[0] > 2:
        raise ShapeMismatch("tableau has more than two columns")
    col1 = tuple(row[0] for row in tab.rows)
    col2 = tuple(row[1] for row in tab.rows if len(row) == 2)
    return TwoColumnTableau(col1, col2)


def _swap_index(word_a: Iterable[int], word_b: Iterable[int]) -> int | None:
    """The m such that swapping the values m and m+1 in ``word_b`` gives
    ``word_a``, for two different permutation words, or None; reads no
    further than their third difference."""
    differ: list[int] = []
    for a, b in zip(word_a, word_b):
        if a != b:
            if len(differ) == 2:
                return None
            differ.append(a)
    if len(differ) == 2 and abs(differ[0] - differ[1]) == 1:
        return min(differ)
    return None


def find_rs_witness(
    tab_t: TwoColumnTableau, tab_s: TwoColumnTableau, max_candidates: int | None = None
) -> tuple[TwoColumnTableau, int] | None:
    """Search for (P, m) with word(T, P) equal to word(S, P) after swapping
    the values m and m+1.

    The scan is deterministic: candidate tableaux in lexicographic order,
    then m ascending; the first hit is returned, None if there is none
    (including the degenerate case T equal to S).  For T and S different,
    the two words of a candidate differ, and at most one m can match them,
    so each candidate is one lockstep pass (see the module docstring).

    A miss scans every tableau of the shape, C(n, k) - C(n, k-1) of them, so
    above ``limits.RS_WITNESS_MAX_CANDIDATES`` (or ``max_candidates``) the
    search raises :class:`TooLarge` before it starts.
    """
    if tab_t.shape != tab_s.shape:
        raise ShapeMismatch(f"shapes differ: {tab_t.shape} vs {tab_s.shape}")
    if tab_t == tab_s:
        return None
    n, k = tab_t.n, tab_t.k
    candidates = comb(n, k) - comb(n, k - 1)  # k >= 1: T and S differ
    check_guard(candidates, RS_WITNESS_MAX_CANDIDATES, max_candidates, "candidate tableaux", "max_candidates")
    t_rows, t_tail = _column_form(_rows_of_columns(tab_t.col1, tab_t.col2))
    s_rows, s_tail = _column_form(_rows_of_columns(tab_s.col1, tab_s.col2))
    for col2 in _second_columns(n, k):
        # a first-column step always leaves from the tail, past the k long rows
        steps = [k] * (n + 1)
        for r, v in enumerate(col2):
            steps[v] = r
        m = _swap_index(_reverse_bumps(t_rows, t_tail, steps), _reverse_bumps(s_rows, s_tail, steps))
        if m is not None:
            return TwoColumnTableau(_first_column(n, col2), col2), m
    return None
