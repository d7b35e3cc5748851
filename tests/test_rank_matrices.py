"""Rank matrices: displayed values, validity clauses, order, recovery."""

import ast
import dataclasses
import random
import re
import tracemalloc
from operator import le
from pathlib import Path

import pytest

import orbitposet
from orbitposet import (
    InvalidRankMatrix,
    Involution,
    OutOfRange,
    RankMatrix,
    SizeMismatch,
    all_involutions,
    canonicalize,
    dimension,
    from_rank_matrix,
    is_valid,
    leq,
    meet,
    rank_matrix,
)
from orbitposet.limits import CACHE_SIZE
from orbitposet.rank_matrices import _guard, _involution_of, _pair_masks

# the reducible n=5 example: both matrices appear displayed in full
R_A_ROWS = [
    [0, 0, 0, 1, 2],
    [0, 0, 0, 1, 1],
    [0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
]
R_B_ROWS = [
    [0, 0, 0, 1, 2],
    [0, 0, 0, 1, 2],
    [0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
]
MEET_ROWS = [
    [0, 0, 0, 1, 2],
    [0, 0, 0, 1, 1],
    [0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
]


def inv(text, n):
    return Involution.parse(text, n)


def test_displayed_rank_matrices():
    assert rank_matrix(inv("(1,5)(3,4)", 5)).to_rows() == R_A_ROWS
    assert rank_matrix(inv("(2,4)(3,5)", 5)).to_rows() == R_B_ROWS


def test_identity_rank_matrix_is_zero():
    assert rank_matrix(Involution.identity(4)).to_rows() == [[0] * 4 for _ in range(4)]


def test_meet_of_displayed_matrices():
    joint = meet(rank_matrix(inv("(1,5)(3,4)", 5)), rank_matrix(inv("(2,4)(3,5)", 5)))
    assert joint.to_rows() == MEET_ROWS
    assert not is_valid(joint)


def test_meet_trivia():
    r = rank_matrix(inv("(1,4)(2,3)", 4))
    assert meet(r, r) == r
    zero = rank_matrix(Involution.identity(4))
    assert meet(r, zero) == zero
    with pytest.raises(SizeMismatch):
        meet(r, rank_matrix(Involution.identity(5)))


def test_is_valid_on_images():
    assert is_valid(rank_matrix(inv("(1,5)(3,4)", 5)))
    assert is_valid(rank_matrix(Involution.identity(6)))
    for n in range(1, 7):
        for e in all_involutions(n):
            assert is_valid(rank_matrix(e))


def test_from_rows_rejects_lower_triangle():
    with pytest.raises(InvalidRankMatrix):
        RankMatrix.from_rows([[0, 1], [1, 0]])


def test_corner_entry_counts_pairs():
    for n in range(2, 7):
        for e in all_involutions(n):
            assert rank_matrix(e).entry(1, n) == e.length


def test_leq_examples():
    assert leq(rank_matrix(inv("(1,3)", 3)), rank_matrix(inv("(1,2)", 3)))
    assert not leq(rank_matrix(inv("(1,2)", 3)), rank_matrix(inv("(1,3)", 3)))
    r = rank_matrix(inv("(1,2)", 3))
    assert leq(r, r)
    with pytest.raises(SizeMismatch):
        leq(rank_matrix(inv("(1,2)", 3)), rank_matrix(inv("(1,2)", 4)))


def test_minimal_orbit_below_everything_longer():
    from orbitposet import sigma_o

    for n in range(1, 8):
        for k in range(n // 2 + 1):
            base = sigma_o(n, k)
            for e in all_involutions(n):
                if e.length >= k:
                    assert leq(rank_matrix(base), rank_matrix(e))


def test_partial_order_axioms_small():
    import itertools

    for n in range(1, 6):
        els = list(all_involutions(n))
        mats = {e: rank_matrix(e) for e in els}
        for e in els:
            assert leq(mats[e], mats[e])
        for a, b in itertools.permutations(els, 2):
            if leq(mats[a], mats[b]) and leq(mats[b], mats[a]):
                pytest.fail(f"antisymmetry broken at {a}, {b}")
    els = list(all_involutions(4))
    mats = {e: rank_matrix(e) for e in els}
    import itertools as it

    for a, b, c in it.product(els, repeat=3):
        if leq(mats[a], mats[b]) and leq(mats[b], mats[c]):
            assert leq(mats[a], mats[c])


def test_recovery_roundtrip_examples():
    e = inv("(1,5)(3,4)", 5)
    assert from_rank_matrix(rank_matrix(e)) == e
    assert from_rank_matrix(rank_matrix(Involution.identity(4))) == Involution.identity(4)


def test_recovery_roundtrip_exhaustive():
    for n in range(1, 7):
        for e in all_involutions(n):
            assert from_rank_matrix(rank_matrix(e)) == e


def test_recovery_rejects_invalid():
    joint = meet(rank_matrix(inv("(1,5)(3,4)", 5)), rank_matrix(inv("(2,4)(3,5)", 5)))
    with pytest.raises(InvalidRankMatrix):
        from_rank_matrix(joint)
    with pytest.raises(OutOfRange):  # one second difference of 300, past n // 2
        RankMatrix.from_rows([[0, 300], [0, 0]])


def test_validity_soundness_small():
    # every step-condition candidate that passes is_valid is an image, and
    # conversely; candidates generated independently of the library predicate
    from orbitposet.oracle import _step_matrices

    for n in range(1, 7):
        images = {rank_matrix(e) for e in all_involutions(n)}
        valid = {r for r in _step_matrices(n) if is_valid(r)}
        assert images == valid


def test_grid_format():
    grid = rank_matrix(inv("(1,5)(3,4)", 5)).format_grid()
    assert grid.splitlines()[0] == "0 0 0 1 2"
    assert len(grid.splitlines()) == 5


def _tuple_leq(a, b):
    return all(map(le, a.cells, b.cells))


def _cell_meet(a, b):
    return RankMatrix(a.n, tuple(map(min, a.cells, b.cells)))


def test_packed_form_round_trips_every_rank_matrix_to_n7():
    for n in range(1, 8):
        for e in all_involutions(n):
            m = rank_matrix(e)
            assert m.packed is not None
            back = RankMatrix._from_packed(n, m.packed)
            assert back == m and back.cells == m.cells and back.packed == m.packed


@pytest.mark.parametrize(
    "n, cells, error, message",
    [
        (0, (), OutOfRange, "ambient rank must be >= 1, got 0"),
        (3, (0, 0), SizeMismatch, "expected 3 cells for n=3, got 2"),
        (3, (0, -1, 0), OutOfRange, "rank matrix entries must be nonnegative"),
        (3, (0, 2, 0), OutOfRange, "rank matrix entries must be at most n // 2 = 1"),
    ],
)
def test_rank_matrix_rejections(n, cells, error, message):
    with pytest.raises(error, match=re.escape(message)):
        RankMatrix(n, cells)


def test_entry_reads_zero_off_the_strict_upper_triangle():
    for n in range(1, 6):
        for e in all_involutions(n):
            r = rank_matrix(e)
            for i in range(-1, n + 3):
                for j in range(-1, n + 3):
                    if not 1 <= i < j <= n:
                        assert r.entry(i, j) == 0, (e, i, j)


def test_from_rows_rejects_a_cell_above_half_the_rank():
    assert RankMatrix.from_rows([[0, 1, 1], [0, 0, 1], [0, 0, 0]]).cells == (1, 1, 1)
    huge = 10**4000
    for rows in ([[0, 2], [0, 0]], [[0, 0, 2], [0, 0, 0], [0, 0, 0]], [[0, huge], [0, 0]]):
        with pytest.raises(OutOfRange, match=r"^rank matrix entries must be at most n // 2 = 1$"):
            RankMatrix.from_rows(rows)


def test_packed_form_is_the_only_field():
    m = rank_matrix(inv("(1,5)(3,4)", 5))
    assert [f.name for f in dataclasses.fields(RankMatrix)] == ["n", "packed"]
    assert not hasattr(m, "__dict__")
    assert repr(m) == "RankMatrix(n=5, cells=(0, 0, 1, 2, 0, 1, 1, 1, 1, 0))"
    twin = RankMatrix(5, m.cells)
    assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)


def test_leq_matches_cells_on_random_matrices():
    # not only images: any cells in 0..n // 2
    draw = random.Random("packed-leq")
    for n in (2, 5, 8, 13):
        cells = n * (n - 1) // 2
        for _ in range(300):
            top = min(draw.choice((1, 2, n // 2)), n // 2)
            a = RankMatrix(n, tuple(draw.randint(0, top) for _ in range(cells)))
            b = RankMatrix(n, tuple(min(top, c + draw.randint(-1, 1)) if c else 0 for c in a.cells))
            assert a.packed is not None and b.packed is not None
            assert leq(a, b) == _tuple_leq(a, b)
            assert leq(b, a) == _tuple_leq(b, a)


def test_cell_width_holds_one_past_the_largest_count():
    from orbitposet.rank_matrices import _width

    for n in range(1, 600):
        size = _width(n)
        assert (n // 2 + 1) < 1 << (8 * size - 1)
        assert size == 1 or (n // 2 + 1) >= 1 << (8 * size - 9)
    # n // 2 + 1 stops fitting below one byte's guard bit at n = 254
    assert _width(253) == 1 and _width(254) == 2


def test_two_byte_cells_round_trip_and_compare():
    draw = random.Random("packed-wide")
    for n in (253, 254):
        m = rank_matrix(Involution(n, tuple((s, n + 1 - s) for s in range(1, n // 2 + 1))))
        assert max(m.cells) == n // 2
        assert RankMatrix._from_packed(n, m.packed) == m
        other = RankMatrix(n, tuple(max(0, c - draw.randint(0, 1)) for c in m.cells))
        assert other != m
        assert leq(other, m) and not leq(m, other)
        assert meet(other, m) == other



def test_meet_matches_the_cell_minimum_on_random_matrices():
    # the minimum is taken per cell on the packed ints; equality covers width
    # and packed form, so the result is the repacked minimum
    draw = random.Random("packed-meet")
    for n in range(1, 31):
        cells = n * (n - 1) // 2
        for _ in range(40):
            top = draw.choice((1, n // 2))
            a = RankMatrix(n, tuple(draw.randint(0, top) for _ in range(cells)))
            b = RankMatrix(n, tuple(draw.randint(0, draw.choice((1, top))) for _ in range(cells)))
            for x, y in ((a, b), (b, a), (a, a)):
                low, expected = meet(x, y), _cell_meet(x, y)
                assert low == expected and hash(low) == hash(expected)
    for n in (253, 254):
        e = _random_involution(draw, n, n // 2)
        f = _random_involution(draw, n, n // 2)
        assert meet(rank_matrix(e), rank_matrix(f)) == _cell_meet(rank_matrix(e), rank_matrix(f))


def _window_counts(e):
    n = e.n
    return tuple(
        sum(1 for a, b in e.pairs if i <= a and b <= j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )


def _random_involution(draw, n, k):
    points = draw.sample(range(1, n + 1), 2 * k)
    return canonicalize(zip(points[::2], points[1::2]), n)


def test_rank_matrix_is_the_window_count():
    # the row-by-row build against the literal definition, across the one-to-two-byte step
    draw = random.Random("mask-sum")
    for n, k_top in [*((n, n // 2) for n in range(1, 31) for _ in range(5)), (253, 6), (254, 6)]:
        e = _random_involution(draw, n, draw.randint(0, k_top))
        assert rank_matrix(e).cells == _window_counts(e), e


def test_value_caches_stay_within_their_bound():
    draw = random.Random("cache-bound")
    fresh = set()
    while len(fresh) < CACHE_SIZE + 500:
        e = _random_involution(draw, 30, draw.randint(1, 15))
        if e not in fresh:
            fresh.add(e)
            rank_matrix(e)
            dimension(e)
    for cached in (rank_matrix, dimension):
        info = cached.cache_info()
        assert info.maxsize == info.currsize == CACHE_SIZE
        cached.cache_clear()


def test_a_cached_rank_matrix_takes_under_a_kilobyte():
    draw = random.Random("matrix-memory")
    invs = [_random_involution(draw, 30, 15) for _ in range(2000)]
    rank_matrix.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for e in invs:
            rank_matrix(e)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        rank_matrix.cache_clear()
    assert used / len(invs) <= 1024, used / len(invs)


def _reference_involution_of(r):
    """Recovery by second differences on a dense grid: the reference for ``_involution_of``.

    ``d(a, b) = r(a,b) - r(a+1,b) - r(a,b-1) + r(a+1,b-1)`` on the matrix
    framed by zeros; ``r`` is a rank matrix exactly when every ``d`` is 0 or
    1 and no two unit cells share a point, and the unit cells are the pairs.
    """
    n = r.n
    pad = [0] * (n + 2)
    g = [pad, *([0, *row, 0] for row in r.to_rows()), pad]
    used = [False] * (n + 1)
    pairs = []
    for a in range(1, n + 1):
        row, below = g[a], g[a + 1]
        for b in range(a + 1, n + 1):
            d = row[b] - below[b] - row[b - 1] + below[b - 1]
            if d == 0:
                continue
            if d != 1 or used[a] or used[b]:
                return None
            used[a] = used[b] = True
            pairs.append((a, b))
    return Involution(n, tuple(pairs))


def _near_image(draw, n):
    """An image with one cell moved by one, kept in ``0..n // 2``: mostly not an image."""
    cells = list(rank_matrix(_random_involution(draw, n, draw.randint(0, n // 2))).cells)
    if cells:
        o = draw.randrange(len(cells))
        cells[o] = min(n // 2, max(0, cells[o] + draw.choice((-1, 1))))
    return RankMatrix(n, tuple(cells))


def test_involution_of_matches_the_second_differences():
    from orbitposet.oracle import _step_matrices

    for n in range(1, 7):
        for r in _step_matrices(n):
            assert _involution_of(r) == _reference_involution_of(r), r
    draw = random.Random("row-recovery")
    for _ in range(1500):
        n = draw.randint(1, 16)
        top = min(draw.choice((1, 2, n // 2)), n // 2)
        noise = RankMatrix(n, tuple(draw.randint(0, top) for _ in range(n * (n - 1) // 2)))
        for r in (noise, _near_image(draw, n)):
            assert _involution_of(r) == _reference_involution_of(r), r
    for _ in range(1500):
        n = draw.randint(2, 40)
        a, b = (_random_involution(draw, n, draw.randint(0, n // 2)) for _ in "ab")
        r = meet(rank_matrix(a), rank_matrix(b))
        assert _involution_of(r) == _reference_involution_of(r), (a, b)
    for n in (253, 254, 600):
        e = _random_involution(draw, n, n // 2)
        assert _involution_of(rank_matrix(e)) == _reference_involution_of(rank_matrix(e)) == e


def test_rank_matrix_is_the_mask_sum():
    # the row-by-row build against the sum of its pairs' window masks; masks
    # of up to n^2 cells each, so few pairs at large n
    draw = random.Random("row-build")
    try:
        for n in range(1, 10):
            masks = _pair_masks(n)
            for e in all_involutions(n):
                assert rank_matrix(e).packed == sum(masks[a][b] for a, b in e.pairs), e
        sizes = [*((n, n // 2) for n in range(10, 60)), (100, 50), (253, 20), (254, 20), (700, 6), (2000, 3)]
        for n, k_top in sizes:
            e = _random_involution(draw, n, draw.randint(0, k_top))
            masks = _pair_masks(n)
            assert rank_matrix(e).packed == sum(masks[a][b] for a, b in e.pairs), e
    finally:
        _pair_masks.cache_clear()
    # and every pair at n = 2 000, at sampled windows against the literal count
    e = _random_involution(draw, 2000, 1000)
    r = rank_matrix(e)
    for _ in range(300):
        i, j = sorted(draw.sample(range(1, 2001), 2))
        assert r.entry(i, j) == sum(1 for a, b in e.pairs if i <= a and b <= j), (i, j)
    assert _involution_of(r) == e


def test_leq_at_n_1600_builds_no_masks():
    # O(n^2) bytes: two 2.6 MB matrices, no per-pair masks of up to n^2 cells
    draw = random.Random("leq-memory")
    a, b = (_random_involution(draw, 1600, 800) for _ in "ab")
    _pair_masks.cache_clear()
    rank_matrix.cache_clear()
    tracemalloc.start()
    try:
        leq(rank_matrix(a), rank_matrix(b))
        recovered = _involution_of(rank_matrix(a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        rank_matrix.cache_clear()
    assert _pair_masks.cache_info().currsize == 0
    assert peak < 32 * 2**20, peak
    assert recovered == a


def test_leq_at_sixteen_large_ranks_holds_under_12_mb():
    # each guard is as large as a packed matrix, 2.6 MB at n = 1 600, and the
    # cache keeps four ranks: sixteen kept 44 MB after the matrices were dropped
    _guard.cache_clear()
    rank_matrix.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(1600, 1616):
            assert leq(rank_matrix(Involution.identity(n)), rank_matrix(Involution.identity(n)))
        rank_matrix.cache_clear()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _guard.cache_info().currsize == 4
    assert held < 12 * 2**20, held


LAYOUT_NAMES = {"_tri_len", "_offset", "_width", "_guard", "_ones", "_pack", "_unpack", "_MaskRow", "_pair_masks"}


def test_only_rank_matrices_knows_the_packed_layout():
    seen = {}
    for path in sorted(Path(orbitposet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.ImportFrom, ast.Import)):
                names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        seen[path.stem] = names & LAYOUT_NAMES
    assert seen["rank_matrices"] == LAYOUT_NAMES
    assert {module: names for module, names in seen.items() if names and module != "rank_matrices"} == {}
