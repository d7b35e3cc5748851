"""Rank matrices: displayed values, validity clauses, order, recovery."""

import dataclasses
import itertools
import random
from operator import le

import pytest

from orbitposet import (
    InvalidRankMatrix,
    Involution,
    RankMatrix,
    SizeMismatch,
    all_involutions,
    from_rank_matrix,
    is_valid,
    leq,
    meet,
    rank_matrix,
)

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
    assert leq(inv("(1,3)", 3), inv("(1,2)", 3))
    assert not leq(inv("(1,2)", 3), inv("(1,3)", 3))
    r = rank_matrix(inv("(1,2)", 3))
    assert leq(r, r)
    with pytest.raises(SizeMismatch):
        leq(inv("(1,2)", 3), inv("(1,2)", 4))


def test_minimal_orbit_below_everything_longer():
    from orbitposet import sigma_o

    for n in range(1, 8):
        for k in range(n // 2 + 1):
            base = sigma_o(n, k)
            for e in all_involutions(n):
                if e.length >= k:
                    assert leq(base, e)


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


def test_validity_soundness_small():
    # every step-condition candidate that passes is_valid is an image, and
    # conversely; candidates generated independently of the library predicate
    from orbitposet.oracle import _step_matrices

    for n in range(1, 6):
        images = {rank_matrix(e) for e in all_involutions(n)}
        valid = {r for r in _step_matrices(n) if is_valid(r)}
        assert images == valid


def test_grid_format():
    grid = rank_matrix(inv("(1,5)(3,4)", 5)).format_grid()
    assert grid.splitlines()[0] == "0 0 0 1 2"
    assert len(grid.splitlines()) == 5


def test_json_dict():
    d = rank_matrix(inv("(1,5)(3,4)", 5)).to_json_dict()
    assert d == {"rank_matrix": R_A_ROWS}
    assert RankMatrix.from_rows(d["rank_matrix"]) == rank_matrix(inv("(1,5)(3,4)", 5))


def _tuple_leq(a, b):
    return all(map(le, a.cells, b.cells))


def test_packed_form_round_trips_every_rank_matrix_to_n7():
    for n in range(1, 8):
        for e in all_involutions(n):
            m = rank_matrix(e)
            assert m.packed is not None
            back = RankMatrix._from_packed(n, m.packed)
            assert back == m and back.cells == m.cells and back.packed == m.packed


def test_packed_form_is_not_a_field():
    m = rank_matrix(inv("(1,5)(3,4)", 5))
    twin = RankMatrix(5, m.cells)
    object.__setattr__(twin, "packed", None)
    assert "packed" not in {f.name for f in dataclasses.fields(RankMatrix)}
    assert twin == m and hash(twin) == hash(m)
    assert not twin < m and not m < twin
    assert twin.to_rows() == m.to_rows() and repr(twin) == repr(m)
    assert sorted([twin, rank_matrix(inv("(2,4)(3,5)", 5))]) == sorted(
        [m, rank_matrix(inv("(2,4)(3,5)", 5))]
    )


def test_leq_matches_cells_on_random_matrices():
    # not only images: any nonnegative cells that fit the packing
    draw = random.Random("packed-leq")
    for n in (2, 5, 8, 13):
        cells = n * (n - 1) // 2
        for _ in range(300):
            top = draw.choice((1, 2, n // 2 + 1, 127))
            a = RankMatrix(n, tuple(draw.randint(0, top) for _ in range(cells)))
            b = RankMatrix(n, tuple(min(top, c + draw.randint(-1, 1)) if c else 0 for c in a.cells))
            assert a.packed is not None and b.packed is not None
            assert leq(a, b) == _tuple_leq(a, b)
            assert leq(b, a) == _tuple_leq(b, a)


def test_cell_width_holds_one_past_the_largest_count():
    from orbitposet.rank_matrices import _layout

    for n in range(1, 600):
        size = _layout(n)[0]
        assert (n // 2 + 1) < 1 << (8 * size - 1)
        assert size == 1 or (n // 2 + 1) >= 1 << (8 * size - 9)
    # n // 2 + 1 stops fitting below one byte's guard bit at n = 254
    assert _layout(253)[0] == 1 and _layout(254)[0] == 2


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


EDGE_VALUES = (0, 1, 2, 126, 127, 128, 255, 256, 1000)


def test_cells_past_the_packing_edge_fall_back_to_tuples():
    # only an invalid from_rows matrix can carry cells this large
    mats = [
        RankMatrix.from_rows([[0, x, y], [0, 0, z], [0, 0, 0]])
        for x, y, z in itertools.product(EDGE_VALUES, (0, 127, 128, 1000), (0, 1, 255))
    ]
    for m in mats:
        assert (m.packed is None) == (max(m.cells) >= 128)
    for a, b in itertools.product(mats, repeat=2):
        assert leq(a, b) == _tuple_leq(a, b)
        low = meet(a, b)
        assert low.cells == tuple(map(min, a.cells, b.cells))
        assert (low.packed is None) == (max(low.cells) >= 128)
