"""Move families pinned against every worked example, plus set-level laws."""

import random

import pytest

from orbitposet import (
    IndexOutOfRange,
    Involution,
    MoveOutcome,
    all_involutions,
    ancestor_moves,
    ancestors,
    brute_covers,
    canonicalize,
    closure,
    cover,
    cover_moves,
    cross_down,
    cross_up,
    delete_pair,
    descendant_moves,
    descendants,
    dimension,
    leq,
    move_down,
    move_left,
    move_right,
    move_up,
    rank_matrix,
    sigma_o,
    swap_down,
    swap_up,
)


def inv(text, n):
    return Involution.parse(text, n)


def at(e, pair):
    return e.pairs.index(pair) + 1


VH = inv("(2,6)(3,5)(7,9)(8,10)", 11)  # vertical/horizontal example
CR = inv("(1,3)(2,4)(5,9)(6,10)(7,8)", 10)  # cross example
SW = inv("(1,7)(2,5)(3,8)(4,6)", 8)  # swap example


@pytest.mark.parametrize(
    "pair,expected",
    [
        ((2, 6), "(1,6)(3,5)(7,9)(8,10)"),
        ((3, 5), None),
        ((7, 9), "(2,6)(3,5)(4,9)(8,10)"),
        # the last value follows from the rule itself (the printed version
        # garbles two unrelated pairs)
        ((8, 10), "(2,6)(3,5)(4,10)(7,9)"),
    ],
)
def test_move_down_examples(pair, expected):
    got = move_down(VH, at(VH, pair))
    assert got == (None if expected is None else inv(expected, 11))


@pytest.mark.parametrize(
    "pair,expected",
    [
        ((2, 6), "(3,5)(4,6)(7,9)(8,10)"),
        ((3, 5), "(2,6)(4,5)(7,9)(8,10)"),
        ((7, 9), None),
        ((8, 10), None),
    ],
)
def test_move_up_examples(pair, expected):
    got = move_up(VH, at(VH, pair))
    assert got == (None if expected is None else inv(expected, 11))


@pytest.mark.parametrize(
    "pair,expected",
    [
        ((2, 6), "(2,11)(3,5)(7,9)(8,10)"),
        ((3, 5), None),
        ((7, 9), "(2,6)(3,5)(7,11)(8,10)"),
        ((8, 10), "(2,6)(3,5)(7,9)(8,11)"),
    ],
)
def test_move_right_examples(pair, expected):
    got = move_right(VH, at(VH, pair))
    assert got == (None if expected is None else inv(expected, 11))


@pytest.mark.parametrize(
    "pair,expected",
    [
        ((2, 6), "(2,4)(3,5)(7,9)(8,10)"),
        ((3, 5), "(2,6)(3,4)(7,9)(8,10)"),
        ((7, 9), None),
        ((8, 10), None),
    ],
)
def test_move_left_examples(pair, expected):
    got = move_left(VH, at(VH, pair))
    assert got == (None if expected is None else inv(expected, 11))


def test_move_index_bounds():
    with pytest.raises(IndexOutOfRange):
        move_down(VH, 5)
    with pytest.raises(IndexOutOfRange):
        cross_down(VH, 0)


@pytest.mark.parametrize(
    "pair,expected",
    [
        ((1, 3), set()),
        ((2, 4), set()),
        ((5, 9), {"(1,3)(2,5)(4,9)(6,10)(7,8)", "(1,5)(2,4)(3,9)(6,10)(7,8)"}),
        ((6, 10), {"(1,3)(2,6)(4,10)(5,9)(7,8)", "(1,6)(2,4)(3,10)(5,9)(7,8)"}),
        ((7, 8), set()),
    ],
)
def test_cross_down_examples(pair, expected):
    got = {str(x) for x in cross_down(CR, at(CR, pair))}
    assert got == expected


@pytest.mark.parametrize(
    "pair,expected",
    [
        ((1, 3), set()),
        ((2, 4), {"(1,2)(3,4)(5,9)(6,10)(7,8)"}),
        ((5, 9), set()),
        ((6, 10), {"(1,3)(2,4)(5,6)(7,8)(9,10)"}),
        ((7, 8), set()),
    ],
)
def test_cross_up_examples(pair, expected):
    got = {str(x) for x in cross_up(CR, at(CR, pair))}
    assert got == expected


@pytest.mark.parametrize(
    "pair,expected",
    [
        ((1, 7), {"(1,5)(2,7)(3,8)(4,6)", "(1,6)(2,5)(3,8)(4,7)"}),
        ((2, 5), set()),
        ((3, 8), {"(1,7)(2,5)(3,6)(4,8)"}),
        ((4, 6), set()),
    ],
)
def test_swap_down_examples(pair, expected):
    got = {str(x) for x in swap_down(SW, at(SW, pair))}
    assert got == expected


@pytest.mark.parametrize(
    "pair,expected",
    [
        ((1, 7), {"(1,8)(2,5)(3,7)(4,6)"}),
        ((2, 5), {"(1,7)(2,8)(3,5)(4,6)", "(1,7)(2,6)(3,8)(4,5)"}),
        ((3, 8), set()),
        ((4, 6), set()),
    ],
)
def test_swap_up_examples(pair, expected):
    got = {str(x) for x in swap_up(SW, at(SW, pair))}
    assert got == expected


def test_cross_up_sees_through_straddling_pairs():
    # a pair may cover part of the gap while starting outside the span of the
    # two exchanged pairs; the inverse relation must still find the ascent
    lower = inv("(1,6)(3,5)(4,8)", 8)
    upper = inv("(1,4)(3,5)(6,8)", 8)
    assert upper in cross_up(lower, at(lower, (4, 8)))
    assert lower in cross_down(upper, at(upper, (6, 8)))
    assert upper in ancestors(lower)


def test_vertical_moves_invert():
    down = move_down(VH, at(VH, (2, 6)))
    assert move_up(down, at(down, (1, 6))) == VH
    up = move_up(VH, at(VH, (2, 6)))
    assert move_down(up, at(up, (4, 6))) == VH


def test_descendants_of_minimal_orbit_empty():
    for n in range(1, 9):
        for k in range(n // 2 + 1):
            assert descendants(sigma_o(n, k)) == set()
    assert descendants(Involution.identity(5)) == set()


def test_descendants_example_n4():
    assert descendants(inv("(1,4)(2,3)", 4)) == {inv("(1,3)(2,4)", 4)}


def test_ancestors_examples():
    assert ancestors(inv("(1,3)(2,4)", 4)) == {
        inv("(1,4)(2,3)", 4),
        inv("(1,2)(3,4)", 4),
    }
    assert ancestors(Involution.identity(3)) == set()


def test_ancestors_of_maximal_orbits_empty():
    from orbitposet import enumerate_tableaux, sigma_T

    for n in range(1, 9):
        for k in range(n // 2 + 1):
            for tab in enumerate_tableaux(n, k):
                assert ancestors(sigma_T(tab)) == set()


# Each down-move tag and the tag of the up-move that undoes it, both ways.
INVERSE_KIND = {"move_down": "move_up", "move_right": "move_left",
                "cross_down": "cross_up", "swap_down": "swap_up"}
INVERSE_KIND |= {up: down for down, up in INVERSE_KIND.items()}


def test_ancestors_equal_inverse_descendants():
    # every down-move read backwards is an up-move, and nothing else is
    inverted, up = [], []
    for n in range(1, 10):
        for e in all_involutions(n):
            inverted += [(m.target, INVERSE_KIND[m.kind], e) for m in descendant_moves(e)]
            up += [(e, m.kind, m.target) for m in ancestor_moves(e)]
    assert len(up) == 15_263
    assert sorted(inverted) == sorted(up)


def test_direction_law():
    for n in range(1, 7):
        for e in all_involutions(n):
            for m in descendant_moves(e):
                assert m.target != e and leq(rank_matrix(m.target), rank_matrix(e))
                assert m.target.length == e.length
                assert dimension(e) - dimension(m.target) == 1


def test_family_disjointness():
    for n in range(1, 7):
        for e in all_involutions(n):
            moves = descendant_moves(e)
            assert len({m.target for m in moves}) == len(moves)


def test_cover_examples():
    assert cover(inv("(1,2)", 2)) == {Involution.identity(2)}
    assert cover(Involution.identity(4)) == set()
    assert {(str(m.target), m.kind) for m in cover_moves(inv("(1,3)", 3))} == {
        ("id", "delete")
    }


def test_cover_matches_brute_force():
    for n in range(1, 7):
        truth = brute_covers(n)
        for e in all_involutions(n):
            assert cover(e) == truth[e]


def test_cover_dimension_drop():
    for n in range(1, 7):
        for e in all_involutions(n):
            for lower in cover(e):
                assert dimension(e) - dimension(lower) == 1


def test_cover_is_the_maximal_part_of_the_closure():
    """An order-only route to the covers, independent of the grading."""
    for n in range(1, 9):
        for e in all_involutions(n):
            # An element strictly above x has a strictly larger rank-matrix
            # total, so in descending totals every maximal element above x
            # is kept before x is reached.
            below = sorted(closure(e) - {e}, key=lambda x: -sum(rank_matrix(x).cells))
            maximal: list[Involution] = []
            for x in below:
                if not any(leq(rank_matrix(x), rank_matrix(y)) for y in maximal):
                    maximal.append(x)
            assert cover(e) == set(maximal), e


def test_cover_moves_are_descendants_then_deletions():
    for n in range(1, 9):
        for e in all_involutions(n):
            moves = cover_moves(e)
            head = descendant_moves(e)
            assert moves[: len(head)] == head
            tail = moves[len(head):]
            assert all(m.kind == "delete" for m in tail)
            slots = [e.pairs.index(m.source[0]) for m in tail]
            assert slots == sorted(slots)


def test_cover_moves_builds_only_the_kept_deletions(monkeypatch):
    # each deletion's dimension drop is read off the pairs, so a deletion
    # that is not a cover is never built
    import orbitposet.moves

    points = random.Random(400).sample(range(1, 401), 400)
    e = canonicalize(zip(points[::2], points[1::2]), 400)
    built = []
    real = orbitposet.moves.delete_pair
    monkeypatch.setattr(orbitposet.moves, "delete_pair", lambda x, s: built.append(s) or real(x, s))
    kept = [m for m in cover_moves(e) if m.kind == "delete"]
    assert built == [e.pairs.index(m.source[0]) + 1 for m in kept]
    assert len(built) < e.length


def test_move_targets_equal_their_checked_construction():
    # targets are built unchecked; each must be the value the validating constructor builds
    count = 0
    for n in range(1, 9):
        for e in all_involutions(n):
            for m in (*descendant_moves(e), *ancestor_moves(e), *cover_moves(e)):
                checked = Involution(n, m.target.pairs)
                assert m.target == checked and hash(m.target) == hash(checked)
                assert str(m.target) == str(checked) and vars(m.target) == vars(checked)
                count += 1
    assert count == 11_363


# The three rules as they stood before they read a partner table: each builds
# its own view of the moved points per call and its targets go through the
# validating constructor.  The table-driven rules must reproduce them exactly.
def _reference_replace(e, changes):
    return Involution(e.n, tuple(sorted(changes.get(idx, p) for idx, p in enumerate(e.pairs))))


def _reference_shift(e, s, end, outward):
    pair = e.pairs[s - 1]
    old, far = pair[end], pair[1 - end]
    step = 1 if bool(end) == outward else -1
    stop = far if not outward else (e.n + 1 if step > 0 else 0)
    moved = {x for p in e.pairs for x in p}
    new = old + step
    while new != stop and new in moved:
        new += step
    if new == stop:
        return None
    lo, hi = sorted((old, new))
    if any(lo < p[end] < hi and (p[1] > far if end == 0 else p[0] < far) for p in e.pairs):
        return None
    return _reference_replace(e, {s - 1: (new, far) if end == 0 else (far, new)})


def _reference_swap_moves(e, s, nested):
    i_s, j_s = e.pairs[s - 1]
    out = []
    for t0, (i_t, j_t) in enumerate(e.pairs):
        if not i_s < i_t < j_s or (j_t < j_s) != nested:
            continue
        lo, hi = sorted((j_s, j_t))
        if not any(lo < j_q < hi for i_q, j_q in e.pairs if i_s < i_q < i_t):
            target = _reference_replace(e, {s - 1: (i_s, j_t), t0: (i_t, j_s)})
            out.append((((i_s, j_s), (i_t, j_t)), target))
    return out


def _reference_cross_moves(e, t, down):
    i_t, j_t = e.pairs[t - 1]
    partner = {x: y for p in e.pairs for x, y in (p, p[::-1])}
    out = []
    for s0, (i_s, j_s) in enumerate(e.pairs):
        if not (j_s < i_t if down else i_s < i_t < j_s < j_t):
            continue
        lo, hi = sorted((j_s, i_t))
        if not all(i_s < partner.get(x, 0) < j_t for x in range(lo + 1, hi)):
            continue
        target = _reference_replace(e, {s0: (i_s, i_t), t - 1: (j_s, j_t)})
        out.append((((i_s, j_s), (i_t, j_t)), target))
    return out


def _reference_outcomes(e, down):
    out = []
    for tag, end in (("move_down", 0), ("move_right", 1)) if down else (("move_up", 0), ("move_left", 1)):
        for s, pair in enumerate(e.pairs, 1):
            target = _reference_shift(e, s, end, down)
            if target is not None:
                out.append(MoveOutcome(tag, (pair,), target))
    for tag, rule in ((("cross_down", _reference_cross_moves), ("swap_down", _reference_swap_moves))
                      if down else (("cross_up", _reference_cross_moves), ("swap_up", _reference_swap_moves))):
        for t in range(1, e.length + 1):
            out += [MoveOutcome(tag, source, target) for source, target in rule(e, t, down)]
    return out


def _reference_cover_moves(e):
    out = _reference_outcomes(e, True)
    for s, pair in enumerate(e.pairs, 1):
        target = delete_pair(e, s)
        if dimension(target) == dimension(e) - 1:
            out.append(MoveOutcome("delete", (pair,), target))
    return out


def _random_involution(rng, n):
    points = rng.sample(range(1, n + 1), 2 * rng.randint(0, n // 2))
    return canonicalize(zip(points[::2], points[1::2]), n)


def test_rules_match_the_reference_rules():
    rng = random.Random(14)
    pool = [e for n in range(1, 9) for e in all_involutions(n)]
    pool += [_random_involution(rng, rng.randint(9, 40)) for _ in range(2000)]
    single = ((move_down, 0, True), (move_up, 0, False), (move_right, 1, True), (move_left, 1, False))
    paired = ((cross_down, _reference_cross_moves, True), (cross_up, _reference_cross_moves, False),
              (swap_down, _reference_swap_moves, True), (swap_up, _reference_swap_moves, False))
    for e in pool:
        assert descendant_moves(e) == _reference_outcomes(e, True), e
        assert ancestor_moves(e) == _reference_outcomes(e, False), e
        assert cover_moves(e) == _reference_cover_moves(e), e
        for s in range(1, e.length + 1):
            for move, end, outward in single:
                assert move(e, s) == _reference_shift(e, s, end, outward), (e, s)
            for move, rule, flag in paired:
                assert move(e, s) == {target for _, target in rule(e, s, flag)}, (e, s)


def test_cross_moves_keep_the_minimality_neighbourhood():
    # Where a cross move's pairs (i_s, j_s), (i_t, j_t) are sequential, no pair
    # opening before i_s closes between them, and a pair opening between i_s
    # and i_t ends before j_s or closes before j_t.
    seen = 0
    for n in range(1, 9):
        for e in all_involutions(n):
            sides = [(e, m.source) for m in descendant_moves(e) if m.kind == "cross_down"]
            sides += [(m.target, ((i_s, i_t), (j_s, j_t)))
                      for m in ancestor_moves(e) if m.kind == "cross_up"
                      for (i_s, j_s), (i_t, j_t) in [m.source]]
            for seq, ((i_s, j_s), (i_t, j_t)) in sides:
                assert j_s < i_t
                assert all(j_p < j_s or j_p > i_t for i_p, j_p in seq.pairs if i_p < i_s)
                assert all(i_p < j_s or j_p < j_t for i_p, j_p in seq.pairs if i_s < i_p < i_t)
                seen += 1
    assert seen
