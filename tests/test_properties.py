"""Property tests on random involutions up to n = 30, drawn by hypothesis,
and on every node of the search under random meets up to n = 10.

The runs are derandomized and bounded, so every run tries the same examples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitposet import (
    ColumnPairArray,
    InvalidRankMatrix,
    Involution,
    TwoColumnTableau,
    ancestor_moves,
    ancestors,
    canonicalize,
    change,
    cover,
    descendant_moves,
    descendants,
    dimension,
    from_rank_matrix,
    is_valid,
    meet,
    rank_matrix,
)
from orbitposet.rank_matrices import _below_bound

MAX_N = 30

checked = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@st.composite
def involution_of_rank(draw, n):
    points = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(0, n // 2))
    return canonicalize(zip(points[: 2 * k : 2], points[1 : 2 * k : 2]), n)


involutions = st.integers(1, MAX_N).flatmap(involution_of_rank)
pairs_of_involutions = st.integers(1, MAX_N).flatmap(
    lambda n: st.tuples(involution_of_rank(n), involution_of_rank(n))
)


@checked
@given(involutions)
def test_images_are_valid_and_recover(e):
    assert is_valid(rank_matrix(e))
    assert from_rank_matrix(rank_matrix(e)) == e


@checked
@given(pairs_of_involutions)
def test_a_valid_meet_recovers_to_its_own_involution(pair):
    bound = meet(*map(rank_matrix, pair))
    if is_valid(bound):
        assert rank_matrix(from_rank_matrix(bound)) == bound
    else:
        with pytest.raises(InvalidRankMatrix):
            from_rank_matrix(bound)


def assert_nodes_are_consistent(bound):
    """Every node of the search under ``bound``: canonical pairs, their rank
    matrix packed, and exactly the points no pair uses as free bits.
    Returns the number of nodes."""
    n = bound.n
    nodes = 0
    for pairs, counts, free in _below_bound(bound):
        inv = Involution(n, pairs)  # raises unless the pairs are canonical within 1..n
        assert inv.pairs == pairs
        assert counts == rank_matrix(inv).packed
        used = {x for pair in pairs for x in pair}
        assert free == sum(1 << x for x in range(1, n + 1) if x not in used)
        nodes += 1
    return nodes


@checked
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(involution_of_rank(n), involution_of_rank(n))))
def test_every_search_node_keeps_its_pairs_counts_and_free_points(pair):
    assert_nodes_are_consistent(meet(*map(rank_matrix, pair)))


def test_search_nodes_past_one_machine_word():
    # at n = 70 the free points fill bits 1..70, more than one 64-bit word
    a = Involution(70, ((1, 3), (2, 69), (68, 70)))
    b = Involution(70, ((1, 70), (2, 4), (66, 67)))
    assert assert_nodes_are_consistent(meet(rank_matrix(a), rank_matrix(b))) == 8588


def mirror(e):
    """The image of ``e`` under the reflection x -> n+1-x."""
    return canonicalize(((e.n + 1 - a, e.n + 1 - b) for a, b in e.pairs), e.n)


@checked
@given(involutions)
def test_the_mirror_is_an_automorphism(e):
    # the reflection swaps the two ends of a pair, so this checks the first-
    # and second-entry shifts against each other
    m = mirror(e)
    assert dimension(m) == dimension(e)
    for family in (descendants, ancestors, cover):
        assert {mirror(x) for x in family(e)} == family(m)


# Each down-move tag and the tag of the up-move that undoes it, both ways.
INVERSE_KIND = {"move_down": "move_up", "move_right": "move_left",
                "cross_down": "cross_up", "swap_down": "swap_up"}
INVERSE_KIND |= {up: down for down, up in INVERSE_KIND.items()}


@checked
@given(involutions)
def test_every_move_is_undone_by_its_inverse(e):
    for moves, back in ((descendant_moves, ancestor_moves), (ancestor_moves, descendant_moves)):
        for m in moves(e):
            assert (INVERSE_KIND[m.kind], e) in {(b.kind, b.target) for b in back(m.target)}


@checked
@given(involutions)
def test_dimension_is_at_most_k_times_n_minus_k(e):
    # with equality exactly at the maximal elements of the k-pair involutions
    top = e.length * (e.n - e.length)
    assert dimension(e) <= top
    assert (dimension(e) == top) == (not ancestors(e))


@st.composite
def tableau_and_exchange(draw):
    """A two-column tableau with k >= 1 and one entry of each column."""
    flags = draw(st.lists(st.booleans(), min_size=2, max_size=MAX_N))
    col1, col2 = [1], []
    for v, second in enumerate(flags[1:], start=2):
        # the r-th entry of the second column comes after r + 1 first-column entries
        (col2 if second and len(col2) < len(col1) else col1).append(v)
    if not col2:
        col1.remove(2)
        col2.append(2)
    tab = TwoColumnTableau(tuple(col1), tuple(col2))
    return tab, draw(st.sampled_from(tab.col1)), draw(st.sampled_from(tab.col2))


@checked
@given(tableau_and_exchange())
def test_change_results_print_and_reparse(case):
    tab, i, j = case
    arr = change(tab, i, j)
    assert ColumnPairArray.parse(str(arr)) == arr
