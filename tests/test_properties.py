"""Property tests on random involutions up to n = 30, drawn by hypothesis.

The runs are derandomized and bounded, so every run tries the same examples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitposet import (
    InvalidRankMatrix,
    canonicalize,
    from_rank_matrix,
    is_valid,
    meet,
    rank_matrix,
)

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
    bound = meet(*pair)
    if is_valid(bound):
        assert rank_matrix(from_rank_matrix(bound)) == bound
    else:
        with pytest.raises(InvalidRankMatrix):
            from_rank_matrix(bound)
