"""Row insertion, its inverse, and the codimension-one witness search."""

import itertools
import random
from bisect import bisect_left

import pytest

from orbitposet import (
    NotAPermutation,
    ShapeMismatch,
    StandardTableau,
    TwoColumnTableau,
    enumerate_tableaux,
    find_rs_witness,
    intersect,
    rs_pair,
    rs_word,
    sigma_T,
)
from orbitposet.errors import TooLarge
from orbitposet.limits import RS_WITNESS_MAX_CANDIDATES
from orbitposet.rs import standard_from_two_column, two_column_from_standard


def swap_values(word, m):
    """Exchange the values m and m+1 inside the word."""
    return tuple(m + 1 if x == m else m if x == m + 1 else x for x in word)


def row_form_word(p_tab, q_tab):
    """Inverse row insertion that climbs every row, one-box rows included:
    the reference for the library's column-form reverse bump."""
    rows = [list(r) for r in p_tab.rows]
    row_of_step = {v: r for r, row in enumerate(q_tab.rows) for v in row}
    word = []
    for step in range(q_tab.n, 0, -1):
        r = row_of_step[step]
        x = rows[r].pop()
        for rr in range(r - 1, -1, -1):
            row = rows[rr]
            idx = bisect_left(row, x) - 1
            row[idx], x = x, row[idx]
        word.append(x)
    word.reverse()
    return tuple(word)


def random_two_column(rng, n, k):
    """A uniform draw among the two-column tableaux with column lengths (n-k, k)."""
    return rng.choice(list(enumerate_tableaux(n, k)))


def test_rs_pair_decreasing_word():
    p_tab, q_tab = rs_pair([4, 3, 2, 1])
    assert p_tab.rows == ((1,), (2,), (3,), (4,))
    assert q_tab.rows == ((1,), (2,), (3,), (4,))


def test_rs_pair_increasing_word():
    p_tab, q_tab = rs_pair([1, 2, 3, 4])
    assert p_tab.rows == ((1, 2, 3, 4),)
    assert q_tab.rows == ((1, 2, 3, 4),)


def test_rs_pair_hand_example():
    p_tab, q_tab = rs_pair([2, 1, 3])
    assert p_tab.rows == ((1, 3), (2,))
    assert q_tab.rows == ((1, 3), (2,))


def test_rs_pair_rejects_non_permutation():
    with pytest.raises(NotAPermutation):
        rs_pair([1, 1, 2])
    with pytest.raises(NotAPermutation):
        rs_pair([0, 1])
    # no tableau has zero boxes, so the checked StandardTableau(()) would refuse it too
    with pytest.raises(NotAPermutation, match="nonempty"):
        rs_pair([])


def test_rs_word_inverts_hand_example():
    tab = StandardTableau(((1, 3), (2,)))
    assert rs_word(tab, tab) == (2, 1, 3)


def test_rs_word_shape_mismatch():
    # row counts apart, and equal row counts with one row length apart
    for p_rows, q_rows, message in [
        (((1, 2),), ((1,), (2,)), "shapes differ: (2,) vs (1, 1)"),
        (((1, 2, 3), (4,)), ((1, 2), (3, 4)), "shapes differ: (3, 1) vs (2, 2)"),
        (((1, 2), (3, 4)), ((1, 2), (3,), (4,)), "shapes differ: (2, 2) vs (2, 1, 1)"),
    ]:
        with pytest.raises(ShapeMismatch) as exc:
            rs_word(StandardTableau(p_rows), StandardTableau(q_rows))
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ((), ShapeMismatch, "rows must be nonempty"),
        (((1, 2), ()), ShapeMismatch, "rows must be nonempty"),
        (((1,), (2, 3)), ShapeMismatch, "row lengths must weakly decrease"),
        (((1, 2), (4,)), NotAPermutation, "entries must be exactly 1..n"),
        (((2, 1), (3,)), ShapeMismatch, "rows must strictly increase"),
        (((1, 3), (4,), (2,)), ShapeMismatch, "columns must strictly increase"),
    ],
)
def test_standard_tableau_rejections(rows, error, message):
    with pytest.raises(error, match=message):
        StandardTableau(rows)


def test_rs_roundtrip_exhaustive():
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            p_tab, q_tab = rs_pair(word)
            assert rs_word(p_tab, q_tab) == word


def test_rs_pair_builds_standard_tableaux():
    # rs_pair builds its output unchecked; the validating constructor agrees,
    # and lays the instance out the same way
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            for tab in rs_pair(word):
                checked = StandardTableau(tab.rows)
                assert type(tab) is StandardTableau and vars(tab) == vars(checked)
                assert checked == tab and hash(checked) == hash(tab)


def test_rs_word_matches_the_row_form_reference():
    rng = random.Random(5)
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            assert row_form_word(*rs_pair(word)) == word
    for _ in range(300):
        word = list(range(1, rng.randint(8, 24) + 1))
        rng.shuffle(word)
        p_tab, q_tab = rs_pair(word)
        assert rs_word(p_tab, q_tab) == row_form_word(p_tab, q_tab) == tuple(word)


def test_rs_pair_roundtrip_two_column_long_tail():
    # two-column shapes with a long column of one-box rows below k long rows
    rng = random.Random(11)
    for n in range(10, 21):
        for k in range(1, 4):
            for _ in range(4):
                p_tab = standard_from_two_column(random_two_column(rng, n, k))
                q_tab = standard_from_two_column(random_two_column(rng, n, k))
                word = rs_word(p_tab, q_tab)
                assert word == row_form_word(p_tab, q_tab)
                assert rs_pair(word) == (p_tab, q_tab)


def test_rs_pair_roundtrip_two_column():
    # both directions on every equal-shape pair of two-column tableaux
    for n in range(2, 7):
        for k in range(n // 2 + 1):
            tabs = [standard_from_two_column(t) for t in enumerate_tableaux(n, k)]
            for p_tab, q_tab in itertools.product(tabs, repeat=2):
                word = rs_word(p_tab, q_tab)
                assert rs_pair(word) == (p_tab, q_tab)


def test_standard_two_column_conversion():
    tab = TwoColumnTableau((1, 2, 3, 6), (4, 5, 7, 8))
    std = standard_from_two_column(tab)
    assert std.rows == ((1, 4), (2, 5), (3, 7), (6, 8))
    assert two_column_from_standard(std) == tab
    with pytest.raises(ShapeMismatch):
        two_column_from_standard(StandardTableau(((1, 2, 3),)))


def test_swap_values():
    assert swap_values((3, 1, 2), 1) == (3, 2, 1)
    assert swap_values((1, 2, 3), 2) == (1, 3, 2)
    assert swap_values(swap_values((5, 2, 4, 1, 3), 2), 2) == (5, 2, 4, 1, 3)


def _reference_witness(t_tab, s_tab):
    """The scan ``find_rs_witness`` replaced: two whole words per candidate,
    read by the row-form reference, every m."""
    if t_tab == s_tab:
        return None
    n = t_tab.n
    t_std, s_std = standard_from_two_column(t_tab), standard_from_two_column(s_tab)
    for cand in enumerate_tableaux(n, t_tab.k):
        p_std = standard_from_two_column(cand)
        wt, ws = row_form_word(t_std, p_std), row_form_word(s_std, p_std)
        for m in range(1, n):
            if wt == swap_values(ws, m):
                return cand, m
    return None


def test_witness_matches_reference_scan_exhaustive():
    for n in range(1, 9):
        for k in range(n // 2 + 1):
            tabs = list(enumerate_tableaux(n, k))
            for t_tab, s_tab in itertools.product(tabs, repeat=2):
                assert find_rs_witness(t_tab, s_tab) == _reference_witness(t_tab, s_tab)


def test_witness_matches_reference_scan_random():
    rng = random.Random(13)
    tabs = {(n, k): list(enumerate_tableaux(n, k)) for n in range(10, 17) for k in (2, 3)}
    hits = 0
    for _ in range(200):
        pool = tabs[rng.randint(10, 16), rng.randint(2, 3)]
        t_tab, s_tab = rng.choice(pool), rng.choice(pool)
        witness = find_rs_witness(t_tab, s_tab)
        assert witness == _reference_witness(t_tab, s_tab)
        hits += witness is not None
    assert hits  # the draw reaches the hit path, not only full scans


def test_witness_exists_for_adjacent_change():
    t_tab = TwoColumnTableau((1, 2), (3, 4))
    s_tab = TwoColumnTableau((1, 3), (2, 4))
    witness = find_rs_witness(t_tab, s_tab)
    assert witness is not None
    p_tab, m = witness
    wt = rs_word(standard_from_two_column(t_tab), standard_from_two_column(p_tab))
    ws = rs_word(standard_from_two_column(s_tab), standard_from_two_column(p_tab))
    assert wt == swap_values(ws, m)


def test_witness_same_tableau_is_absent():
    t_tab = TwoColumnTableau((1, 2), (3, 4))
    assert find_rs_witness(t_tab, t_tab) is None


def test_witness_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        find_rs_witness(TwoColumnTableau((1, 2), (3, 4)), TwoColumnTableau.parse("1,2,3|4"))


def test_witness_words_reproduce_displayed_instance():
    # the two-pair adjacent-column case at n=7 has an explicitly computable
    # witness word; pin the convention through it
    t_tab = TwoColumnTableau.parse("1,2,3,6,7|4,5")
    s_tab = TwoColumnTableau.parse("1,3,5,6,7|2,4")
    p_tab = TwoColumnTableau.parse("1,2,3,4,7|5,6")
    wt = rs_word(standard_from_two_column(t_tab), standard_from_two_column(p_tab))
    ws = rs_word(standard_from_two_column(s_tab), standard_from_two_column(p_tab))
    assert wt == (7, 6, 3, 2, 5, 4, 1)
    assert ws == swap_values(wt, 1)
    assert find_rs_witness(t_tab, s_tab) is not None


def test_witness_implies_codim_one():
    for n in range(2, 6):
        for k in range(1, n // 2 + 1):
            tabs = list(enumerate_tableaux(n, k))
            for t_tab, s_tab in itertools.combinations(tabs, 2):
                if find_rs_witness(t_tab, s_tab) is not None:
                    assert intersect(sigma_T(t_tab), sigma_T(s_tab)).codim == 1


def test_two_pair_equivalence_small():
    for n in range(4, 7):
        tabs = list(enumerate_tableaux(n, 2))
        for t_tab, s_tab in itertools.combinations(tabs, 2):
            has_witness = find_rs_witness(t_tab, s_tab) is not None
            codim_one = intersect(sigma_T(t_tab), sigma_T(s_tab)).codim == 1
            assert has_witness == codim_one


@pytest.mark.parametrize("n", range(8, 12))
def test_two_pair_equivalence_past_seven(n):
    # the criterion for column shape (n-2, 2), past the oracle's n <= 7
    tabs = list(enumerate_tableaux(n, 2))
    for t_tab, s_tab in itertools.combinations(tabs, 2):
        has_witness = find_rs_witness(t_tab, s_tab) is not None
        codim_one = intersect(sigma_T(t_tab), sigma_T(s_tab)).codim == 1
        assert has_witness == codim_one


def test_witness_guard_counts_the_ballot_tableaux():
    # a miss at n = 16, k = 3 scans all 440 = C(16, 3) - C(16, 2) candidates
    t_tab = TwoColumnTableau.parse("1,2,3,4,5,6,7,8,9,10,11,12,13|14,15,16")
    s_tab = TwoColumnTableau.parse("1,3,5,7,8,9,10,11,12,13,14,15,16|2,4,6")
    assert sum(1 for _ in enumerate_tableaux(16, 3)) == 440
    expected = find_rs_witness(t_tab, s_tab)
    with pytest.raises(TooLarge):
        find_rs_witness(t_tab, s_tab, max_candidates=439)
    assert find_rs_witness(t_tab, s_tab, max_candidates=440) == expected


def test_witness_guard_refuses_a_full_scan_at_n30():
    # the shape (15, 15) has C(30, 15) - C(30, 14) = 9 694 845 candidates
    t_tab = TwoColumnTableau(tuple(range(1, 30, 2)), tuple(range(2, 31, 2)))
    s_tab = TwoColumnTableau(tuple(range(1, 16)), tuple(range(16, 31)))
    with pytest.raises(TooLarge, match="9694845 candidate"):
        find_rs_witness(t_tab, s_tab)
    assert find_rs_witness(t_tab, t_tab) is None  # equal tableaux need no search


def test_witness_guard_is_lifted_per_call():
    # n = 30, k = 5 has 115 101 candidates; this partner's witness is the first one
    t_tab = TwoColumnTableau.parse("1,3,5,7,9,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30|2,4,6,8,10")
    s_tab = TwoColumnTableau.parse("1,3,5,7,8,9,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30|2,4,6,10,11")
    assert RS_WITNESS_MAX_CANDIDATES < 115_101
    with pytest.raises(TooLarge):
        find_rs_witness(t_tab, s_tab)
    assert find_rs_witness(t_tab, s_tab, max_candidates=115_101) == (t_tab, 7)
