"""Core involution type and statistics, pinned against worked examples."""

import copy
import dataclasses
import pickle
import random
from itertools import islice

import pytest

from orbitposet import (
    BadRank,
    BadWindow,
    DuplicateEntry,
    IndexOutOfRange,
    Involution,
    NotCanonical,
    OutOfRange,
    ParseError,
    all_involutions,
    canonicalize,
    delete_pair,
    dimension,
    enumerate_involutions,
    project,
    q_values,
    rank_matrix,
    sigma_o,
)
from orbitposet.involutions import _deletion_drops


def inv(text, n):
    return Involution.parse(text, n)


def test_canonicalize_sorts_pairs():
    got = canonicalize([(3, 4), (1, 8), (6, 7), (2, 5)], 8)
    assert str(got) == "(1,8)(2,5)(3,4)(6,7)"


def test_canonicalize_reorders_within_pair():
    assert str(canonicalize([(5, 1)], 5)) == "(1,5)"


def test_canonicalize_empty_is_identity():
    got = canonicalize([], 3)
    assert got == Involution.identity(3)
    assert str(got) == "id"


def test_canonicalize_rejects_duplicates():
    with pytest.raises(DuplicateEntry):
        canonicalize([(1, 2), (2, 3)], 3)
    with pytest.raises(DuplicateEntry):
        canonicalize([(2, 2)], 3)


def test_canonicalize_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        canonicalize([(1, 9)], 8)
    with pytest.raises(OutOfRange):
        canonicalize([(0, 2)], 8)


def test_strict_constructor_requires_canonical_form():
    with pytest.raises(NotCanonical):
        Involution(5, ((3, 4), (1, 5)))
    with pytest.raises(NotCanonical):
        Involution(5, ((4, 3),))


def test_strict_constructor_rejects_duplicates_and_range():
    with pytest.raises(DuplicateEntry):
        Involution(4, ((1, 2), (2, 3)))
    with pytest.raises(DuplicateEntry):
        Involution(4, ((1, 3), (2, 3)))
    with pytest.raises(OutOfRange):
        Involution(3, ((1, 4),))
    with pytest.raises(OutOfRange):
        Involution(3, ((0, 2),))
    with pytest.raises(OutOfRange):
        Involution(0)


def test_parse_is_whitespace_insensitive():
    assert inv(" (3,4) (1,8)\n(6,7)(2,5) ", 8) == inv("(1,8)(2,5)(3,4)(6,7)", 8)
    with pytest.raises(ParseError):
        inv("(1,2", 3)
    with pytest.raises(ParseError):
        inv("junk", 3)


def test_str_parse_roundtrip():
    for n in range(1, 6):
        for e in all_involutions(n):
            assert Involution.parse(str(e), n) == e


def test_q_values_worked_example():
    assert q_values(inv("(1,6)(3,4)(5,7)", 7)) == [0, 0, 3]


def test_q_values_nested_chain():
    # exhaustive pair count straight from the defining formula
    assert q_values(inv("(1,5)(2,6)(3,7)", 7)) == [0, 1, 2]


def test_q_values_identity():
    assert q_values(Involution.identity(4)) == []


def test_q_first_value_vanishes_in_canonical_form():
    for n in range(1, 7):
        for e in all_involutions(n):
            if e.length:
                assert q_values(e)[0] == 0


def test_dimension_minimal_orbit():
    assert dimension(inv("(1,5)(2,6)(3,7)", 7)) == 6


def test_dimension_maximal_example():
    assert dimension(inv("(1,8)(2,5)(3,4)(6,7)", 8)) == 16


def test_dimension_by_chain_walk():
    # independent check: every maximal cover chain from this element to the
    # identity has the same length, and that length is the dimension
    from orbitposet import brute_covers

    target = inv("(1,6)(3,4)(5,7)", 7)
    covers = brute_covers(7)
    memo = {}

    def walk(x):
        if x not in memo:
            lengths = {walk(c) + 1 for c in covers[x]}
            memo[x] = 0 if not lengths else lengths.pop()
            assert not lengths, "chain lengths disagree"
        return memo[x]

    assert walk(target) == 10
    assert dimension(target) == 10


def test_dimension_bound():
    for n in range(1, 7):
        for e in all_involutions(n):
            k = e.length
            assert 0 <= dimension(e) <= k * (n - k)


def test_minimal_orbit_dimensions():
    for n in range(1, 13):
        for k in range(n // 2 + 1):
            assert dimension(sigma_o(n, k)) == k * (k + 1) // 2


def test_sigma_o_values():
    assert str(sigma_o(7, 3)) == "(1,5)(2,6)(3,7)"
    assert sigma_o(4, 0) == Involution.identity(4)
    assert str(sigma_o(4, 2)) == "(1,3)(2,4)"
    with pytest.raises(BadRank):
        sigma_o(4, 3)


def test_project_window_filter():
    e = inv("(1,6)(3,4)(5,7)", 7)
    assert project(e, 2, 6) == inv("(2,3)", 5)
    assert project(e, 1, 7) == e
    with pytest.raises(BadWindow):
        project(e, 3, 3)
    with pytest.raises(BadWindow):
        project(e, 0, 3)


def test_project_length_matches_rank_entry():
    for n in range(2, 7):
        for e in all_involutions(n):
            r = rank_matrix(e)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    assert project(e, i, j).length == r.entry(i, j)


def test_delete_pair():
    e = inv("(1,6)(3,4)(5,7)", 7)
    assert delete_pair(e, 2) == inv("(1,6)(5,7)", 7)
    assert delete_pair(inv("(1,2)", 2), 1) == Involution.identity(2)
    with pytest.raises(IndexOutOfRange):
        delete_pair(e, 4)
    with pytest.raises(IndexOutOfRange):
        delete_pair(e, 0)


def test_deletion_drops_are_dimension_differences():
    rng = random.Random(30)
    pool = [e for n in range(1, 9) for e in all_involutions(n)]
    for _ in range(300):
        n = rng.randint(9, 40)
        points = rng.sample(range(1, n + 1), 2 * rng.randint(0, n // 2))
        pool.append(canonicalize(zip(points[::2], points[1::2]), n))
    for e in pool:
        expected = [dimension(e) - dimension(delete_pair(e, s)) for s in range(1, e.length + 1)]
        assert _deletion_drops(e) == expected, e


def test_delete_pair_rank_delta():
    e = inv("(1,5)(3,4)", 5)
    r = rank_matrix(e)
    shorter = rank_matrix(delete_pair(e, 2))  # drop (3,4)
    for i in range(1, 6):
        for j in range(i + 1, 6):
            expected = 1 if i <= 3 and j >= 4 else 0
            assert r.entry(i, j) - shorter.entry(i, j) == expected


def test_enumeration_counts():
    # a(n) = a(n-1) + (n-1) a(n-2)
    expected = [1, 1]
    for m in range(2, 9):
        expected.append(expected[-1] + (m - 1) * expected[-2])
    for n in range(1, 9):
        assert len(all_involutions(n)) == expected[n]


def test_enumeration_rejects_bad_arguments_at_the_call():
    # nothing is iterated: the errors come from the call itself
    with pytest.raises(OutOfRange):
        enumerate_involutions(0)
    with pytest.raises(BadRank):
        enumerate_involutions(4, 3)
    with pytest.raises(BadRank):
        enumerate_involutions(4, -1)


def test_enumeration_small_cases():
    assert [str(e) for e in enumerate_involutions(3)] == ["id", "(1,2)", "(1,3)", "(2,3)"]
    assert [str(e) for e in enumerate_involutions(1)] == ["id"]
    assert len(list(enumerate_involutions(4, 2))) == 3


def test_enumeration_is_sorted_and_complete():
    for n in range(1, 10):
        els = list(enumerate_involutions(n))
        keys = [tuple(x for p in e.pairs for x in p) for e in els]
        assert keys == sorted(keys)
        assert len(set(els)) == len(els)
        by_k = sum(len(all_involutions(n, k)) for k in range(n // 2 + 1))
        assert by_k == len(els)


def _reference_pairs(n, k):
    """The k-pair recursion before it ended nodes short of free points."""
    def rec(pairs, used, min_first):
        if len(pairs) == k:
            yield pairs
            return
        for i in range(min_first, n + 1):
            if used >> i & 1:
                continue
            for j in range(i + 1, n + 1):
                if not used >> j & 1:
                    yield from rec(pairs + ((i, j),), used | 1 << i | 1 << j, i + 1)

    return list(rec((), 0, 1))


def test_enumeration_by_k_matches_the_unpruned_recursion():
    for n in range(1, 11):
        for k in range(n // 2 + 1):
            assert [e.pairs for e in enumerate_involutions(n, k)] == _reference_pairs(n, k), (n, k)


def test_enumeration_runs_past_the_recursion_limit():
    # a walk that recursed once per pair stopped with RecursionError after 992 of these
    first = list(islice(enumerate_involutions(2100), 1001))
    assert [e.length for e in first] == list(range(1001))
    assert first[-1].pairs == tuple((2 * s + 1, 2 * s + 2) for s in range(1000))
    deepest = next(enumerate_involutions(2100, 1050))
    assert deepest.pairs == tuple((2 * s + 1, 2 * s + 2) for s in range(1050))


def test_enumerated_involutions_equal_validated_ones():
    # enumeration skips the constructor's checks; its output must not show it
    for n in range(1, 8):
        for e in enumerate_involutions(n):
            checked = Involution(n, e.pairs)
            assert type(e) is Involution and tuple(e) == tuple(checked)
            assert e == checked and hash(e) == hash(checked) and str(e) == str(checked)


def test_unchecked_involutions_are_laid_out_like_checked_ones():
    import tracemalloc

    from orbitposet.involutions import _trusted

    pairs = ((1, 4), (2, 3))
    # one untraced batch of each first: in a fresh process the first few
    # hundred traced calls are charged extra bytes that fade with use, so
    # without it the sizes depend on what ran before
    for make in (_trusted, Involution):
        assert len([make(5, pairs) for _ in range(1000)]) == 1000
    sizes = []
    for make in (_trusted, Involution):
        tracemalloc.start()
        try:
            made = [make(5, pairs) for _ in range(1000)]
            sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert len(made) == 1000
    assert sizes[0] == sizes[1]


@dataclasses.dataclass(frozen=True, order=True)
class _DataclassInvolution:
    # the field layout Involution had as a plain frozen dataclass, for its repr and order
    n: int
    pairs: tuple = ()


def test_involution_is_a_value_like_the_dataclass_it_replaced():
    everything = [e for n in range(1, 8) for e in all_involutions(n)]
    for e in everything:
        old = _DataclassInvolution(e.n, e.pairs)
        assert hash(e) == hash((e.n, e.pairs)) == hash(old)
        assert e == (e.n, e.pairs) and tuple(e) == (e.n, e.pairs)
        assert repr(e) == repr(old).replace("_DataclassInvolution", "Involution", 1)
    shuffled = random.Random("value-order").sample(everything, len(everything))
    assert [(e.n, e.pairs) for e in sorted(shuffled)] == [
        (d.n, d.pairs) for d in sorted(_DataclassInvolution(e.n, e.pairs) for e in shuffled)
    ]
    assert Involution(3, ((1, 3),)) < Involution(4) and Involution(4) < Involution(4, ((1, 2),))


def test_involution_keeps_the_dataclass_surface():
    e = Involution(n=5, pairs=((1, 4), (2, 3)))
    assert e == Involution(5, ((1, 4), (2, 3))) and Involution(n=3) == Involution(3, ())
    assert dataclasses.is_dataclass(e)
    # hashing, equality and order stay the tuple's C slots, not generated Python methods
    assert all(getattr(Involution, name) is getattr(tuple, name) for name in ("__hash__", "__eq__", "__lt__"))
    assert [f.name for f in dataclasses.fields(Involution)] == ["n", "pairs"]
    assert dataclasses.asdict(e) == {"n": 5, "pairs": ((1, 4), (2, 3))}
    moved = dataclasses.replace(e, pairs=((1, 5),))
    assert type(moved) is Involution and moved == Involution(5, ((1, 5),))
    with pytest.raises(NotCanonical):  # replace goes through the checks
        dataclasses.replace(e, pairs=((4, 1),))
    for name in ("n", "pairs", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(e, name, 1)
    assert not hasattr(e, "__dict__")
    for rebuilt in (
        *(pickle.loads(pickle.dumps(e, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
        copy.copy(e),
        copy.deepcopy(e),
    ):
        assert type(rebuilt) is Involution and rebuilt == e and rebuilt.pairs == e.pairs


# the strict-constructor tests above pin the other bad inputs
@pytest.mark.parametrize("args, error", [
    ((-2,), OutOfRange),
    ((4, ((1, 1),)), DuplicateEntry),
    (("4",), TypeError),
    ((4, ((1, 2, 3),)), ValueError),
    ((4, 7), TypeError),
    ((), TypeError),
    ((4, (), 1), TypeError),
])
def test_bad_involutions_raise_the_error_classes_they_always_raised(args, error):
    with pytest.raises(error):
        Involution(*args)


def test_asdict_of_results_holding_involutions():
    # a bare tuple subclass would be rebuilt from a generator by asdict and crash
    from orbitposet import PosetEdge, intersect
    from orbitposet.moves import MoveOutcome

    a, b = Involution(6, ((1, 2), (3, 4))), Involution(6, ((1, 3), (4, 5)))
    result = intersect(a, b)
    assert dataclasses.asdict(result) == {
        "meet": dataclasses.asdict(result.meet),
        "irreducible": False,
        "components": ({"n": 6, "pairs": ((1, 3), (2, 5))}, {"n": 6, "pairs": ((1, 4), (3, 5))}),
        "component_dims": (6, 6),
        "codim": 1,
        "equidimensional": True,
    }
    edge = PosetEdge(Involution(4, ((1, 2),)), Involution(4, ((1, 3),)), "move_right")
    assert dataclasses.asdict(edge) == {
        "upper": {"n": 4, "pairs": ((1, 2),)},
        "lower": {"n": 4, "pairs": ((1, 3),)},
        "kind": "move_right",
    }
    outcome = MoveOutcome("delete", ((1, 3),), Involution(4, ((2, 4),)))
    assert dataclasses.asdict(outcome) == {
        "kind": "delete", "source": ((1, 3),), "target": {"n": 4, "pairs": ((2, 4),)},
    }


def test_trusted_involutions_take_under_80_bytes_each():
    import tracemalloc

    from orbitposet.involutions import _trusted

    pairs = ((1, 4), (2, 3))
    # warm the allocator first, as in the layout test above
    assert len([_trusted(5, pairs) for _ in range(1000)]) == 1000
    tracemalloc.start()
    try:
        made = [_trusted(5, pairs) for _ in range(10_000)]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(made) == 10_000
    assert size / 10_000 < 80, size / 10_000  # the list's slot included
