"""Closures, intersections, codimension, depth, and Hasse extraction."""

import itertools
import random
import tracemalloc
from operator import le

import pytest

from orbitposet import (
    BadRank,
    Involution,
    NotComparable,
    RankMatrix,
    RankMismatch,
    SizeMismatch,
    all_involutions,
    closure,
    codim,
    depth,
    dimension,
    hasse,
    hasse_dot,
    intersect,
    leq,
    meet,
    rank_matrix,
    sigma_T,
    sigma_o,
)
from orbitposet.errors import TooLarge
from orbitposet.poset import _below_bound


def inv(text, n):
    return Involution.parse(text, n)


def test_closure_examples():
    assert closure(inv("(1,3)", 3)) == {inv("(1,3)", 3), Involution.identity(3)}
    assert closure(Involution.identity(5)) == {Involution.identity(5)}
    got = closure(inv("(1,2)", 3))
    assert got == {inv("(1,2)", 3), inv("(1,3)", 3), Involution.identity(3)}


def test_closure_equals_enumeration_filter():
    for n in range(1, 8):
        els = list(all_involutions(n))
        mats = {e: rank_matrix(e) for e in els}
        for e in els:
            expected = {x for x in els if leq(mats[x], mats[e])}
            assert closure(e) == expected


def test_intersect_reducible_example():
    result = intersect(inv("(1,5)(3,4)", 5), inv("(2,4)(3,5)", 5))
    assert not result.irreducible
    assert set(result.components) == {inv("(1,4)(3,5)", 5), inv("(1,5)(2,4)", 5)}
    assert result.component_dims == (4, 4)
    assert result.codim == 1
    assert result.equidimensional


def test_intersect_self():
    e = inv("(1,5)(3,4)", 5)
    result = intersect(e, e)
    assert result.irreducible
    assert result.components == (e,)
    assert result.codim == 0


def test_intersect_irreducible_example_n4():
    result = intersect(inv("(1,4)(2,3)", 4), inv("(1,2)(3,4)", 4))
    assert result.irreducible
    assert result.components == (inv("(1,3)(2,4)", 4),)
    assert result.codim == 1


def test_intersect_preconditions():
    with pytest.raises(SizeMismatch):
        intersect(inv("(1,2)", 2), inv("(1,2)", 3))
    with pytest.raises(RankMismatch):
        intersect(inv("(1,2)(3,4)", 4), inv("(1,2)", 4))
    # forcing applies the same recipe outside the equal-count scope
    result = intersect(inv("(1,2)(3,4)", 4), inv("(1,2)", 4), force=True)
    assert result.components == (inv("(1,2)", 4),)
    assert result.codim == 0


def test_intersect_component_invariants():
    for n in range(1, 6):
        for k in range(n // 2 + 1):
            els = list(all_involutions(n, k))
            for a, b in itertools.combinations_with_replacement(els, 2):
                result = intersect(a, b)
                assert result.irreducible == (len(result.components) == 1)
                if result.irreducible:
                    assert rank_matrix(result.components[0]) == result.meet
                for comp in result.components:
                    assert leq(comp, a) and leq(comp, b)


class BruteMaximal:
    """Maximal involutions below a meet, from all_involutions and leq alone."""

    def __init__(self, n):
        self.els = all_involutions(n)
        self.mats = {x: rank_matrix(x) for x in self.els}
        self.strictly_above = {
            x: {y for y in self.els if y != x and leq(self.mats[x], self.mats[y])}
            for x in self.els
        }

    def __call__(self, a, b):
        bound = meet(a, b)
        down = {x for x in self.els if leq(self.mats[x], bound)}
        return sorted(x for x in down if self.strictly_above[x].isdisjoint(down))


def test_intersect_equals_brute_force_exhaustively_to_n6():
    for n in range(1, 7):
        brute = BruteMaximal(n)
        for a, b in itertools.combinations_with_replacement(brute.els, 2):
            assert list(intersect(a, b, force=True).components) == brute(a, b), (a, b)


@pytest.mark.parametrize("n", [7, 8])
def test_intersect_equals_brute_force_on_random_pairs(n):
    brute = BruteMaximal(n)
    draw = random.Random(f"intersect-n{n}")
    for _ in range(600):
        a, b = draw.choice(brute.els), draw.choice(brute.els)
        assert list(intersect(a, b, force=True).components) == brute(a, b), (a, b)


def test_intersect_maximal_images_n12():
    from orbitposet.tableaux import TwoColumnTableau

    a = sigma_T(TwoColumnTableau.parse("1,2,4,6,8,9|3,5,7,10,11,12"))
    b = sigma_T(TwoColumnTableau.parse("1,3,4,5,8,11|2,6,7,9,10,12"))
    result = intersect(a, b)
    assert result.components
    for comp in result.components:
        assert leq(comp, a) and leq(comp, b)
    for x, y in itertools.permutations(result.components, 2):
        assert not leq(x, y)
    assert result.irreducible == (len(result.components) == 1)


def test_intersect_guard():
    with pytest.raises(TooLarge):
        intersect(inv("(1,2)", 13), inv("(2,3)", 13))
    result = intersect(inv("(1,2)", 13), inv("(2,3)", 13), max_n=13)
    assert result.components == (inv("(1,3)", 13),)


def test_guard_rejects_a_non_integer_environment_value(monkeypatch):
    from orbitposet import OrbitPosetError
    from orbitposet.limits import ENV_MAX_N

    monkeypatch.setenv(ENV_MAX_N, "abc")
    with pytest.raises(OrbitPosetError, match="not an integer"):
        hasse(4)
    with pytest.raises(OrbitPosetError, match="not an integer"):
        intersect(inv("(1,2)", 4), inv("(3,4)", 4))


def test_codim_examples():
    assert codim(inv("(1,2)", 2), Involution.identity(2)) == 1
    assert codim(inv("(1,2)", 3), inv("(1,3)", 3)) == 1
    with pytest.raises(NotComparable):
        codim(inv("(1,3)", 3), inv("(1,2)", 3))


def test_codim_tableau_to_minimal():
    from orbitposet import enumerate_tableaux, sigma_T

    for n in range(2, 8):
        for k in range(n // 2 + 1):
            for tab in enumerate_tableaux(n, k):
                expected = k * (n - k) - k * (k + 1) // 2
                assert codim(sigma_T(tab), sigma_o(n, k)) == expected


def test_depth_examples():
    assert depth(inv("(1,2)", 2), 0) == 1
    for n in range(2, 8):
        for k in range(n // 2 + 1):
            assert depth(sigma_o(n, k), k) == 0
    for n in range(1, 6):
        for e in all_involutions(n):
            assert depth(e, 0) == dimension(e)
    with pytest.raises(BadRank):
        depth(inv("(1,2)", 4), 2)


def test_hasse_n2():
    edges = hasse(2)
    assert [(str(e.upper), str(e.lower), e.kind) for e in edges] == [
        ("(1,2)", "id", "delete")
    ]


def test_hasse_n3():
    got = {(str(e.upper), str(e.lower)) for e in hasse(3)}
    assert got == {("(1,2)", "(1,3)"), ("(2,3)", "(1,3)"), ("(1,3)", "id")}


def test_hasse_n4_k2():
    got = {(str(e.upper), str(e.lower), e.kind) for e in hasse(4, 2)}
    assert got == {
        ("(1,2)(3,4)", "(1,3)(2,4)", "cross_down"),
        ("(1,4)(2,3)", "(1,3)(2,4)", "swap_down"),
    }


def test_hasse_matches_cover_relation():
    from orbitposet import cover

    for n in range(1, 6):
        edges = hasse(n)
        by_upper = {}
        for e in edges:
            by_upper.setdefault(e.upper, set()).add(e.lower)
        for upper in all_involutions(n):
            assert by_upper.get(upper, set()) == cover(upper)


def test_hasse_guard():
    with pytest.raises(TooLarge):
        hasse(11)
    # explicit override lifts the guard (kept tiny here)
    assert hasse(3, max_n=3)


def test_hasse_dot_output():
    dot = hasse_dot(3)
    assert dot.startswith('digraph "involution_poset_n3" {')
    assert '"(1,2)" -> "(1,3)"' in dot
    assert 'label="(1,3)\\ndim 1"' in dot
    assert "rank=same" in dot
    assert dot.rstrip().endswith("}")


def test_hasse_deterministic():
    assert hasse(5) == hasse(5)
    assert hasse_dot(4) == hasse_dot(4)


def test_closure_cost_follows_its_output():
    # closure((1,2)) is (1,b) for b = 2..n plus the identity
    for n in (60, 100):
        tracemalloc.start()
        try:
            got = closure(Involution(n, ((1, 2),)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == {Involution.identity(n)} | {Involution(n, ((1, b),)) for b in range(2, n + 1)}
        assert peak < 20 * 2**20, peak
    assert closure(Involution.identity(300)) == {Involution.identity(300)}


def _reference_below_bound(bound):
    """The search before packing: window counts as a list, checked one cell at a time.

    Yields ``(pairs, cells)`` for every involution below ``bound``.
    """
    n = bound.n
    index = {w: o for o, w in enumerate((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))}
    windows = {
        (a, b): [index[i, j] for i in range(1, a + 1) for j in range(b, n + 1)]
        for a, b in itertools.combinations(range(1, n + 1), 2)
    }
    cap = bound.cells
    counts = [0] * len(cap)
    used = [False] * (n + 1)
    prefix = []

    def rec(min_first):
        yield tuple(prefix), tuple(counts)
        for a in range(min_first, n):
            if used[a]:
                continue
            for b in range(n, a, -1):
                if used[b]:
                    continue
                offsets = windows[a, b]
                if not all(counts[o] < cap[o] for o in offsets):
                    break
                for o in offsets:
                    counts[o] += 1
                used[a] = used[b] = True
                prefix.append((a, b))
                yield from rec(a + 1)
                prefix.pop()
                used[a] = used[b] = False
                for o in offsets:
                    counts[o] -= 1

    return rec(1)


def _reference_maximal(n, below):
    kept = []
    for pairs, cells in below:
        if any(all(map(le, cells, top)) for _, top in kept):
            continue
        kept = [(p, top) for p, top in kept if not all(map(le, top, cells))]
        kept.append((pairs, cells))
    return sorted(Involution(n, pairs) for pairs, _ in kept)


def _random_involution(draw, n, k):
    points = draw.sample(range(1, n + 1), 2 * k)
    return Involution(n, tuple(sorted(tuple(sorted(points[2 * s : 2 * s + 2])) for s in range(k))))


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_search_matches_the_cell_count_reference(n):
    draw = random.Random(f"packed-search-n{n}")
    for _ in range(40):
        k = draw.randint(1, n // 2)
        a, b = _random_involution(draw, n, k), _random_involution(draw, n, k)
        members = {pairs for pairs, _ in _reference_below_bound(rank_matrix(a))}
        assert {m.pairs for m in closure(a)} == members, a
        result = intersect(a, b)
        expected = list(_reference_below_bound(result.meet))
        assert list(result.components) == _reference_maximal(n, expected), (a, b)
        # same search order, and every packed count unpacks to the reference cells
        searched = [(p, RankMatrix._from_packed(n, c).cells) for p, c in _below_bound(result.meet)]
        assert searched == expected, (a, b)


def test_search_outputs_equal_validated_involutions():
    # closure and intersect skip the constructor's checks; their output must not show it
    draw = random.Random("trusted-outputs")
    outputs = []
    for n in range(1, 8):
        for e in all_involutions(n):
            outputs.extend(closure(e))
        for _ in range(20):
            a, b = draw.choice(all_involutions(n)), draw.choice(all_involutions(n))
            outputs.extend(intersect(a, b, force=True).components)
    for m in outputs:
        checked = Involution(m.n, m.pairs)
        assert type(m) is Involution
        assert vars(m) == vars(checked)
        assert m == checked and hash(m) == hash(checked) and str(m) == str(checked)
