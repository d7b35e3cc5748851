"""Closures, intersections, codimension, depth, and Hasse extraction."""

import hashlib
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
    SizeMismatch,
    all_involutions,
    change_rule_partners,
    closure,
    codim,
    delete_pair,
    depth,
    dimension,
    enumerate_tableaux,
    from_rank_matrix,
    hasse,
    hasse_dot,
    intersect,
    is_valid,
    leq,
    meet,
    project,
    rank_matrix,
    sigma_T,
    sigma_o,
)
from orbitposet import poset, rank_matrices
from orbitposet.errors import TooLarge
from orbitposet.rank_matrices import _below_bound


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
    result = intersect(inv("(1,2)(3,4)", 4), inv("(1,2)", 4))
    assert result.components == (inv("(1,2)", 4),)
    assert result.codim == 0


def test_intersect_answers_unequal_cycle_counts():
    # the same recipe as for equal counts: the set below the meet, whatever the counts
    result = intersect(inv("(1,2)(3,4)", 4), inv("(1,2)", 4))
    assert result.to_json_dict() == {
        "meet": [[0, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        "irreducible": True,
        "components": [{"involution": "(1,2)", "dim": 3}],
        "codim": 0,
        "equidimensional": True,
    }
    a, b = inv("(1,5)(3,4)", 5), inv("(2,3)", 5)  # neither below the other, a valid meet
    assert intersect(a, b) == intersect(b, a)
    assert intersect(a, b).components == (inv("(2,4)", 5),) and intersect(a, b).codim == 1
    reducible = intersect(inv("(1,2)(3,4)", 5), inv("(2,3)", 5))
    assert reducible.components == (inv("(1,3)", 5), inv("(2,4)", 5)) and not reducible.irreducible


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
                    assert leq(rank_matrix(comp), rank_matrix(a)) and leq(rank_matrix(comp), rank_matrix(b))


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
        bound = meet(rank_matrix(a), rank_matrix(b))
        down = {x for x in self.els if leq(self.mats[x], bound)}
        return sorted(x for x in down if self.strictly_above[x].isdisjoint(down))


def test_intersect_equals_brute_force_exhaustively_to_n6():
    for n in range(1, 7):
        brute = BruteMaximal(n)
        for a, b in itertools.combinations_with_replacement(brute.els, 2):
            assert list(intersect(a, b).components) == brute(a, b), (a, b)


@pytest.mark.parametrize("n", [7, 8])
def test_intersect_equals_brute_force_on_random_pairs(n):
    brute = BruteMaximal(n)
    draw = random.Random(f"intersect-n{n}")
    for _ in range(600):
        a, b = draw.choice(brute.els), draw.choice(brute.els)
        assert list(intersect(a, b).components) == brute(a, b), (a, b)


def test_intersect_maximal_images_n12():
    from orbitposet.tableaux import TwoColumnTableau

    a = sigma_T(TwoColumnTableau.parse("1,2,4,6,8,9|3,5,7,10,11,12"))
    b = sigma_T(TwoColumnTableau.parse("1,3,4,5,8,11|2,6,7,9,10,12"))
    result = intersect(a, b)
    assert result.components
    for comp in result.components:
        assert leq(rank_matrix(comp), rank_matrix(a)) and leq(rank_matrix(comp), rank_matrix(b))
    for x, y in itertools.permutations(result.components, 2):
        assert not leq(rank_matrix(x), rank_matrix(y))
    assert result.irreducible == (len(result.components) == 1)


def test_intersect_guard():
    # a reducible meet: the guard refuses its search past n = 12
    a, b = inv("(1,2)(3,4)", 13), inv("(2,3)(4,5)", 13)
    with pytest.raises(TooLarge):
        intersect(a, b)
    result = intersect(a, b, max_n=13)
    assert result.components == tuple(inv(c, 13) for c in ("(1,3)(2,5)", "(1,4)(3,5)", "(1,5)(2,4)"))


def test_intersect_guard_covers_only_the_search(monkeypatch):
    def searched(bound):
        raise AssertionError("the guard let the search start")

    monkeypatch.setattr(poset, "_maximal_below", searched)
    # a comparable pair and a valid meet answer past the guard's n
    assert intersect(inv("(1,2)", 13), inv("(1,3)", 13)).components == (inv("(1,3)", 13),)
    assert intersect(inv("(1,2)", 13), inv("(2,3)", 13)).components == (inv("(1,3)", 13),)
    with pytest.raises(TooLarge):
        intersect(inv("(1,2)(3,4)", 13), inv("(2,3)(4,5)", 13))


@pytest.mark.parametrize("n", [14, 20, 40])
def test_exchange_partners_intersect_irreducibly_past_the_guard(n):
    # codimension-one intersections are irreducible, so no pair reaches the
    # guarded search and none needs max_n
    from orbitposet.tableaux import TwoColumnTableau

    tab = TwoColumnTableau(tuple(range(1, n + 1, 2)), tuple(range(2, n + 1, 2)))
    partners = change_rule_partners(tab)
    assert partners
    for partner in partners:
        result = intersect(sigma_T(tab), sigma_T(partner))
        assert result.irreducible and result.codim == 1, partner


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


def test_hasse_at_one_length_is_the_same_length_covers():
    # the descendants are exactly the covers that keep the cycle count
    from orbitposet import cover_moves
    from orbitposet.poset import PosetEdge

    for n in range(1, 9):
        for k in range(n // 2 + 1):
            covers = [
                PosetEdge(upper, m.target, m.kind)
                for upper in all_involutions(n, k)
                for m in cover_moves(upper)
                if m.target.length == k
            ]
            assert hasse(n, k) == covers, (n, k)


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


def test_hasse_dot_without_edges():
    # k = 0 leaves only the identity, so the graph is the one node
    assert hasse(3, 0) == []
    dot = hasse_dot(3, 0)
    assert '"id" [label="id\\ndim 0"];' in dot and "->" not in dot
    assert "  { rank=same; \"id\" }" in dot


# sha256 prefixes of hasse_dot(n, k) as it read when the nodes were the
# endpoints of the edges (all_involutions(n, k) when there were none)
HASSE_DOT_DIGESTS = {
    (1, None): "e93cc5e30621a4d1", (1, 0): "e93cc5e30621a4d1",
    (2, None): "adaaad17a47f9b7a", (2, 0): "ac094d4dee36e97f", (2, 1): "4984559607bea832",
    (3, None): "d58db2c227dc4e51", (3, 0): "c30eda9a0a638959", (3, 1): "9b2f05638808328a",
    (4, None): "8e8e115ab30779b9", (4, 0): "e6468f1b097955e8", (4, 1): "d0f70849b2db046c",
    (4, 2): "a1ebbbac9ae8f6ac",
    (5, None): "5621ef67d0fa9ce8", (5, 0): "b8df212a4afaae38", (5, 1): "2d1d5a5fd9ef240a",
    (5, 2): "1c6058dd38c13394",
    (6, None): "c12d88462bf5221a", (6, 0): "50cff6e6fda035f8", (6, 1): "105732b6f533337e",
    (6, 2): "82ab9291617adbb1", (6, 3): "880c2968ad05f9f0",
}


def test_hasse_dot_text_is_pinned():
    assert set(HASSE_DOT_DIGESTS) == {(n, k) for n in range(1, 7) for k in (None, *range(n // 2 + 1))}
    for (n, k), digest in HASSE_DOT_DIGESTS.items():
        assert hashlib.sha256(hasse_dot(n, k).encode()).hexdigest()[:16] == digest, (n, k)


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


def test_closure_search_stops_at_the_weakest_failing_pair(monkeypatch):
    # at each node the first failing pair (a, last free point) ends the node:
    # two mask reads per member of closure((1,2)), not one per pair tried
    reads = []
    masks = rank_matrices._pair_masks

    class CountedRow:
        def __init__(self, row):
            self.row = row

        def __getitem__(self, b):
            reads.append(b)
            return self.row[b]

    monkeypatch.setattr(rank_matrices, "_pair_masks", lambda n: (None, *map(CountedRow, masks(n)[1:])))
    n = 100
    got = closure(Involution(n, ((1, 2),)))
    assert got == {Involution.identity(n)} | {Involution(n, ((1, b),)) for b in range(2, n + 1)}
    assert len(reads) <= 2 * n, len(reads)


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
        searched = [(p, RankMatrix._from_packed(n, c).cells) for p, c, _ in _below_bound(result.meet)]
        assert searched == expected, (a, b)


def _reference_maximal_below(bound):
    """Reference filter: every node is tested for saturation, and a kept node
    is dropped again when a later one lies above it."""
    n = bound.n
    masks = rank_matrices._pair_masks(n)
    guard = rank_matrices._guard(n)
    cap = bound.packed | guard
    kept = []
    for pairs, counts, free in _below_bound(bound):
        if free & (free - 1):  # two free points or more
            first, last = (free & -free).bit_length() - 1, free.bit_length() - 1
            if (cap - counts - masks[first][last]) & guard == guard:
                continue
        if any(((top | guard) - counts) & guard == guard for _, top in kept):
            continue
        kept = [(p, top) for p, top in kept if ((counts | guard) - top) & guard != guard]
        kept.append((pairs, counts))
    return [pairs for pairs, _ in kept]


def _reducible_meets(pairs):
    for a, b in pairs:
        bound = meet(rank_matrix(a), rank_matrix(b))
        if not is_valid(bound):
            yield bound


# reducible meets of two maximal orbits of one k, 1 010 in all
REDUCIBLE_MAXIMAL_MEETS = {5: 1, 6: 6, 7: 36, 8: 170, 9: 797}


@pytest.mark.parametrize("n", REDUCIBLE_MAXIMAL_MEETS)
def test_maximal_below_matches_the_every_node_filter_on_maximal_orbits(n):
    tops = [(sigma_T(t), sigma_T(s)) for k in range(n // 2 + 1) for t, s in itertools.combinations(enumerate_tableaux(n, k), 2)]
    searched = 0
    for bound in _reducible_meets(tops):
        assert sorted(rank_matrices._maximal_below(bound)) == sorted(_reference_maximal_below(bound)), bound
        searched += 1
    assert searched == REDUCIBLE_MAXIMAL_MEETS[n]


@pytest.mark.parametrize("n", range(9, 13))
def test_maximal_below_matches_the_every_node_filter_on_random_pairs(n):
    draw = random.Random(f"leaf-filter-n{n}")
    pairs = []
    for _ in range(30):
        k = draw.randint(2, n // 2)
        pairs.append((_random_involution(draw, n, k), _random_involution(draw, n, k)))
    bounds = list(_reducible_meets(pairs))
    assert len(bounds) >= 10
    for bound in bounds:
        assert sorted(rank_matrices._maximal_below(bound)) == sorted(_reference_maximal_below(bound)), bound


def test_a_maximal_search_at_n12_peaks_under_2_mib():
    # the saturated leaves are held as ints, never as pairs tuples
    draw = random.Random("leaf-filter-peak")
    bound = next(_reducible_meets(iter(lambda: (_random_involution(draw, 12, 6), _random_involution(draw, 12, 6)), None)))
    rank_matrices._pair_masks(12)
    tracemalloc.start()
    try:
        components = rank_matrices._maximal_below(bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert components and all(leq(rank_matrix(Involution(12, c)), bound) for c in components)
    assert peak < 2 * 2**20, peak


def test_search_outputs_equal_validated_involutions():
    # closure, intersect, recovery, windows, deletions and minimal orbits skip
    # the constructor's checks; their output must not show it
    draw = random.Random("trusted-outputs")
    outputs = []
    for n in range(1, 8):
        outputs.extend(sigma_o(n, k) for k in range(n // 2 + 1))
        for e in all_involutions(n):
            outputs.extend(closure(e))
            outputs.append(from_rank_matrix(rank_matrix(e)))
            outputs.extend(project(e, i, j) for i, j in itertools.combinations(range(1, n + 1), 2))
            outputs.extend(delete_pair(e, s) for s in range(1, e.length + 1))
        for _ in range(20):
            a, b = draw.choice(all_involutions(n)), draw.choice(all_involutions(n))
            outputs.extend(intersect(a, b).components)
    for m in outputs:
        checked = Involution(m.n, m.pairs)
        assert type(m) is Involution
        assert vars(m) == vars(checked)
        assert m == checked and hash(m) == hash(checked) and str(m) == str(checked)


def test_intersect_answers_comparable_pairs_and_valid_meets_without_a_search(monkeypatch):
    comparable = [
        (a, b) for n in range(1, 7) for a in all_involutions(n) for b in all_involutions(n)
        if leq(rank_matrix(a), rank_matrix(b))
    ]
    valid_meets = [
        (sigma_T(t), sigma_T(s))
        for k in range(5)
        for t, s in itertools.combinations(enumerate_tableaux(8, k), 2)
        if is_valid(meet(rank_matrix(sigma_T(t)), rank_matrix(sigma_T(s))))
    ]
    assert len(valid_meets) > 100

    def refuse(*_):
        raise AssertionError("intersect searched the down-set")

    monkeypatch.setattr(poset, "_below_bound", refuse)
    monkeypatch.setattr(poset, "_maximal_below", refuse)
    for a, b in comparable:
        for x, y in ((a, b), (b, a)):
            result = intersect(x, y)
            assert result.components == (a,) and result.meet == rank_matrix(a), (x, y)
            assert result.irreducible
    for a, b in valid_meets:
        result = intersect(a, b)
        assert result.components == (from_rank_matrix(meet(rank_matrix(a), rank_matrix(b))),) and result.irreducible
        assert result.codim == dimension(a) - dimension(result.components[0])


def test_a_meet_is_valid_exactly_when_it_is_an_image_to_n7():
    # the premise of intersect's valid-meet step, across lengths
    for n in range(1, 8):
        els = all_involutions(n)
        images = {rank_matrix(x) for x in els}
        pairs = valid = 0
        for a, b in itertools.combinations(els, 2):
            bound = meet(rank_matrix(a), rank_matrix(b))
            assert is_valid(bound) == (bound in images), (a, b)
            pairs, valid = pairs + 1, valid + (bound in images)
    assert (pairs, valid) == (26_796, 19_910)


# codim-1 pairs of maximal orbits, over every k; the oracle's experiments suite logs n <= 8
CODIM_ONE_PAIRS = {3: 1, 4: 3, 5: 9, 6: 23, 7: 55, 8: 131, 9: 290}


@pytest.mark.parametrize("n", range(3, 10))
def test_codim_one_intersections_are_the_change_rule_partners_and_irreducible(n):
    # the paper's theorem, through intersect, for every pair of maximal orbits
    codim_one = 0
    for k in range(n // 2 + 1):
        for t, s in itertools.combinations(enumerate_tableaux(n, k), 2):
            result = intersect(sigma_T(t), sigma_T(s))
            partners = s in change_rule_partners(t)
            assert (result.codim == 1) == partners, (t, s)
            assert result.irreducible or not partners, (t, s)
            codim_one += partners
    assert codim_one == CODIM_ONE_PAIRS[n]
