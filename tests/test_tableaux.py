"""Two-column tableaux, the maximal-orbit map, and exchange partner rules."""

import ast
import random
from itertools import combinations
from pathlib import Path

import pytest

from orbitposet import (
    BadRank,
    ColumnPairArray,
    InvalidTableau,
    Involution,
    NotInColumn,
    OutOfRange,
    ParseError,
    TwoColumnTableau,
    all_involutions,
    ancestors,
    change,
    change_candidates_high,
    change_candidates_low,
    change_rule_partners,
    codim1_partners,
    cover,
    descendants,
    dimension,
    enumerate_tableaux,
    from_rank_matrix,
    hook_length_count,
    leq,
    meet,
    rank_matrix,
    sigma_T,
    sigma_pairs_by_b,
    tableau_of,
)

from orbitposet.rs import StandardTableau, find_rs_witness, standard_from_two_column, two_column_from_standard
from orbitposet.tableaux import _first_column, _second_columns

EXAMPLE = TwoColumnTableau((1, 2, 3, 6), (4, 5, 7, 8))


def inv(text, n):
    return Involution.parse(text, n)


def test_parse_and_format():
    assert TwoColumnTableau.parse("1,2,3,6|4,5,7,8") == EXAMPLE
    assert str(EXAMPLE) == "1,2,3,6|4,5,7,8"
    single = TwoColumnTableau.parse("1,2,3")
    assert single.k == 0 and single.n == 3
    assert str(single) == "1,2,3"
    with pytest.raises(ParseError):
        TwoColumnTableau.parse("1,2|3|4")
    with pytest.raises(ParseError):
        TwoColumnTableau.parse("a,b")


def test_validation():
    with pytest.raises(InvalidTableau):
        TwoColumnTableau((1, 4), (2, 3))  # row 2 decreases
    with pytest.raises(InvalidTableau):
        TwoColumnTableau((2,), (1,))  # 1 must sit in the first column
    with pytest.raises(InvalidTableau):
        TwoColumnTableau((1,), (2, 3))  # second column longer
    with pytest.raises(InvalidTableau):
        TwoColumnTableau((1, 2), (2, 4))  # not a partition of 1..n


def test_array_rejections():
    with pytest.raises(InvalidTableau, match="^first column must be nonempty$"):
        ColumnPairArray((), ())
    for col1, col2 in (((3, 1, 2), (4,)), ((1, 2), (4, 3)), ((1, 1), (2,))):
        with pytest.raises(InvalidTableau, match="^column entries must strictly increase$"):
            ColumnPairArray(col1, col2)


def test_an_array_needs_a_first_column():
    # "|1" is not the text format, so such an array could not print and reparse
    with pytest.raises(InvalidTableau):
        ColumnPairArray((), (1,))
    with pytest.raises(ParseError):
        ColumnPairArray.parse("|1")


def test_sigma_T_worked_example():
    assert sigma_pairs_by_b(EXAMPLE) == ((3, 4), (2, 5), (6, 7), (1, 8))
    assert sigma_T(EXAMPLE) == inv("(1,8)(2,5)(3,4)(6,7)", 8)
    assert dimension(sigma_T(EXAMPLE)) == 16


def test_sigma_T_trivia():
    assert sigma_T(TwoColumnTableau.parse("1,2,3")) == Involution.identity(3)
    assert sigma_T(TwoColumnTableau((1, 3), (2, 4))) == inv("(1,2)(3,4)", 4)


def test_tableau_of_roundtrip():
    assert tableau_of(inv("(1,8)(2,5)(3,4)(6,7)", 8)) == EXAMPLE
    assert tableau_of(inv("(1,4)(2,5)", 5)) is None  # dimension 3, not 6
    assert tableau_of(Involution.identity(3)) == TwoColumnTableau.parse("1,2,3")


def test_bijection_small():
    for n in range(1, 8):
        for k in range(n // 2 + 1):
            tabs = list(enumerate_tableaux(n, k))
            images = {sigma_T(t): t for t in tabs}
            assert len(images) == len(tabs)
            maximal = {e for e in all_involutions(n, k) if dimension(e) == k * (n - k)}
            assert set(images) == maximal
            for sig, tab in images.items():
                assert tableau_of(sig) == tab


def test_tableau_counts_match_hook_lengths():
    assert hook_length_count(6, 3) == 5
    for n in range(1, 9):
        for k in range(n // 2 + 1):
            assert len(list(enumerate_tableaux(n, k))) == hook_length_count(n, k)


def test_pair_gaps_are_odd():
    for n in range(1, 9):
        for k in range(n // 2 + 1):
            for tab in enumerate_tableaux(n, k):
                assert all((b - a) % 2 == 1 for a, b in sigma_T(tab).pairs)


def test_change_examples():
    arr = change(EXAMPLE, 3, 4)
    assert arr == ColumnPairArray((1, 2, 4, 6), (3, 5, 7, 8))
    assert arr.is_tableau()
    bad = change(EXAMPLE, 1, 8)
    assert not bad.is_tableau()
    with pytest.raises(InvalidTableau):
        bad.to_tableau()
    # applying the same swap twice restores the tableau
    again = change(arr.to_tableau(), 4, 3)
    assert again.to_tableau() == EXAMPLE
    with pytest.raises(NotInColumn):
        change(EXAMPLE, 4, 5)
    with pytest.raises(NotInColumn):
        change(EXAMPLE, 1, 2)


def test_to_tableau_equals_the_validating_constructor():
    # to_tableau, enumerate_tableaux, tableau_of, find_rs_witness's P and both
    # standard-tableau conversions skip the constructors' checks; their
    # output must not show it
    outputs, standards = [], []
    for n in range(1, 10):
        for k in range(n // 2 + 1):
            tabs = list(enumerate_tableaux(n, k))
            outputs += tabs
            outputs += (tableau_of(sigma_T(tab)) for tab in tabs)
            converted = list(map(standard_from_two_column, tabs))
            standards += converted
            outputs += map(two_column_from_standard, converted)
            if n <= 6:
                witnesses = (find_rs_witness(t, s) for t, s in combinations(tabs, 2))
                outputs += (witness[0] for witness in witnesses if witness is not None)
            for tab in tabs:
                for i in tab.col1:
                    for j in tab.col2:
                        arr = change(tab, i, j)
                        if not arr.is_tableau():
                            with pytest.raises(InvalidTableau, match="rows must increase"):
                                arr.to_tableau()
                            continue
                        outputs.append(arr.to_tableau())
    for built in outputs:
        checked = TwoColumnTableau(built.col1, built.col2)
        assert type(built) is TwoColumnTableau and vars(built) == vars(checked)
        assert built == checked and hash(built) == hash(checked)
    for built in standards:
        checked = StandardTableau(built.rows)
        assert type(built) is StandardTableau and vars(built) == vars(checked)
        assert built == checked and hash(built) == hash(checked)
    with pytest.raises(InvalidTableau, match="first column must be at least as long"):
        ColumnPairArray((1,), (2, 3)).to_tableau()


def test_change_candidates_low():
    # b-ordered pairs (3,4)(2,5)(6,7)(1,8): thresholds 2,4,6,8
    assert change_candidates_low(EXAMPLE) == [(3, 4), (2, 5), (6, 7)]
    assert change_candidates_low(TwoColumnTableau((1, 3), (2, 4))) == []


def test_change_candidates_low_odd_second_entry_always_qualifies():
    for n in range(2, 8):
        for k in range(1, n // 2 + 1):
            for tab in enumerate_tableaux(n, k):
                low = dict(
                    (b, i) for i, b in change_candidates_low(tab)
                )
                for i, b in sigma_pairs_by_b(tab):
                    if b % 2 == 1:
                        assert b in low


def test_change_candidates_high():
    assert change_candidates_high(TwoColumnTableau((1, 3), (2, 4))) == [(3, (2,))]
    assert change_candidates_high(EXAMPLE) == [(6, (5,))]
    # entries a with a-1 in the first column contribute nothing
    for a, _ in change_candidates_high(EXAMPLE):
        assert a - 1 in EXAMPLE.col2


def test_change_candidates_high_interval_rule():
    tab = TwoColumnTableau((1, 3, 4, 7), (2, 5, 6, 8))
    assert change_candidates_high(tab) == [(3, (2,)), (7, (2, 6))]
    partner = change(tab, 7, 2).to_tableau()
    assert partner == TwoColumnTableau((1, 2, 3, 4), (5, 6, 7, 8))
    assert partner in codim1_partners(tab)


def test_partner_examples():
    t4 = TwoColumnTableau((1, 2), (3, 4))
    assert codim1_partners(t4) == {TwoColumnTableau((1, 3), (2, 4))}
    t3 = TwoColumnTableau((1, 2), (3,))
    assert codim1_partners(t3) == {TwoColumnTableau((1, 3), (2,))}
    single = TwoColumnTableau.parse("1,2,3,4")
    assert codim1_partners(single) == set()


def test_partner_rules_agree():
    for n in range(1, 8):
        for k in range(n // 2 + 1):
            for tab in enumerate_tableaux(n, k):
                assert change_rule_partners(tab) == codim1_partners(tab)


def test_partners_come_from_maximal_ancestors():
    # codim1_partners reads each ancestor's columns without a dimension test
    # or the validating constructor; both must be redundant
    for n in range(1, 10):
        for k in range(n // 2 + 1):
            for tab in enumerate_tableaux(n, k):
                sig = sigma_T(tab)
                uppers = {up for low in descendants(sig) for up in ancestors(low)} - {sig}
                assert all(tableau_of(up) is not None for up in uppers), tab
                partners = codim1_partners(tab)
                assert partners == {tableau_of(up) for up in uppers}, tab
                for partner in partners:
                    assert TwoColumnTableau(partner.col1, partner.col2) == partner


def test_partner_rules_agree_on_random_tableaux_to_n30():
    rng = random.Random(16)
    for n in range(8, 31):
        for k in range(n // 2 + 1):
            for _ in range(2):
                while True:  # a random k-subset that meets the ballot condition
                    col2 = tuple(sorted(rng.sample(range(1, n + 1), k)))
                    if all(c >= 2 * r for r, c in enumerate(col2, 1)):
                        break
                col1 = tuple(x for x in range(1, n + 1) if x not in col2)
                tab = TwoColumnTableau(col1, col2)
                assert change_rule_partners(tab) == codim1_partners(tab), tab


def test_partner_symmetry_and_odd_gap():
    for n in range(2, 7):
        for k in range(1, n // 2 + 1):
            tabs = list(enumerate_tableaux(n, k))
            partner_map = {tab: codim1_partners(tab) for tab in tabs}
            for tab in tabs:
                for other in partner_map[tab]:
                    assert tab in partner_map[other]
                for i, b in change_candidates_low(tab):
                    assert (b - i) % 2 == 1
                for a, bs in change_candidates_high(tab):
                    assert all((a - b) % 2 == 1 for b in bs)


def _reference_candidates_high(tab):
    """The interval-set form ``change_candidates_high`` replaced: one set pair per candidate."""
    by_b = sigma_pairs_by_b(tab)
    bs = [b for _, b in by_b]
    out = []
    for a in tab.col1:
        if a - 1 not in tab.col2:
            continue
        t_idx = bs.index(a - 1)
        hits = []
        for p0, (_, b_p) in enumerate(by_b):
            if b_p == a - 1:
                hits.append(b_p)
            elif b_p < a - 1:
                interval = set(range(b_p + 1, a))
                entries = {x for q in range(p0 + 1, t_idx + 1) for x in by_b[q]}
                if interval == entries:
                    hits.append(b_p)
        if hits:
            out.append((a, tuple(sorted(hits))))
    return out


def test_change_candidates_high_matches_the_interval_reference():
    count = 0
    for n in range(1, 15):
        for k in range(n // 2 + 1):
            for tab in enumerate_tableaux(n, k):
                assert change_candidates_high(tab) == _reference_candidates_high(tab), tab
                count += 1
    assert count == 7_059


def test_codim_one_through_the_grading():
    # The order is graded, so two maximal orbits meet in codimension one
    # exactly when a cover of one (deletions included) lies below the other.
    # That cover is then the whole intersection: it is unique, and the meet
    # is valid and recovers to it.
    codim_one = 0
    for n in range(1, 13):
        for k in range(n // 2 + 1):
            tabs = list(enumerate_tableaux(n, k))
            ranks = {tab: rank_matrix(sigma_T(tab)) for tab in tabs}
            for t in tabs:
                covers = [(c, rank_matrix(c)) for c in cover(sigma_T(t))]
                partners = change_rule_partners(t)
                for s in tabs:
                    if s == t:
                        continue
                    below = [c for c, rc in covers if leq(rc, ranks[s])]
                    assert bool(below) == (s in partners), (t, s)
                    if below:
                        assert len(below) == 1, (t, s)
                        assert from_rank_matrix(meet(ranks[t], ranks[s])) == below[0], (t, s)
                        codim_one += 1
    assert codim_one == 11_520


def _reference_ballot_columns(n, k):
    """Every k-subset of 1..n in lexicographic order, kept when it is a ballot column."""
    if not 0 <= k <= n // 2:
        return
    everything = set(range(1, n + 1))
    for col2 in combinations(range(1, n + 1), k):
        if all(c >= 2 * (r + 1) for r, c in enumerate(col2)):
            yield tuple(sorted(everything - set(col2))), col2


def test_ballot_columns_match_the_subset_filter():
    for n in range(15):
        for k in range(-1, n // 2 + 2):
            columns = [(_first_column(n, c), c) for c in _second_columns(n, k)]
            assert columns == list(_reference_ballot_columns(n, k)), (n, k)


def test_enumeration_runs_past_the_recursion_limit():
    first = next(enumerate_tableaux(2100, 1050))
    assert first.col2 == tuple(range(2, 2101, 2))


@pytest.mark.parametrize(
    "n, k, error", [(0, 0, OutOfRange), (-1, 0, OutOfRange), (3, 2, BadRank), (4, -1, BadRank)]
)
def test_enumeration_checks_its_arguments_at_the_call(n, k, error):
    with pytest.raises(error):
        enumerate_tableaux(n, k)  # not iterated


def _reference_sigma_pairs_by_b(tab):
    """Each second-column entry b takes the largest still-free first-column entry below it."""
    free = set(tab.col1)
    pairs = []
    for b in tab.col2:
        i = max(d for d in free if d < b)
        free.remove(i)
        pairs.append((i, b))
    return tuple(pairs)


def test_sigma_pairs_by_b_matches_the_free_set_reference():
    for n in range(1, 13):
        for k in range(n // 2 + 1):
            for tab in enumerate_tableaux(n, k):
                assert sigma_pairs_by_b(tab) == _reference_sigma_pairs_by_b(tab), tab


def _self_calls(tree, module):
    """The qualified name of every function whose body calls it by its own name."""
    stack = [(tree, module)]
    while stack:
        node, qualname = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((child, qualname))
                continue
            inner = f"{qualname}.{child.name}"
            stack.append((child, inner))
            if isinstance(child, ast.ClassDef):
                continue
            calls = (c for c in ast.walk(child) if isinstance(c, ast.Call))
            if any(getattr(c.func, "id", None) == child.name for c in calls):
                yield inner


def test_no_library_function_calls_itself():
    package = Path(__file__).resolve().parent.parent / "src" / "orbitposet"
    found = [
        name
        for path in sorted(package.glob("*.py"))
        for name in _self_calls(ast.parse(path.read_text()), path.stem)
    ]
    assert found == []
