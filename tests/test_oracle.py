"""The verification layer itself: counting oracles, brute covers, suites."""

import ast
from pathlib import Path

import pytest

import orbitposet.oracle

from orbitposet import (
    Involution,
    TooLarge,
    UnknownSuite,
    all_involutions,
    brute_covers,
    hook_length_count,
    involution_number,
    involution_number_k,
    leq,
    rank_matrix,
    suite_names,
    verify_suite,
)


def inv(text, n):
    return Involution.parse(text, n)


def test_involution_numbers():
    assert [involution_number(n) for n in range(9)] == [1, 1, 2, 4, 10, 26, 76, 232, 764]


def test_involution_numbers_by_k():
    assert involution_number_k(4, 2) == 3
    assert involution_number_k(7, 0) == 1
    assert involution_number_k(7, 3) == 105
    for n in range(1, 9):
        assert sum(involution_number_k(n, k) for k in range(n // 2 + 1)) == involution_number(n)


def test_hook_length_counts():
    assert hook_length_count(6, 3) == 5
    assert hook_length_count(5, 0) == 1
    assert hook_length_count(4, 2) == 2
    assert hook_length_count(8, 4) == 14


def test_brute_covers_n3():
    covers = brute_covers(3)
    assert covers[inv("(1,2)", 3)] == {inv("(1,3)", 3)}
    assert covers[inv("(2,3)", 3)] == {inv("(1,3)", 3)}
    assert covers[inv("(1,3)", 3)] == {Involution.identity(3)}
    assert covers[Involution.identity(3)] == set()


def test_brute_covers_n2():
    assert brute_covers(2)[inv("(1,2)", 2)] == {Involution.identity(2)}


@pytest.mark.parametrize("n", range(1, 7))
def test_brute_covers_match_the_literal_definition(n):
    """y covers-below x when y < x and no other z < x lies above y."""
    els = all_involutions(n)
    mats = {e: rank_matrix(e) for e in els}
    covers = brute_covers(n)
    for x in els:
        below = [y for y in els if y != x and leq(mats[y], mats[x])]
        literal = {
            y for y in below if not any(z != y and leq(mats[y], mats[z]) for z in below)
        }
        assert covers[x] == literal, x


def test_brute_covers_guard():
    with pytest.raises(TooLarge):
        brute_covers(9)


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        verify_suite("nonsense")


def test_environment_overrides_guard():
    """Only the per-call override replaces a guard's default."""
    from orbitposet.limits import check_guard

    with pytest.raises(TooLarge):
        check_guard(9, 8)
    check_guard(9, 8, override=10)
    with pytest.raises(TooLarge):
        check_guard(11, 8, override=10)


def test_suite_guard():
    with pytest.raises(TooLarge):
        verify_suite("descendants", n_max=9)
    # but the guard can be lifted explicitly
    report = verify_suite("counts", n_max=4, max_n=12)
    assert report.passed


def test_every_suite_passes_quickly_at_small_rank():
    for name in suite_names():
        report = verify_suite(name, n_max=4)
        assert report.passed, f"{name}: {[str(f) for f in report.failures]}"
        assert report.checks_run > 0
        assert report.suite == name


@pytest.mark.parametrize("n_max", [0, -3])
def test_a_run_with_no_checks_does_not_pass(n_max):
    report = verify_suite("counts", n_max=n_max)
    assert report.checks_run == 0 and not report.failures
    assert not report.passed
    assert report.to_json_dict()["passed"] is False
    assert any("no checks ran" in note for note in report.notes)


def test_report_json_shape():
    report = verify_suite("counts", n_max=5)
    d = report.to_json_dict()
    assert d["suite"] == "counts"
    assert d["passed"] is True
    assert d["failures"] == []
    assert isinstance(d["elapsed"], float)


def test_a_failing_check_is_reported(monkeypatch):
    real = orbitposet.oracle.descendants
    monkeypatch.setattr(orbitposet.oracle, "descendants", lambda e: set(sorted(real(e))[1:]))
    report = verify_suite("descendants", n_max=4)
    assert not report.passed and len(report.failures) == 18
    failure = report.failures[0]
    assert str(failure) == (
        "descendants are the same-length covers | witness n=3 sigma=(1,2) | "
        "expected {Involution(n=3, pairs=((1, 3),))} | got set()"
    )
    d = report.to_json_dict()
    assert d["passed"] is False
    assert d["failures"][0] == {
        "claim": failure.claim,
        "witness": failure.witness,
        "expected": failure.expected,
        "got": failure.got,
    }


def test_codim_suite_logs_reducible_example():
    report = verify_suite("codim", n_max=5)
    assert report.passed
    assert any("reducible" in note for note in report.notes)


def test_experiments_suite_reports_witness_free_pair():
    report = verify_suite("experiments", n_max=6)
    assert report.passed
    assert any("witness-free" in note for note in report.notes)


def test_a_failing_scan_is_still_one_check(monkeypatch):
    passing = verify_suite("order", n_max=4)
    assert passing.passed and passing.checks_run == 146
    monkeypatch.setattr(orbitposet.oracle, "leq", lambda a, b: True)
    report = verify_suite("order", n_max=4)
    assert report.checks_run == 146
    antisymmetry = [f for f in report.failures if f.claim == "antisymmetric"]
    assert [f.witness for f in antisymmetry] == ["n=2", "n=3", "n=4"]
    assert all(f.expected == "[]" for f in antisymmetry)


PINNED_CHECKS = {
    "moves": 7668,
    "descendants": 702,
    "cover": 387,
    "depth": 1836,
    "closure": 119,
    "reachability": 119,
}


@pytest.mark.parametrize("name", PINNED_CHECKS)
def test_suite_check_count_is_pinned(name):
    report = verify_suite(name)
    assert report.passed
    assert report.checks_run == PINNED_CHECKS[name]


def test_oracle_imports_no_private_names():
    tree = ast.parse(Path(orbitposet.oracle.__file__).read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "orbitposet")
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name.startswith("_")] == []
