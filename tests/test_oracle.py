"""The verification layer itself: counting oracles, brute covers, suites."""

import ast
import itertools
from dataclasses import fields
from pathlib import Path

import pytest

import orbitposet.oracle

from orbitposet.oracle import _Recorder
from orbitposet.tableaux import ColumnPairArray
from orbitposet import (
    Involution,
    TooLarge,
    UnknownSuite,
    VerificationReport,
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


def test_per_call_override_replaces_guard_default():
    """The override replaces the default, upward or downward."""
    from orbitposet.limits import check_guard

    with pytest.raises(TooLarge):
        check_guard(9, 8)
    check_guard(9, 8, override=10)
    with pytest.raises(TooLarge):
        check_guard(11, 8, override=10)


def test_only_limits_raises_too_large():
    raising = set()
    for path in sorted(Path(orbitposet.oracle.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name == "TooLarge":
                    raising.add(path.stem)
    assert raising == {"limits"}


def test_no_module_reads_the_environment():
    # a guard is lifted only per call, never by a process-wide variable
    names = {"environ", "environb", "getenv"}
    reading = set()
    for path in sorted(Path(orbitposet.oracle.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in names:
                reading.add(path.stem)
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                if any(alias.name in names for alias in node.names):
                    reading.add(path.stem)
    assert reading == set()


def test_suite_guard():
    with pytest.raises(TooLarge):
        verify_suite("descendants", n_max=9)
    # but the guard can be lifted explicitly
    report = verify_suite("counts", n_max=4, max_n=12)
    assert report.passed


def test_guard_override_is_keyword_only():
    # a third positional argument is not silently read as max_n
    with pytest.raises(TypeError):
        verify_suite("counts", 4, 12)


def test_report_fields():
    names = [f.name for f in fields(VerificationReport)]
    assert names == ["suite", "n_max", "checks_run", "failures", "notes", "elapsed"]


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


def _raise(*_):
    raise AssertionError("witness text built for a passing check")


def test_a_passing_check_never_builds_its_witness():
    rec = _Recorder()
    rec.check(True, "claim", _raise, 1, 2)
    rec.holds(True, "claim", _raise)
    rec.equal(1, 1, "claim", _raise)
    assert rec.checks == 3 and rec.failures == []
    rec.equal(1, 2, "claim", lambda: "w")
    assert rec.checks == 4 and [str(f) for f in rec.failures] == ["claim | witness w | expected 1 | got 2"]


def test_passing_suites_format_no_involution_or_tableau(monkeypatch):
    monkeypatch.setattr(Involution, "__str__", _raise)
    monkeypatch.setattr(ColumnPairArray, "__str__", _raise)
    for name in suite_names():
        assert verify_suite(name, n_max=4).passed, name


def test_a_failure_from_the_positional_cover_table_keeps_its_text(monkeypatch):
    monkeypatch.setattr(orbitposet.oracle, "cover", lambda e: set())
    report = verify_suite("cover", n_max=4)
    assert report.checks_run == 35 and len(report.failures) == 13
    assert str(report.failures[0]) == (
        "cover matches all-pairs scan | witness n=2 sigma=(1,2) | "
        "expected {Involution(n=2, pairs=())} | got set()"
    )
    assert [f.witness for f in report.failures[-3:]] == ["n=4 sigma=(2,3)", "n=4 sigma=(2,4)", "n=4 sigma=(3,4)"]


def test_a_failure_from_the_positional_triple_scan_keeps_its_text(monkeypatch):
    # closeness of cell sums: reflexive and symmetric, but not transitive
    monkeypatch.setattr(orbitposet.oracle, "leq", lambda a, b: abs(sum(a.cells) - sum(b.cells)) <= 1)
    report = verify_suite("order", n_max=3)
    assert report.checks_run == 34
    [broken] = [f for f in report.failures if f.claim == "transitive"]
    e, c12, c13, c23 = Involution.identity(3), inv("(1,2)", 3), inv("(1,3)", 3), inv("(2,3)", 3)
    assert (broken.witness, broken.expected) == ("n=3", "[]")
    assert broken.got == str([(e, c13, c12), (e, c13, c23), (c12, c13, e), (c23, c13, e)])


def _fewer_descendants(monkeypatch):
    real = orbitposet.oracle.descendants
    monkeypatch.setattr(orbitposet.oracle, "descendants", lambda e: set(sorted(real(e))[1:]))


def test_the_reachability_table_sees_a_patched_descendants(monkeypatch):
    _fewer_descendants(monkeypatch)
    report = verify_suite("reachability", n_max=5)
    assert report.checks_run == 43 and len(report.failures) == 32
    assert report.failures[0].witness == "n=3 sigma=(1,2)"


# orders that are not partial orders, with depth's (checks, failures) at n_max = 4
_WRONG_ORDERS = {
    "always": (lambda a, b: True, 137, 127),
    "equal": (lambda a, b: a == b, 33, 25),
    "total": (lambda a, b: sum(a.cells) <= sum(b.cells), 89, 75),
    "close": (lambda a, b: abs(sum(a.cells) - sum(b.cells)) <= 1, 77, 63),
}


@pytest.mark.parametrize("wrong,checks,failures", _WRONG_ORDERS.values(), ids=_WRONG_ORDERS)
def test_a_wrong_order_fails_checks_and_no_suite_raises(monkeypatch, wrong, checks, failures):
    monkeypatch.setattr(orbitposet.oracle, "leq", wrong)
    reports = {name: verify_suite(name, n_max=4) for name in suite_names()}
    depth = reports["depth"]
    assert not depth.passed
    assert (depth.checks_run, len(depth.failures)) == (checks, failures)


def test_the_cli_reports_a_wrong_order_without_a_traceback(monkeypatch, capsys):
    from orbitposet.cli import main

    monkeypatch.setattr(orbitposet.oracle, "leq", lambda a, b: True)
    assert main(["verify", "--suite", "depth", "--n", "4"]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("suite depth: FAIL (137 checks, 127 failures") and err == ""


def _depth_failures(monkeypatch, name, extra):
    """Depth at n_max = 4 with ``extra(*args)`` added to the oracle's ``name``."""
    real = getattr(orbitposet.oracle, name)
    monkeypatch.setattr(orbitposet.oracle, name, lambda *args: real(*args) + extra(*args))
    report = verify_suite("depth", n_max=4)
    return report.checks_run, sorted(str(f) for f in report.failures)


def test_the_chain_walk_sees_a_dimension_off_by_one(monkeypatch):
    checks, failures = _depth_failures(monkeypatch, "dimension", lambda e: e.pairs[:1] == ((1, 2),))
    text = "all chains have length equal to the dimension gap | witness n={} upper={} lower={} | expected {} | got ({}, {})"
    gaps = [
        (2, "(1,2)", "id", 2), (3, "(1,2)", "id", 3), (3, "(1,2)", "(1,3)", 2), (4, "(1,2)", "id", 4),
        (4, "(1,2)(3,4)", "id", 5), (4, "(1,2)", "(1,3)", 2), (4, "(1,2)(3,4)", "(1,3)", 3),
        (4, "(1,2)(3,4)", "(1,3)(2,4)", 2), (4, "(1,2)", "(1,4)", 3), (4, "(1,2)(3,4)", "(1,4)", 4),
        (4, "(1,2)(3,4)", "(2,4)", 3), (4, "(1,2)(3,4)", "(3,4)", 2),
    ]
    assert checks == 71
    assert failures == sorted(text.format(n, upper, lower, gap, gap - 1, gap - 1) for n, upper, lower, gap in gaps)


def test_the_chain_walk_sees_a_depth_off_by_one(monkeypatch):
    checks, failures = _depth_failures(monkeypatch, "depth", lambda x, k: k == 0 and x.length == 2)
    assert checks == 71
    assert failures == [
        f"depth equals walked chain length | witness n=4 sigma={sigma} k=0 | expected {chain} | got {chain + 1}"
        for sigma, chain in (("(1,2)(3,4)", 4), ("(1,3)(2,4)", 3), ("(1,4)(2,3)", 4))
    ]


def test_the_ancestors_tables_see_a_patched_descendants(monkeypatch):
    _fewer_descendants(monkeypatch)
    report = verify_suite("ancestors", n_max=5)
    assert report.checks_run == 111 and len(report.failures) == 17
    assert str(report.failures[0]) == (
        "codim one iff shared degeneration (maximal orbits) | witness n=3 a=(1,2) b=(2,3) | "
        "expected False | got True"
    )


def test_the_delete_scan_sees_a_patched_delete_pair(monkeypatch):
    real = orbitposet.oracle.delete_pair
    monkeypatch.setattr(orbitposet.oracle, "delete_pair", lambda e, s: real(e, e.length + 1 - s))
    report = verify_suite("delete", n_max=4)
    assert report.checks_run == 16 and len(report.failures) == 6
    assert report.failures[0].witness == "n=4 sigma=(1,2)(3,4) s=1"


class _OtherCells:
    """A rank matrix whose ``cells`` tuple is replaced; everything else is the real one's."""

    def __init__(self, real, cells):
        self._real, self.cells = real, cells

    def __getattr__(self, name):
        return getattr(self._real, name)


@pytest.mark.parametrize("recell", [lambda c: c[:-1], lambda c: c + (0,)], ids=["short", "long"])
def test_a_cells_tuple_of_the_wrong_length_fails_every_cell_check(monkeypatch, recell):
    real = orbitposet.oracle.rank_matrix
    monkeypatch.setattr(orbitposet.oracle, "rank_matrix", lambda e: _OtherCells(real(e), recell(real(e).cells)))
    delete = verify_suite("delete", n_max=4)
    assert delete.checks_run == 16 and len(delete.failures) == 16
    window_law = [f for f in verify_suite("rank", n_max=4).failures if f.claim == "window law"]
    # n = 2, 3, 4: 2 x 1 + 4 x 3 + 10 x 6 windows, each one check that fails
    assert len(window_law) == 74
    assert (window_law[0].witness, window_law[0].got) == ("n=2 sigma=id window=(1,2)", "None")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_step_matrices_are_the_brute_force_filter(n):
    from orbitposet.oracle import _step_matrices

    cells = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def entry(values, i, j):
        return values[cells.index((i, j))] if i < j else 0

    def steps(values):
        return all(
            entry(values, i, j) - entry(values, i + 1, j) in (0, 1)
            and entry(values, i, j) - entry(values, i, j - 1) in (0, 1)
            for i, j in cells
        )

    brute = [values for values in itertools.product(range(n // 2 + 1), repeat=len(cells)) if steps(values)]
    assert sorted(r.cells for r in _step_matrices(n)) == brute


def test_step_matrix_counts_are_pinned():
    from orbitposet.oracle import _step_matrices

    assert [len(_step_matrices(n)) for n in range(1, 7)] == [1, 2, 5, 27, 160, 2120]


def test_every_witness_is_a_lambda():
    # eager f-strings cost every passing check their formatting
    position = {"check": 2, "holds": 2, "equal": 3}
    witnesses = [
        node.args[position[node.func.attr]]
        for node in ast.walk(ast.parse(Path(orbitposet.oracle.__file__).read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "rec"
        and node.func.attr in position
    ]
    assert len(witnesses) > 50
    assert [w.lineno for w in witnesses if not isinstance(w, ast.Lambda)] == []


# the whole gate: every suite's checks and notes at its default range
PINNED_CHECKS = {
    "counts": 56,
    "dimension": 5254,
    "rank": 2733,
    "order": 850,
    "delete": 752,
    "moves": 7668,
    "descendants": 702,
    "cover": 387,
    "depth": 1836,
    "closure": 119,
    "reachability": 119,
    "codim": 4674,
    "ancestors": 1912,
    "tableaux": 765,
    "partners": 441,
    "rs": 6086,
    "experiments": 521,
}
PINNED_NOTES = {
    "codim": (
        "n=5: 10 reducible equal-length intersections; first (1,2)(3,4) with (1,3)(4,5): "
        "components (1,3)(2,5),(1,4)(3,5)",
        "n=6: 152 reducible equal-length intersections; first (1,2)(3,4) with (1,3)(4,5): "
        "components (1,3)(2,5),(1,4)(3,5)",
    ),
    "experiments": (
        *(
            f"n={n}: equal-dimension pairs, codim-1 vs shared-descendant: {agree} agree, 0 disagree"
            for n, agree in enumerate([0, 0, 1, 5, 38, 252], start=1)
        ),
        *(
            f"n={n}: {count}/{count} codim-1 maximal intersections irreducible"
            for n, count in enumerate([0, 1, 3, 9, 23, 55, 131], start=2)
        ),
        "smallest witness-free codim-1 pair with k>=3: n=6 k=3 T=1,3,5|2,4,6 S=1,2,3|4,5,6",
    ),
}


def test_the_pins_cover_the_whole_gate():
    assert list(PINNED_CHECKS) == suite_names()
    assert sum(PINNED_CHECKS.values()) == 34875
    assert set(PINNED_NOTES) <= set(PINNED_CHECKS)


@pytest.mark.parametrize("name", PINNED_CHECKS)
def test_suite_check_count_is_pinned(name):
    report = verify_suite(name)
    assert report.passed
    assert report.checks_run == PINNED_CHECKS[name]
    assert report.notes == PINNED_NOTES.get(name, ())


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
