"""Command-line surface: text output, JSON output against the shipped schema."""

import io
import json
import os
import select
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import orbitposet
import orbitposet.oracle
from orbitposet.cli import main
from orbitposet.oracle import suite_names

SCHEMA = json.loads(
    resources.files("orbitposet").joinpath("schemas/cli_output.schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(command, payload):
    wrapper = {"$defs": SCHEMA["$defs"], "$ref": f"#/$defs/{command}"}
    jsonschema.validate(payload, wrapper)


def run_json(capsys, command, *argv):
    code, out, err = run(capsys, command, *argv, "--json")
    assert code == 0, err
    payload = json.loads(out)
    check_schema(command, payload)
    return payload


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "(1,6)(3,4)(5,7)", "--n", "7")
    assert code == 0 and out.strip() == "10"
    payload = run_json(capsys, "dim", "(1,6)(3,4)(5,7)", "--n", "7")
    assert payload == {"involution": "(1,6)(3,4)(5,7)", "n": 7, "dim": 10}


def test_q(capsys):
    code, out, _ = run(capsys, "q", "(1,6)(3,4)(5,7)", "--n", "7")
    assert code == 0 and out.strip() == "0,0,3"
    payload = run_json(capsys, "q", "(1,6)(3,4)(5,7)", "--n", "7")
    assert payload["q"] == [0, 0, 3]


def test_rank_and_valid_and_recover(capsys):
    payload = run_json(capsys, "rank", "(1,5)(3,4)", "--n", "5")
    rows = payload["rank_matrix"]
    assert rows[0] == [0, 0, 0, 1, 2]
    code, out, _ = run(capsys, "valid", json.dumps(rows))
    assert code == 0 and out.strip() == "true"
    payload = run_json(capsys, "valid", json.dumps(rows))
    assert payload["valid"] is True
    code, out, _ = run(capsys, "recover", json.dumps(rows))
    assert code == 0 and out.strip() == "(1,5)(3,4)"
    payload = run_json(capsys, "recover", json.dumps(rows))
    assert payload["involution"] == "(1,5)(3,4)"


def test_leq_and_meet(capsys):
    code, out, _ = run(capsys, "leq", "(1,3)", "(1,2)", "--n", "3")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "leq", "(1,2)", "(1,3)", "--n", "3")
    assert code == 0 and out.strip() == "false"
    payload = run_json(capsys, "leq", "(1,3)", "(1,2)", "--n", "3")
    assert payload["leq"] is True
    payload = run_json(capsys, "meet", "(1,5)(3,4)", "(2,4)(3,5)", "--n", "5")
    assert payload["rank_matrix"][2] == [0, 0, 0, 0, 1]


def test_desc_anc_cover(capsys):
    code, out, _ = run(capsys, "desc", "(1,4)(2,3)", "--n", "4")
    assert code == 0 and out.strip() == "(1,3)(2,4)"
    payload = run_json(capsys, "desc", "(1,4)(2,3)", "--n", "4")
    assert payload["moves"] == [
        {"kind": "swap_down", "source": [[1, 4], [2, 3]], "target": "(1,3)(2,4)"}
    ]
    payload = run_json(capsys, "anc", "(1,3)(2,4)", "--n", "4")
    assert {m["target"] for m in payload["moves"]} == {"(1,2)(3,4)", "(1,4)(2,3)"}
    payload = run_json(capsys, "cover", "(1,3)", "--n", "3")
    assert payload["moves"] == [{"kind": "delete", "source": [[1, 3]], "target": "id"}]


def test_closure(capsys):
    code, out, _ = run(capsys, "closure", "(1,2)", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["id", "(1,2)", "(1,3)"]
    payload = run_json(capsys, "closure", "(1,2)", "--n", "3")
    assert payload["closure"] == ["id", "(1,2)", "(1,3)"]


def test_intersect(capsys):
    payload = run_json(capsys, "intersect", " (1,5) (4,3)", "(2,4)(3,5)", "--n", "5")
    assert (payload["a"], payload["b"], payload["n"]) == ("(1,5)(3,4)", "(2,4)(3,5)", 5)
    assert payload["irreducible"] is False
    assert payload["codim"] == 1
    assert payload["equidimensional"] is True
    assert [c["involution"] for c in payload["components"]] == [
        "(1,4)(3,5)",
        "(1,5)(2,4)",
    ]
    code, out, _ = run(capsys, "intersect", "(1,5)(3,4)", "(2,4)(3,5)", "--n", "5")
    assert code == 0 and "irreducible: false" in out
    # unequal cycle counts are answered, with a note
    code, out, _ = run(capsys, "intersect", "(1,2)(3,4)", "(1,2)", "--n", "4")
    assert code == 0 and out.splitlines()[-1] == "note: outside theorem scope"
    payload = run_json(capsys, "intersect", "(1,2)(3,4)", "(1,2)", "--n", "4")
    assert payload["note"] == "outside theorem scope"
    code, _, err = run(capsys, "intersect", "(1,2)(3,4)", "(2,3)(4,5)", "--n", "13")
    assert code == 1 and one_error_line(err) and "pass a larger max_n (--max-n)" in err, err
    payload = run_json(capsys, "intersect", "(1,2)(3,4)", "(2,3)(4,5)", "--n", "13", "--max-n", "13")
    assert [c["involution"] for c in payload["components"]] == ["(1,3)(2,5)", "(1,4)(3,5)", "(1,5)(2,4)"]


def test_codim_depth(capsys):
    code, out, _ = run(capsys, "codim", "(1,2)", "(1,3)", "--n", "3")
    assert code == 0 and out.strip() == "1"
    run_json(capsys, "codim", "(1,2)", "(1,3)", "--n", "3")
    code, out, _ = run(capsys, "depth", "(1,2)", "--n", "2")
    assert code == 0 and out.strip() == "1"
    payload = run_json(capsys, "depth", "(1,5)(2,6)(3,7)", "--n", "7", "--k", "3")
    assert payload["depth"] == 0


def test_hasse(capsys):
    code, out, _ = run(capsys, "hasse", "--n", "3")
    lines = out.splitlines()
    assert set(lines) == {
        "(1,2) (1,3) move_right",
        "(2,3) (1,3) move_down",
        "(1,3) id delete",
    }
    payload = run_json(capsys, "hasse", "--n", "4", "--k", "2")
    assert len(payload["edges"]) == 2
    code, out, _ = run(capsys, "hasse", "--n", "3", "--dot")
    assert code == 0 and out.startswith("digraph")
    # --json promises a structured form, which DOT is not
    code, out, err = run(capsys, "hasse", "--n", "3", "--dot", "--json")
    assert code == 1 and out == "" and one_error_line(err), err
    code, _, err = run(capsys, "hasse", "--n", "11")
    assert code == 1 and "guard" in err


def test_tab2inv_inv2tab(capsys):
    code, out, _ = run(capsys, "tab2inv", "1,2,3,6|4,5,7,8")
    assert code == 0 and out.strip() == "(1,8)(2,5)(3,4)(6,7)"
    payload = run_json(capsys, "tab2inv", "1,2,3,6|4,5,7,8")
    assert payload["dim"] == 16
    code, out, _ = run(capsys, "inv2tab", "(1,8)(2,5)(3,4)(6,7)", "--n", "8")
    assert code == 0 and out.strip() == "1,2,3,6|4,5,7,8"
    code, out, _ = run(capsys, "inv2tab", "(1,4)(2,5)", "--n", "5")
    assert code == 0 and out.strip() == "none"
    payload = run_json(capsys, "inv2tab", "(1,4)(2,5)", "--n", "5")
    assert payload["tableau"] is None
    code, out, err = run(capsys, "tab2inv", "3,1,2|4")
    assert code == 1 and out == "" and err == "error: column entries must strictly increase\n"


def test_partners_change(capsys):
    code, out, _ = run(capsys, "partners", "1,2|3,4")
    assert code == 0 and out.strip() == "1,3|2,4"
    payload = run_json(capsys, "partners", "1,2|3,4")
    assert payload["partners"] == ["1,3|2,4"]
    payload = run_json(capsys, "change", "1,2,3,6|4,5,7,8", "3", "4")
    assert payload["array"] == "1,2,4,6|3,5,7,8"
    assert payload["is_tableau"] is True
    payload = run_json(capsys, "change", "1,2,3,6|4,5,7,8", "1", "8")
    assert payload["is_tableau"] is False


def test_partners_equal_the_moves_route_to_n8(capsys):
    from orbitposet.tableaux import codim1_partners, enumerate_tableaux

    for n in range(1, 9):
        for k in range(n // 2 + 1):
            for tab in enumerate_tableaux(n, k):
                expected = [str(p) for p in sorted(codim1_partners(tab))]
                code, out, _ = run(capsys, "partners", str(tab))
                assert code == 0 and out.splitlines() == expected, tab
                code, out, _ = run(capsys, "partners", str(tab), "--json")
                assert code == 0 and json.loads(out)["partners"] == expected, tab


def test_rs_witness(capsys):
    payload = run_json(capsys, "rs-witness", "1,2|3,4", "1,3|2,4")
    assert payload["witness"] is not None
    code, out, _ = run(capsys, "rs-witness", "1,2|3,4", "1,2|3,4")
    assert code == 0 and out.strip() == "none"


def test_rs_witness_refuses_a_full_scan(capsys):
    # 9 694 845 candidates at n = 30, k = 15: refused before the scan starts
    odd_even = ",".join(map(str, range(1, 30, 2))) + "|" + ",".join(map(str, range(2, 31, 2)))
    halves = ",".join(map(str, range(1, 16))) + "|" + ",".join(map(str, range(16, 31)))
    start = time.perf_counter()
    code, out, err = run(capsys, "rs-witness", odd_even, halves)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "" and one_error_line(err) and "9694845 candidate" in err, err


def test_rs_witness_max_candidates_lifts_the_guard(capsys):
    # n = 30, k = 5 has 115 101 candidates; this pair's witness is the first one
    t_tab = "1,3,5,7,9,11," + ",".join(map(str, range(12, 31))) + "|2,4,6,8,10"
    s_tab = "1,3,5,7,8,9," + ",".join(map(str, range(12, 31))) + "|2,4,6,10,11"
    code, _, err = run(capsys, "rs-witness", t_tab, s_tab)
    assert code == 1 and one_error_line(err) and "pass a larger max_candidates (--max-candidates)" in err, err
    code, out, err = run(capsys, "rs-witness", t_tab, s_tab, "--max-candidates", "115101")
    assert code == 0 and out.strip() == f"P={t_tab} m=7", err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    assert out.splitlines() == ["id", "(1,2)", "(1,3)", "(2,3)"]
    payload = run_json(capsys, "enumerate", "--n", "4", "--k", "2")
    assert payload["involutions"] == ["(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"]


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--n", "5")
    assert code == 0 and out.startswith("suite counts: PASS")
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--n", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    check_schema("verify", payload)
    assert payload["passed"] is True
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 1 and one_error_line(capsys.readouterr().err)


def test_verify_takes_one_of_suite_or_all(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all", "--suite", "rs"])
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == "" and one_error_line(captured.err)


def test_verify_reports_failures(capsys, monkeypatch):
    real = orbitposet.oracle.descendants
    monkeypatch.setattr(orbitposet.oracle, "descendants", lambda e: set(sorted(real(e))[1:]))
    code, out, _ = run(capsys, "verify", "--suite", "descendants", "--n", "4")
    assert code == 2 and out.startswith("suite descendants: FAIL")
    failures = [line for line in out.splitlines() if line.startswith("  failure: ")]
    assert failures and " | witness " in failures[0]
    code, out, _ = run(capsys, "verify", "--suite", "descendants", "--n", "4", "--json")
    assert code == 2
    payload = json.loads(out)
    check_schema("verify", payload)
    assert payload["passed"] is False
    (suite,) = payload["suites"]
    assert len(suite["failures"]) == len(failures)
    assert all(set(f) == {"claim", "witness", "expected", "got"} for f in suite["failures"])


@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_with_no_checks_fails(capsys, n):
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--n", n)
    assert code == 2 and out.startswith("suite counts: FAIL (0 checks")
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--n", n, "--json")
    assert code == 2
    payload = json.loads(out)
    check_schema("verify", payload)
    assert payload["passed"] is False


@pytest.mark.parametrize("n", ["0", "-1", "-2"])
@pytest.mark.parametrize("suite", [None, *suite_names()])
def test_verify_at_empty_ranges_never_crashes(capsys, suite, n):
    selector = ["--all"] if suite is None else ["--suite", suite]
    code, _, err = run(capsys, "verify", *selector, "--n", n)
    assert code in (0, 2), err
    assert "Traceback" not in err


def one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("command", ["valid", "recover"])
@pytest.mark.parametrize(
    "matrix",
    [
        "5",
        '"[[0,1],[0,0]]"',
        "[]",
        "[[0,1]]",
        "[[0,1],[0]]",
        "[0,0]",
        '{"0": [0]}',
        '[[0,"a"],[0,0]]',
        "[[0,true],[0,0]]",
        "[[0,1.0],[0,0]]",
        "[[0,1],[null,0]]",
        "[[0,1",
        pytest.param("[[0,%s],[0,0]]" % ("1" * 5000), id="past-int-digit-limit"),
        "[[0,2],[0,0]]",
        pytest.param("[" * 100_000, id="deeply-nested"),
    ],
)
def test_malformed_matrices_exit_one(capsys, command, matrix):
    code, out, err = run(capsys, command, matrix)
    assert code == 1 and out == ""
    assert one_error_line(err), err


@pytest.mark.allocation
def test_an_out_of_range_cell_is_refused_before_packing(capsys):
    # n = 200, all zeros but one 4 000-digit cell: refused without packing its
    # 19 900 cells at that cell's width
    rows = [[0] * 200 for _ in range(200)]
    rows[-2][-1] = int("9" * 4000)
    text = json.dumps(rows)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "valid", text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (1, "", "error: rank matrix entries must be at most n // 2 = 100\n")
    assert peak < 5_000_000, peak


def test_undecodable_stdin_is_one_error_line(capsys, monkeypatch):
    # a strict decoder, as under PYTHONIOENCODING=utf-8
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff(1,2)\n"), encoding="utf-8"))
    code, out, err = run(capsys, "dim", "-", "--n", "3")
    assert code == 1 and out == ""
    assert one_error_line(err) and "Traceback" not in err, err


@pytest.mark.parametrize("text", ["(1,2)", "id"])
def test_zero_rank_reports_the_rank_whatever_the_pairs(capsys, text):
    # the rank is checked before any entry, so a pair cannot mask it
    code, out, err = run(capsys, "dim", text, "--n", "0")
    assert code == 1 and out == ""
    assert err == "error: ambient rank must be >= 1, got 0\n"


def test_verify_has_no_cycle_count_filter(capsys):
    # every suite checks every cycle count, so verify takes no --k
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "counts", "--k", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == "" and one_error_line(captured.err)


def test_intersect_has_no_force_flag(capsys):
    # unequal cycle counts are answered without a flag, so intersect takes no --force
    with pytest.raises(SystemExit) as exc:
        main(["intersect", "(1,2)(3,4)", "(1,2)", "--n", "4", "--force"])
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == "" and one_error_line(captured.err)


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_too_deep_an_enumeration_is_one_error_line(capsys, monkeypatch, json_flag):
    # the enumeration itself has no depth limit, so the recursion limit is hit by hand
    def too_deep(n, k):
        raise RecursionError

    monkeypatch.setattr("orbitposet.cli.enumerate_involutions", too_deep)
    code, out, err = run(capsys, "enumerate", "--n", "2100", "--k", "1050", *json_flag)
    assert code == 1 and out == ""
    assert err == "error: input too large for this process (RecursionError)\n"


def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch):
    # as `rank "(1,2)" --n 100000` does when it unpacks its cells
    def exhausted(inv):
        raise MemoryError

    monkeypatch.setattr("orbitposet.cli.rank_matrix", exhausted)
    code, out, err = run(capsys, "rank", "(1,2)", "--n", "100000")
    assert code == 1 and out == ""
    assert err == "error: input too large for this process (MemoryError)\n"


# Three inputs per single-input command, one with an empty answer where one exists.
STDIN_INPUTS = {
    "dim": ["id", "(1,2)", "(1,4)(2,3)"],
    "q": ["id", "(1,3)", "(1,4)(2,3)"],
    "rank": ["id", "(1,3)", "(1,4)(2,3)"],
    "valid": ["[[0,1],[0,0]]", "[[0,1,1],[0,0,1],[0,0,0]]", "[[0,0,1],[0,0,1],[0,0,0]]"],
    "recover": ["[[0,1],[0,0]]", "[[0,0],[0,0]]", "[[0,0,1],[0,0,1],[0,0,0]]"],
    "desc": ["id", "(1,2)", "(1,4)(2,3)"],
    "anc": ["id", "(1,3)", "(1,3)(2,4)"],
    "cover": ["id", "(1,2)", "(1,4)(2,3)"],
    "closure": ["id", "(1,2)", "(1,3)(2,4)"],
    "depth": ["id", "(1,2)", "(1,4)(2,3)"],
    "tab2inv": ["1", "1,2|3,4", "1,2,3,6|4,5,7,8"],
    "inv2tab": ["id", "(1,3)", "(1,4)(2,3)"],
    "partners": ["1", "1,2|3,4", "1,2,3|4,5"],
}
INVOLUTION_INPUT = {"dim", "q", "rank", "desc", "anc", "cover", "closure", "depth", "inv2tab"}


def run_stdin(capsys, monkeypatch, command, lines, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{line}\n" for line in lines)))
    return run(capsys, command, "-", *argv)


@pytest.mark.parametrize("command", sorted(STDIN_INPUTS))
def test_stdin_batch(capsys, monkeypatch, command):
    inputs = STDIN_INPUTS[command]
    n = ["--n", "4"] if command in INVOLUTION_INPUT else []
    code, out, err = run_stdin(capsys, monkeypatch, command, inputs, *n)
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 3
    code, out, err = run_stdin(capsys, monkeypatch, command, inputs, *n, "--json")
    assert code == 0, err
    json_lines = out.splitlines()
    assert len(json_lines) == 3
    for text, line, json_line in zip(inputs, lines, json_lines):
        _, single, _ = run(capsys, command, text, *n)
        _, single_json, _ = run(capsys, command, text, *n, "--json")
        assert json_line + "\n" == single_json
        check_schema(command, json.loads(json_line))
        if command == "rank":
            assert json.loads(line) == json.loads(single_json)["rank_matrix"]
        else:  # the answer on one line; none when it is empty
            assert line == (" ".join(single.splitlines()) or "none")
    if command == "rank":  # rank - | recover - gives the inputs back
        code, out, _ = run_stdin(capsys, monkeypatch, "recover", lines)
        assert code == 0 and out.splitlines() == inputs


@pytest.mark.parametrize("argv", [["enumerate", "--n", "10"], ["hasse", "--n", "8"]], ids=["enumerate", "hasse"])
def test_closed_output_pipe_exits_one(argv):
    # more output than a pipe holds, so the writer meets the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(orbitposet.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitposet", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert one_error_line(err.decode()) and b"Traceback" not in err, err


def test_stdin_answers_each_line_before_the_next_is_read():
    env = dict(os.environ, PYTHONPATH=str(Path(orbitposet.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # the answer must not rely on an unbuffered stdout
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitposet", "dim", "-", "--n", "3"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        proc.stdin.write(b"(1,2)\n")
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        assert ready, "no answer while stdin is still open"
        assert proc.stdout.readline() == b"2\n"
        proc.stdin.write(b"(1,3)\n")
        out, err = proc.communicate(timeout=60)  # closes stdin
    finally:
        proc.kill()
    assert proc.returncode == 0 and out == b"1\n", err


def test_parse_errors_exit_one(capsys):
    code, _, err = run(capsys, "dim", "(1,", "--n", "3")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "dim", "(1,2)")  # missing --n
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "codim", "(1,3)", "(1,2)", "--n", "3")
    assert code == 1 and "error:" in err
    huge = "1" * 5000  # past int's digit limit
    for argv in (
        ["dim", f"(1,{huge})", "--n", "4"],
        ["leq", f"(1,{huge})", "(1,2)", "--n", "4"],
        ["leq", f"[[0,{huge}],[0,0]]", "[[0,1],[0,0]]"],
        ["leq", "[[0,1],[0,0]", "[[0,1],[0,0]]"],
        ["leq", "[" * 100_000, "[[0,1],[0,0]]"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and one_error_line(err), (argv[0], err)
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_emitted_strings_reparse(capsys):
    # every involution string the CLI prints parses back to an equal value
    from orbitposet import Involution

    code, out, _ = run(capsys, "enumerate", "--n", "5")
    for line in out.splitlines():
        assert str(Involution.parse(line, 5)) == line


# Exact text and JSON of the commands of several inputs, one case per input form.
GOLDEN = [
    (
        ["leq", "(1,3)", "(1,2)", "--n", "3"],
        "true\n",
        '{"a": "(1,3)", "b": "(1,2)", "leq": true}',
    ),
    (
        ["leq", "[[0,0,1],[0,0,0],[0,0,0]]", "[[0,1,1],[0,0,0],[0,0,0]]"],
        "true\n",
        '{"a": "[[0,0,1],[0,0,0],[0,0,0]]", "b": "[[0,1,1],[0,0,0],[0,0,0]]", "leq": true}',
    ),
    (
        ["leq", " (1, 2) ", "[[0,0,1],[0,0,0],[0,0,0]]", "--n", "3"],
        "false\n",
        '{"a": "(1, 2)", "b": "[[0,0,1],[0,0,0],[0,0,0]]", "leq": false}',
    ),
    (
        ["meet", "(1,5)(3,4)", "(2,4)(3,5)", "--n", "5"],
        "0 0 0 1 2\n0 0 0 1 1\n0 0 0 0 1\n0 0 0 0 0\n0 0 0 0 0\n",
        '{"a": "(1,5)(3,4)", "b": "(2,4)(3,5)", "n": 5, "rank_matrix": [[0, 0, 0, 1, 2], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]}',
    ),
    (
        ["meet", "[[0,1,1],[0,0,0],[0,0,0]]", " (2,3)", "--n", "3"],
        "0 0 1\n0 0 0\n0 0 0\n",
        '{"a": "[[0,1,1],[0,0,0],[0,0,0]]", "b": "(2,3)", "n": 3, "rank_matrix": [[0, 0, 1], [0, 0, 0], [0, 0, 0]]}',
    ),
    (
        ["intersect", "(1,5)(3,4)", "(2,4)(3,5)", "--n", "5"],
        "meet:\n0 0 0 1 2\n0 0 0 1 1\n0 0 0 0 1\n0 0 0 0 0\n0 0 0 0 0\nirreducible: false\ncomponents:\n  (1,4)(3,5) dim 4\n  (1,5)(2,4) dim 4\ncodim: 1\nequidimensional: true\n",
        '{"a": "(1,5)(3,4)", "b": "(2,4)(3,5)", "codim": 1, "components": [{"dim": 4, "involution": "(1,4)(3,5)"}, {"dim": 4, "involution": "(1,5)(2,4)"}], "equidimensional": true, "irreducible": false, "meet": [[0, 0, 0, 1, 2], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], "n": 5}',
    ),
    (
        ["intersect", "(1,4)(2,3)", "(1,2)(3,4)", "--n", "4"],
        "meet:\n0 0 1 2\n0 0 0 1\n0 0 0 0\n0 0 0 0\nirreducible: true\ncomponents:\n  (1,3)(2,4) dim 3\ncodim: 1\nequidimensional: true\n",
        '{"a": "(1,4)(2,3)", "b": "(1,2)(3,4)", "codim": 1, "components": [{"dim": 3, "involution": "(1,3)(2,4)"}], "equidimensional": true, "irreducible": true, "meet": [[0, 0, 1, 2], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]], "n": 4}',
    ),
    (
        ["intersect", "(1,2)(3,4)", "(1,2)", "--n", "4"],
        "meet:\n0 1 1 1\n0 0 0 0\n0 0 0 0\n0 0 0 0\nirreducible: true\ncomponents:\n  (1,2) dim 3\ncodim: 0\nequidimensional: true\nnote: outside theorem scope\n",
        '{"a": "(1,2)(3,4)", "b": "(1,2)", "codim": 0, "components": [{"dim": 3, "involution": "(1,2)"}], "equidimensional": true, "irreducible": true, "meet": [[0, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], "n": 4, "note": "outside theorem scope"}',
    ),
    (
        ["codim", "(1,2)", "(1,3)", "--n", "3"],
        "1\n",
        '{"codim": 1, "lower": "(1,3)", "n": 3, "upper": "(1,2)"}',
    ),
    (
        ["change", "1,2,3,6|4,5,7,8", "3", "4"],
        "1,2,4,6|3,5,7,8\nis_tableau: true\n",
        '{"array": "1,2,4,6|3,5,7,8", "i": 3, "is_tableau": true, "j": 4, "tableau": "1,2,3,6|4,5,7,8"}',
    ),
    (
        ["change", "1,2,3,6|4,5,7,8", "1", "8"],
        "2,3,6,8|1,4,5,7\nis_tableau: false\n",
        '{"array": "2,3,6,8|1,4,5,7", "i": 1, "is_tableau": false, "j": 8, "tableau": "1,2,3,6|4,5,7,8"}',
    ),
    (
        ["rs-witness", "1,2|3,4", "1,3|2,4"],
        "P=1,3|2,4 m=2\n",
        '{"s": "1,3|2,4", "t": "1,2|3,4", "witness": {"m": 2, "p": "1,3|2,4"}}',
    ),
    (
        ["rs-witness", "1,2|3,4", "1,2|3,4"],
        "none\n",
        '{"s": "1,2|3,4", "t": "1,2|3,4", "witness": null}',
    ),
]


@pytest.mark.parametrize("argv, text, json_line", GOLDEN, ids=[f"{g[0][0]}-{i}" for i, g in enumerate(GOLDEN)])
def test_multi_input_commands_print_exactly(capsys, argv, text, json_line):
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--json") == (0, json_line + "\n", "")
    check_schema(argv[0], json.loads(json_line))


def test_the_commands_that_read_an_input_are_the_table_rows():
    from orbitposet.cli import COMMANDS, build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    positional = {
        name for name, p in sub.choices.items() if any(not a.option_strings for a in p._actions)
    }
    assert positional == {c.name for c in COMMANDS}
    assert {c.name for c in COMMANDS if len(c.inputs) == 1} == set(STDIN_INPUTS)
    assert set(sub.choices) - positional == {"hasse", "enumerate", "verify"}


def test_every_positional_of_a_table_row_has_help():
    from orbitposet.cli import COMMANDS, build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for command in COMMANDS:
        positionals = [a for a in sub.choices[command.name]._actions if not a.option_strings]
        assert [a.dest for a in positionals] == [name for name, _ in command.inputs]
        for action in positionals:
            assert action.help, f"{command.name} {action.dest} has no help"
