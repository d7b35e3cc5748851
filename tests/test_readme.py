"""The README's command-line examples run as written."""

import shlex
from pathlib import Path

import pytest

from orbitposet.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def command_line_examples():
    """The ``orbitposet`` lines of the first ``sh`` block under "## Command line"."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("orbitposet ")]


EXAMPLES = command_line_examples()


def test_the_block_is_found():
    assert len(EXAMPLES) >= 20


@pytest.mark.parametrize("line", EXAMPLES, ids=[f"{i}-{line.split()[1]}" for i, line in enumerate(EXAMPLES)])
def test_example_exits_zero(capsys, line):
    argv = shlex.split(line, comments=True)[1:]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, line
    # a comment of one token is the first line the command prints
    comment = line.partition("  #")[2].split()
    if len(comment) == 1:
        assert out.splitlines()[0] == comment[0], line
