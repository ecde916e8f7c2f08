"""The README's command examples and library snippet run and print what it says."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from covermotive.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced block of the given language after the heading."""
    section = TEXT.split(heading + "\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


SUBCOMMANDS = [
    line for line in _block("### Subcommands", "sh").splitlines() if line.startswith("covermotive ")
]


def _run(capsys, line: str) -> tuple[int, str, str]:
    code = main(shlex.split(line)[1:])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("line", SUBCOMMANDS)
def test_subcommand_example_runs(capsys, line):
    code, out, err = _run(capsys, line)
    assert (code, err) == (0, "")
    assert out


def test_subcommand_examples_are_found():
    assert len(SUBCOMMANDS) == 10


def test_output_format_example(capsys):
    example = _block("### Output format", "json")
    assert _run(capsys, "covermotive class --group cyclic:2 --n 4") == (0, example, "")


def test_library_entry_points_snippet():
    block = _block("## Library entry points", "python")
    namespace: dict = {}
    shown = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        # A comment reads "<type>: <value>" or just "<value>".
        value = eval(code, namespace)
        kind, _, text = comment.strip().rpartition(": ")
        if kind:
            assert type(value).__name__ == kind, line
        assert str(value) == text, line
        shown.append(text)
    assert shown == ["8*q + 8", "q + 1", "True"]
