"""The README's library snippet runs and prints what its comments say."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_snippet():
    section = README.read_text().split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
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
