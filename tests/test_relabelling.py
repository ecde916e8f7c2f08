"""Relabelling a group's elements changes no class.

Element indices are only labels: a Cayley table with its elements permuted
is the same group, so `class` and `verify` must print the same bytes for
both tables, and `class --per-marking` the same classes once each marking's
class ids are mapped through the relabelling (class ids follow element
order).  Every builtin group has its identity at index 0, and the
relabelling always moves it off 0, so a fault that starts a product at 0
where group.identity is meant, which every builtin passes, shows here.
Both tables are given as cayley specs, so both groups get the same name.
The examples are derandomized, so every run of the suite tries the same ones.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from covermotive.cli import main
from covermotive.groups import build_cyclic, build_group, build_product_cyclic

GROUPS = [build_cyclic(2), build_cyclic(3), build_cyclic(4), build_product_cyclic([2, 2]),
          build_cyclic(6)]


@st.composite
def relabellings(draw):
    """A group, a permutation of its elements that moves the identity off 0, and a degree."""
    group = draw(st.sampled_from(GROUPS))
    perm = draw(st.permutations(range(group.order)).filter(lambda p: p[group.identity] != 0))
    return group, perm, draw(st.integers(3, 5))


def _stdout(capsys, *argv) -> str:
    assert main(list(argv)) == 0, argv
    return capsys.readouterr().out


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(drawn=relabellings())
def test_relabelled_table_gives_the_same_output(drawn, capsys, tmp_path):
    group, perm, n = drawn
    relabelled = [[0] * group.order for _ in range(group.order)]
    for a, row in enumerate(group.table):
        for b, ab in enumerate(row):
            relabelled[perm[a]][perm[b]] = perm[ab]
    files = [tmp_path / "given.json", tmp_path / "relabelled.json"]
    for path, table in zip(files, (group.table, relabelled)):
        path.write_text(json.dumps({"cayley": [list(row) for row in table]}))
    for command in (["class", "--with-verification"], ["verify", "--all-props"]):
        given_out, relabelled_out = (
            _stdout(capsys, *command, "--group-file", str(f), "--n", str(n)) for f in files
        )
        assert given_out == relabelled_out, command
    given_marked, relabelled_marked = (
        json.loads(_stdout(capsys, "class", "--per-marking", "--group-file", str(f), "--n", str(n)))
        for f in files
    )
    old, new = group.conj, build_group({"cayley": relabelled}).conj
    cmap = [new.class_of[perm[rep]] for rep in old.representatives]
    mapped = {
        ",".join(str(cmap[int(c)]) for c in key.split(",")): cls
        for key, cls in given_marked.pop("per_marking").items()
    }
    assert mapped == relabelled_marked.pop("per_marking")
    assert given_marked == relabelled_marked
