"""Generated outside inputs: every run ends in a documented exit code.

The program's only inputs are the group (a --group string or a JSON group
file) and the branch data on the command line.  Hypothesis shapes both: group
files whose leaves are null, bools, integers, floats and strings, and argv
over the five subcommands with small degrees.  Each run must exit with a
code the README documents, exit 1 only from verify, raise nothing out of
main (the in-process form of a traceback), and print nothing on stdout when
it refuses.  A group file with any entry that is not an integer, with a
"schema" other than 1, or with a key the spec format does not name must be
refused, and so must a command line that spells an integer as only int()
reads it.  The examples are derandomized, so every run of the suite tries the
same ones.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from covermotive.cli import main

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(-2, 4),
    st.sampled_from(["", "1", "a", "2.5"]),
)
ROWS = st.lists(st.lists(st.one_of(st.integers(0, 3), LEAVES), max_size=4), max_size=4)
FAMILIES = st.sampled_from(["cyclic", "product_cyclic", "dihedral", "symmetric"])


def _builtin(kind, params) -> dict:
    return {"builtin": {"kind": kind, "params": params}}


def _squares(n: int):
    """n x n tables of integers in range, so that the group axioms get checked."""
    return st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)


TABLES = st.integers(1, 3).flatmap(_squares)
WELL_TYPED = st.one_of(
    st.builds(lambda kind, k: _builtin(kind, [k]), FAMILIES, st.integers(1, 4)),
    TABLES.map(lambda table: {"cayley": table}),
    st.permutations(range(3)).map(lambda images: {"permutations": [images]}),
)
ANY_SHAPE = st.one_of(
    ROWS.map(lambda rows: {"permutations": rows}),
    ROWS.map(lambda rows: {"cayley": rows}),
    st.builds(
        _builtin,
        FAMILIES | LEAVES,
        st.lists(st.one_of(st.integers(1, 4), LEAVES), max_size=3) | LEAVES,
    ),
)


def _entries(spec: dict):
    """The params of a builtin spec, or the rows of a table or permutation spec."""
    (kind, value), = spec.items()
    return value["params"] if kind == "builtin" else value


@st.composite
def specs(draw) -> dict:
    """A well-typed spec or any shape with any leaves, maybe with one entry swapped for a leaf."""
    spec = draw(WELL_TYPED | ANY_SHAPE)
    entries = _entries(spec)
    lists = [x for x in ([entries] if "builtin" in spec else entries) if isinstance(x, list) and x]
    if lists and draw(st.booleans()):
        chosen = draw(st.sampled_from(lists))
        chosen[draw(st.integers(0, len(chosen) - 1))] = draw(LEAVES)
    if "builtin" in spec and draw(st.integers(0, 3)) == 0:
        spec["builtin"]["extra"] = 1
    return spec


GROUPS = ["cyclic:1", "cyclic:2", "cyclic:3", "product_cyclic:2,2", "symmetric:3", "dihedral:3",
          None, "cyclic:0", "cyclic:x", "frobnicate:2"]
# Each subcommand's flags; --marking gets a generated list of class ids.
FLAGS = {
    "group": ["--format=text", "--format=json"],
    "trees": ["--csv"],
    "class": ["--marking", "--per-marking", "--with-verification", "--format=text"],
    "verify": ["--all-props"],
    "hurwitz": ["--orbits", "--mod-conj"],
}


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@st.composite
def argvs(draw) -> tuple[list[str], bool]:
    """A command line, and whether it spells an integer as only int() reads it."""
    odd = []

    def spell(k: int) -> str:
        """k, now and then with an underscore, a '+', a space or non-ASCII digits."""
        if draw(st.integers(0, 9)):
            return str(k)
        spellings = [f"0_{k}", f"+{k}", f" {k}", str(k).translate(ARABIC_INDIC)]
        odd.append(draw(st.sampled_from(spellings)))
        return odd[-1]

    command = draw(st.sampled_from(sorted(FLAGS)))
    group = draw(st.sampled_from(GROUPS))
    n = draw(st.sampled_from([3, 4, 5, 3, 4, 5, None, -1, 0, 1, 2]))  # mostly a valid degree
    argv = [command]
    if group is not None:
        argv += ["--group", group]
    if n is not None:
        argv += ["--n", spell(n)]
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), max_size=3, unique=True)):
        if flag == "--marking":  # often one class id per point
            k = max(n, 0) if n is not None and draw(st.booleans()) else draw(st.integers(0, 6))
            ids = draw(st.lists(st.integers(-1, 3), min_size=k, max_size=k))
            flag += "=" + ",".join(map(spell, ids))
        argv.append(flag)
    return argv, bool(odd)


def _check(argv: list[str], capsys, malformed: bool = False) -> None:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own refusals
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert code != 1 or argv[0] == "verify", argv
    assert code == 2 or not malformed, argv
    if code >= 2:
        assert out == "", argv
        assert "error:" in err.splitlines()[-1], (argv, err)


def _integers_only(value) -> bool:
    """Whether value is a list whose entries, in nested lists too, are all ints."""
    return isinstance(value, list) and all(
        _integers_only(x) if isinstance(x, list) else type(x) is int for x in value
    )


KEYS = st.sampled_from(["schema", "schema", "shcema"])  # now and then a misspelt key


@SETTINGS
@given(spec=specs(), extra=st.dictionaries(KEYS, st.one_of(st.just(1), LEAVES)))
def test_generated_group_files(spec, extra, capsys, tmp_path):
    schema = extra.get("schema", 1)
    stray = "shcema" in extra or "extra" in spec.get("builtin", {})
    malformed = (
        stray or not _integers_only(_entries(spec)) or type(schema) is not int or schema != 1
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, **extra}))
    _check(["group", "--group-file", str(path)], capsys, malformed)


@SETTINGS
@given(drawn=argvs())
def test_generated_argv(drawn, capsys):
    argv, odd = drawn
    _check(argv, capsys, malformed=odd)
