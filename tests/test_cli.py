"""Command line behaviour: shapes, bytes, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import covermotive
import covermotive.cli as cli
import covermotive.errors as errors
import covermotive.smodules as smodules
from covermotive.cli import main


def _run(capsys, *argv) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own refusals
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_text(capsys):
    code, out, _ = _run(capsys, "group", "--group", "symmetric:3")
    assert code == 0
    assert out == (
        "group S3: order 6, nonabelian\n"
        "conjugacy classes: 3\n"
        "  class 0: size 1, element order 1, inverse class 0\n"
        "  class 1: size 3, element order 2, inverse class 1\n"
        "  class 2: size 2, element order 3, inverse class 2\n"
    )


def test_group_json(capsys):
    code, out, _ = _run(capsys, "group", "--group", "cyclic:3", "--format", "json")
    assert code == 0
    assert out == (
        '{"abelian":true,"class_count":3,"class_orders":[1,3,3],'
        '"class_sizes":[1,1,1],"involution":[0,2,1],"name":"C3","order":3,'
        '"schema":1}\n'
    )


def test_group_file_spec(capsys, tmp_path):
    spec = tmp_path / "klein.json"
    spec.write_text(
        json.dumps({"schema": 1, "builtin": {"kind": "product_cyclic", "params": [2, 2]}})
    )
    code, out, _ = _run(capsys, "group", "--group-file", str(spec))
    assert code == 0
    assert out.startswith("group C2xC2: order 4, abelian")


def test_class_json_frozen(capsys):
    code, out, _ = _run(capsys, "class", "--group", "cyclic:2", "--n", "4")
    assert code == 0
    assert out == (
        '{"coefficients":["8","8"],"group":"C2","hodge_euler":"8*u*v + 8",'
        '"n":4,"poincare":["8","0","8"],"schema":1}\n'
    )


def test_class_marked_json(capsys):
    code, out, _ = _run(
        capsys, "class", "--group", "cyclic:2", "--n", "4", "--marking", "1,1,1,1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "1"]
    assert payload["poincare"] == ["1", "0", "1"]


def test_class_text(capsys):
    code, out, _ = _run(
        capsys, "class", "--group", "cyclic:2", "--n", "4", "--format", "text"
    )
    assert code == 0
    assert out == (
        "class for C2, n = 4: 8*q + 8\n"
        "hodge-euler: 8*u*v + 8\n"
        "poincare: 8*t^2 + 8\n"
        "census: 4 topologies, 112 marked trees, 32 admissible strata\n"
    )


def test_class_with_verification_and_per_marking(capsys):
    code, out, _ = _run(
        capsys,
        "class",
        "--group",
        "cyclic:2",
        "--n",
        "4",
        "--per-marking",
        "--with-verification",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["equal"] is True
    assert payload["verification"]["terms"].keys() == {
        "slots",
        "edge_unit",
        "ordered_pairs",
    }
    assert payload["per_marking"]["1,1,1,1"] == ["1", "1"]
    # Markings without admissible strata are omitted, not listed as zero.
    assert "0,0,0,1" not in payload["per_marking"]
    assert len(payload["per_marking"]) == 8


def test_class_deterministic_across_runs(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = _run(capsys, "class", "--group", "cyclic:2", "--n", "5")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_trees_text_and_csv(capsys):
    code, out, _ = _run(capsys, "trees", "--n", "4")
    assert code == 0
    assert out == "stable trees with 4 leaves: 4 topologies\n"
    code, out, _ = _run(capsys, "trees", "--n", "4", "--csv", "--group", "cyclic:2")
    assert code == 0
    assert out == (
        "topology,vertices,edges,gerby,admissible\n"
        "0,1,0,16,8\n"
        "1,2,1,32,8\n"
        "2,2,1,32,8\n"
        "3,2,1,32,8\n"
    )


def test_verify_output_and_exit(capsys):
    code, out, _ = _run(capsys, "verify", "--group", "cyclic:1", "--n", "4")
    assert code == 0
    assert out == (
        "C1, n = 4\n"
        "  slots: q + 4\n"
        "  edge_unit: 3\n"
        "  ordered_pairs: 6\n"
        "  stratification: q + 1\n"
        "  recursion:      q + 1\n"
        "  EQUAL\n"
    )


def test_verify_all_props(capsys):
    code, out, _ = _run(
        capsys, "verify", "--group", "cyclic:2", "--n", "4", "--all-props"
    )
    assert code == 0
    assert "EQUAL" in out
    assert "per-tree flag count identity: HOLDS" in out
    assert "MISMATCH" not in out


def test_verify_all_props_builds_no_tree(capsys, monkeypatch):
    # The flag count line is read off the valence profiles, so it needs no tree.
    import covermotive.trees as trees
    from covermotive.calculator import Calculator

    def refuse(*args, **kwargs):
        raise AssertionError("verify --all-props built a stable tree")

    monkeypatch.setattr(trees, "enumerate_stable_trees", refuse)
    monkeypatch.setattr(Calculator, "topologies", refuse)
    code, out, _ = _run(capsys, "verify", "--group", "cyclic:2", "--n", "6", "--all-props")
    assert code == 0
    assert "per-tree flag count identity: HOLDS" in out


def test_verify_all_props_reports_a_broken_flag_count(capsys, monkeypatch):
    # (4, 4) has 8 flags, but at n = 5 its 5 leaves and one edge make 7.
    # With weight 0 it leaves every stratum sum as it was, so only the flag
    # count line can see it, and that line alone must fail the run.
    import covermotive.calculator as calculator

    real = calculator.profile_counts

    def forged(n):
        counts = real(n)
        counts[(4, 4)] = 0
        return counts

    monkeypatch.setattr(calculator, "profile_counts", forged)
    code, out, _ = _run(capsys, "verify", "--group", "cyclic:2", "--n", "5", "--all-props")
    assert code == 1
    assert "per-tree flag count identity: FAILS" in out
    assert "MISMATCH" not in out


def test_verify_names_a_type_that_the_totals_hide(capsys, monkeypatch):
    # Rooting every tail at its own class instead of the inverse class moves
    # classes between types and keeps every total, so only the per-type
    # comparison sees it.
    monkeypatch.setattr(smodules, "class_involution", lambda group: lambda c: c)
    code, out, _ = _run(capsys, "verify", "--group", "cyclic:3", "--n", "5", "--all-props")
    assert code == 1
    lines = out.splitlines()
    assert lines[4] == "  stratification: 81*q^2 + 405*q + 81"
    assert lines[5] == "  recursion:      81*q^2 + 405*q + 81"
    assert lines[6:8] == [
        "  MISMATCH",
        "  first differing type 0,0,0,1,1: stratification 0, recursion 18*q + 6",
    ]
    code, out, _ = _run(capsys, "class", "--group", "cyclic:3", "--n", "5", "--with-verification")
    assert json.loads(out)["verification"]["equal"] is False


def test_verify_names_a_type_when_a_total_differs(capsys, monkeypatch):
    import covermotive.calculator as calculator

    monkeypatch.setattr(calculator, "unit_i2", lambda group: smodules.SModClass())
    code, out, _ = _run(capsys, "verify", "--group", "cyclic:3", "--n", "5")
    assert code == 1
    assert out.splitlines()[4:] == [
        "  stratification: 81*q^2 + 405*q + 81",
        "  recursion:      81*q^2 - 405*q - 729",
        "  MISMATCH",
        "  first differing type 0,0,0,0,0: stratification q^2 + 5*q + 1, recursion q^2 - 5*q - 9",
    ]


def test_verify_deterministic_across_runs(capsys):
    runs = set()
    for _ in range(2):
        code, out, _ = _run(capsys, "verify", "--group", "cyclic:3", "--n", "4")
        assert code == 0
        runs.add(out)
    assert len(runs) == 1


def test_hurwitz_orbits_csv(capsys):
    code, out, _ = _run(capsys, "hurwitz", "--group", "cyclic:2", "--n", "4", "--orbits")
    assert code == 0
    assert out == (
        "product-one tuples for C2, n = 4: 8\n"
        "braid orbits: 3\n"
        "orbit,size,representative\n"
        "0,1,0 0 0 0\n"
        "1,6,0 0 1 1\n"
        "2,1,1 1 1 1\n"
    )


def test_hurwitz_mod_conj(capsys):
    code, out, _ = _run(
        capsys, "hurwitz", "--group", "symmetric:3", "--n", "3", "--orbits", "--mod-conj"
    )
    assert code == 0
    assert out == (
        "product-one tuples for S3, n = 3: 36\n"
        "braid orbits mod conjugation: 5\n"
        "orbit,size,representative\n"
        "0,1,0 0 0\n"
        "1,3,0 1 1\n"
        "2,3,0 3 4\n"
        "3,3,1 2 3\n"
        "4,1,3 3 3\n"
    )


@pytest.mark.parametrize(
    "line, out",
    [
        ("hurwitz --group cyclic:2 --n 22", "product-one tuples for C2, n = 22: 2097152\n"),
        ("hurwitz --group symmetric:3 --n 5", "product-one tuples for S3, n = 5: 1296\n"),
    ],
)
def test_hurwitz_counts_without_listing(line, out, capsys, monkeypatch):
    # The last entry of a product-one tuple is forced, so there are
    # order^(n-1) of them, and without --orbits none is listed.
    monkeypatch.setattr(cli, "enumerate_hurwitz", _no_work)
    assert _run(capsys, *line.split()) == (0, out, "")


# Every refusal of the command line: id: (argv, exit code, a fragment of the
# last stderr line[, the text of the group file that FILE in argv names]).
# argv is a command line, or a list of arguments where one holds a space.
# A leading COVERMOTIVE_CAP=k sets that variable for the run.
GROUP_FILE = "group --group-file FILE"
REFUSALS = {
    "no-group": ("group", 2, "one of the arguments --group --group-file is required"),
    "group-and-group-file": ("group --group symmetric:3 --group-file FILE", 2, "not allowed with"),
    "unknown-family": ("group --group frobnicate:5", 2, "unknown builtin family 'frobnicate'"),
    "bool-param": (GROUP_FILE, 2, "params must be a list of integers, got [True]",
                   '{"builtin": {"kind": "cyclic", "params": [true]}}'),
    "permutation-string": (GROUP_FILE, 2, "got [0, '1']", '{"permutations": [[0, "1"]]}'),
    "permutation-float": (GROUP_FILE, 2, "got [0, 1.0]", '{"permutations": [[0, 1.0]]}'),
    "permutation-null": (GROUP_FILE, 2, "got [None, None]", '{"permutations": [[null, null]]}'),
    "bool-table": (GROUP_FILE, 2, "[True, False]", '{"cayley": [[true, false], [false, true]]}'),
    "no-identity": (GROUP_FILE, 2, "no two-sided identity element", '{"cayley": [[1, 0], [1, 0]]}'),
    "schema-2": (GROUP_FILE, 2, "schema must be 1, got 2", '{"schema": 2, "cayley": [[0]]}'),
    "schema-true": (GROUP_FILE, 2, "schema must be 1, got True",
                    '{"schema": true, "cayley": [[0]]}'),
    "misspelt-schema": (GROUP_FILE, 2, "no other key but schema, got ['cayley', 'shcema']",
                        '{"cayley": [[0, 1], [1, 0]], "shcema": 2}'),
    "builtin-extra-key": (GROUP_FILE, 2, "takes only kind and params, got ['extra']",
                          '{"builtin": {"kind": "cyclic", "params": [3], "extra": 1}}'),
    # Past the interpreter's 4300-digit limit for parsing an integer, and
    # deeper than its recursion limit.
    "huge-integer": (GROUP_FILE, 2, "not valid JSON", '{"cayley": [[1' + "0" * 5000 + "]]}"),
    "deep-nesting": (GROUP_FILE, 2, "not valid JSON", "[" * 100000 + "]" * 100000),
    # A degree below the subcommand's minimum.
    "class-2": ("class --group cyclic:2 --n 2", 2, "--n must be at least 3, got 2"),
    "class-neg": ("class --group cyclic:2 --n -5", 2, "--n must be at least 3, got -5"),
    "verify-1": ("verify --group cyclic:2 --n 1", 2, "--n must be at least 3, got 1"),
    "trees-2": ("trees --n 2", 2, "--n must be at least 3, got 2"),
    "hurwitz-0": ("hurwitz --group cyclic:2 --n 0", 2, "--n must be at least 1, got 0"),
    # A marking that names no tuple of classes, and flags that need another.
    "marking-length": ("class --group cyclic:2 --n 4 --marking 1,1", 2, "length 2 does not match"),
    "marking-class-7": ("class --group cyclic:2 --n 4 --marking 0,0,0,7", 2, "ids run 0..1"),
    "marking-class-neg": ("class --group cyclic:2 --n 4 --marking 0,0,0,-1", 2, "names class -1"),
    "empty-marking": ("class --group cyclic:2 --n 4 --marking=", 2, "class ids, got ''"),
    "marking-and-per-marking": (
        "class --group cyclic:2 --n 4 --marking 1,1,1,1 --per-marking", 2,
        "argument --per-marking: not allowed with argument --marking",
    ),
    "per-marking-text": (
        "class --group cyclic:2 --n 4 --per-marking --format text", 2, "needs --format json"
    ),
    "mod-conj-alone": ("hurwitz --group symmetric:3 --n 3 --mod-conj", 2, "needs --orbits"),
    "trees-dot": ("trees --n 4 --dot x", 2, "unrecognized arguments: --dot x"),  # no tree to draw
    "verify-nonabelian": ("verify --group symmetric:3 --n 4", 4, "nonabelian"),
    "trees-nonabelian": ("trees --group symmetric:3 --n 4", 4, "nonabelian"),
    # Counting trees costs nothing, but the tree cap bounds how far the
    # outputs are checked; for C1 it is the only cap that can refuse.
    "trees-10": (
        "trees --n 10", 3, "n = 10 exceeds stable tree cap 9 (outputs are checked against Keel's "
        "closed form through n = 9)",
    ),
    "trees-12": ("trees --n 12", 3, "n = 12 exceeds stable tree cap 9"),
    "class-tree-cap": ("class --group cyclic:1 --n 10", 3, "n = 10 exceeds stable tree cap 9"),
    "verify-tree-cap": ("verify --group cyclic:1 --n 10", 3, "n = 10 exceeds stable tree cap 9"),
    "class-marking-cap": ("class --group cyclic:7 --n 8", 3, "7^8 class tuples exceed"),
    "verify-marking-cap": ("verify --group cyclic:7 --n 8", 3, "7^8 class tuples exceed"),
    "trees-marking-cap": ("trees --group cyclic:7 --n 8", 3, "7^8 class tuples exceed"),
    # C1 has one tuple per degree, so only the tuples' length can refuse it;
    # C2's 8 tuples of length 4 fit a cap of 100, their 6 braid moves each do not.
    "hurwitz-length-cap": ("hurwitz --group cyclic:1 --n 32000 --orbits", 3, "exceed tuple cap"),
    "hurwitz-orbits-cap": (
        "COVERMOTIVE_CAP=100 hurwitz --group cyclic:2 --n 4 --orbits", 3, "= 6 for orbits, exceed"
    ),
    # A base above 1 to a huge power: the checks clamp the exponent, so they
    # refuse at once instead of building the power as an integer.
    "class-clamped-power": (
        "class --group cyclic:3 --n 30000000", 3, "3^30000000 class tuples exceed marking cap"
    ),
    "hurwitz-clamped-power": (
        "hurwitz --group cyclic:3 --n 30000000", 3,
        "3^29999999 tuples of length 30000000 exceed tuple cap",
    ),
    "marking-cap-env": ("COVERMOTIVE_CAP=16 class --group cyclic:2 --n 5", 3, "marking cap 16"),
    "tree-cap-env": ("COVERMOTIVE_CAP=4 trees --n 5", 3, "n = 5 exceeds stable tree cap 4"),
    "cap-env-not-a-number": ("COVERMOTIVE_CAP=x trees --n 4", 2, "must be an integer"),
    # Integers that int() reads, spelt with an underscore, a '+', a space or
    # a non-ASCII digit: the command line takes ASCII digits and a leading '-'.
    "builtin-underscore": ("group --group cyclic:1_0", 2, "must be integers, got '1_0'"),
    "cap-env-underscore": ("COVERMOTIVE_CAP=1_000 trees --n 4", 2, "integer, got '1_000'"),
    "marking-plus": ("class --group cyclic:2 --n 4 --marking 1,1,+1,1", 2, "got '1,1,+1,1'"),
    "marking-space": (
        ["class", "--group", "cyclic:2", "--n", "4", "--marking", "1,1,1, 1"], 2, "got '1,1,1, 1'"
    ),
    "marking-non-ascii": ("class --group cyclic:2 --n 4 --marking \u0661,1,1,1", 2,
                          "class ids, got '\u0661,1,1,1'"),
    "n-non-ascii": ("trees --n \u0664", 2, "argument --n: invalid integer value: '\u0664'"),
    # The override may lower the tree cap but never lift it.
    "cap-env-cannot-lift-trees": ("COVERMOTIVE_CAP=1000 trees --n 12", 3, "stable tree cap 9"),
    "cap-env-cannot-lift-verify": (
        "COVERMOTIVE_CAP=1000 verify --group cyclic:1 --n 12 --all-props", 3, "stable tree cap 9"
    ),
}


def _argv(line: str | list[str], monkeypatch) -> list[str]:
    """Split a command line, setting a leading COVERMOTIVE_CAP=k."""
    argv = line.split() if isinstance(line, str) else list(line)
    if argv[0].startswith("COVERMOTIVE_CAP="):
        monkeypatch.setenv("COVERMOTIVE_CAP", argv.pop(0).partition("=")[2])
    return argv


def _no_work(*args, **kwargs):
    raise AssertionError("work started past a cap")


@pytest.mark.parametrize("row", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(row, capsys, monkeypatch, tmp_path):
    # In-process, so an exception that escapes main fails the row with its
    # traceback, and every enumeration behind a cap can be made to raise.
    line, code, reason, *text = row
    argv = _argv(line, monkeypatch)
    if text:
        (tmp_path / "spec.json").write_text(text[0])
        argv = [str(tmp_path / "spec.json") if a == "FILE" else a for a in argv]
    if code == 3:  # a cap refuses before any work starts
        for name in ("Calculator", "profile_counts", "enumerate_hurwitz"):
            monkeypatch.setattr(cli, name, _no_work)
    start = time.perf_counter()
    got, out, err = _run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (got, out) == (code, "")
    lines = err.splitlines()
    assert "error:" in lines[-1] and reason in lines[-1]
    assert len(lines) == 1 or lines[0].startswith("usage:")  # argparse prints its usage first
    assert "Traceback" not in err


def test_every_error_class_has_an_exit_code():
    defined = {
        value for value in vars(errors).values()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    assert defined - {errors.CoverMotiveError} == set(cli.EXIT_CODES)


@pytest.mark.parametrize(
    "line", ["verify --group cyclic:2 --n 5", "class --group cyclic:2 --n 5 --with-verification"]
)
def test_inexact_division_exits_1(line, capsys, monkeypatch):
    # The fault of test_division_check_catches_a_product_without_binomials:
    # with every binomial read as 1, halving a divided square is inexact.
    monkeypatch.setattr(smodules, "comb", lambda n, k: 1)
    code, out, err = _run(capsys, *line.split())
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "not divisible" in err and err.count("\n") == 1


# The other side of the caps: what fits runs.
@pytest.mark.parametrize(
    "line",
    [
        "trees --group cyclic:3 --n 9",  # 3^9 class tuples
        "hurwitz --group cyclic:1 --n 50 --orbits",
        "COVERMOTIVE_CAP=100 hurwitz --group cyclic:2 --n 4",  # no braid moves
        "COVERMOTIVE_CAP=16 class --group cyclic:2 --n 4",  # 2^4 class tuples
    ],
)
def test_caps_admit_what_fits(line, capsys, monkeypatch):
    code, out, err = _run(capsys, *_argv(line, monkeypatch))
    assert (code, err, bool(out)) == (0, "", True)


def _child_env() -> dict[str, str]:
    """Environment for a child that imports the same package as this process."""
    package_root = str(Path(covermotive.__file__).resolve().parent.parent)
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if k != "COVERMOTIVE_CAP"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    return env


@pytest.mark.parametrize(
    "command",
    ["trees --n 9 --csv", "hurwitz --group dihedral:5 --n 6 --orbits"],
    ids=["trees", "hurwitz"],
)
def test_closed_stdout_exits_5_without_traceback(command):
    # The reader takes one line and closes the pipe, as `| head -1` does.
    # Unbuffered, the first line reaches it while the child is still writing
    # (7 MB of rows) or still computing (the braid orbits).
    env = _child_env()
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "covermotive.cli", *command.split()],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 5
    assert first.startswith((b"topology,", b"product-one tuples"))
    assert err == b""


def test_cli_import_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import covermotive.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True,
        check=True,
        env=_child_env(),
        text=True,
    )
    assert proc.stdout == "False\n"


# stdout as printed before either engine was replaced: the tree-bound
# commands by the enumerating engine, before tree counts came from valence
# profiles (each took 80-417 s then), and the recursion-bound verify and
# class --with-verification commands by the tuple engine, before the
# recursion moved onto class types (32-286 s then).
GOLDEN = {
    "trees --n 9": (
        46, "2b39bce743474803be6558b0aaa838cd5943af4df71dbe3cbd8189225f71c7c4"
    ),
    "trees --n 9 --csv": (
        7149266, "6bde1621ec9f2509530927ccdf0c37043e0880c7f698a29fc9d46b329aa25dd1"
    ),
    "class --group cyclic:1 --n 9": (
        265, "a5b8dc6c61e2ef90e4e05e5699b9303744880843b770060c967d7ca155b08443"
    ),
    "class --group cyclic:2 --n 9 --per-marking": (
        16456, "276c06948925ea2017df99c22f642d30693d15a0ec357e4311259385d2de2ad1"
    ),
    "trees --n 6 --group product_cyclic:2,2 --csv": (
        4519, "d3bb3a350b6b41c5edf60d494cd93bdee39320ba5562d3c3fb03bf2cb11f6b18"
    ),
    "verify --group cyclic:3 --n 8 --all-props": (
        1029, "a936500113092dc40ec7cfa0d009b79819918db7efa719dca2c28d147b4349ec"
    ),
    "verify --group product_cyclic:2,2 --n 8 --all-props": (
        1086, "c294e0923cace8be6be82a46fb65d09af81bbd646b4b82d6da42dd1a95f1827a"
    ),
    "class --group product_cyclic:2,2 --n 8 --per-marking --with-verification": (
        819909, "4ce01d4b393bc4a792daf22356f85c49be0d73f43cb86aa407e3980f3c19553e"
    ),
    "verify --group cyclic:2 --n 9 --all-props": (
        1162, "4b6b04493ed703a0eb0ecc7e7ecdbb562c5a199240e2b232a855e188af6c26b7"
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_stdout(command):
    proc = subprocess.run(
        [sys.executable, "-m", "covermotive.cli", *command.split()],
        capture_output=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0
    assert (len(proc.stdout), hashlib.sha256(proc.stdout).hexdigest()) == GOLDEN[command]
