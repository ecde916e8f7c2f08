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
from covermotive.cli import main


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
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


def test_trees_has_no_dot_option(capsys):
    # No command builds a tree, so there is none to draw; argparse refuses.
    with pytest.raises(SystemExit) as exc:
        main(["trees", "--n", "4", "--dot", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--dot" in captured.err


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


def test_exit_code_malformed_spec(capsys, tmp_path):
    code, _, err = _run(capsys, "group", "--group", "frobnicate:5")
    assert code == 2
    assert "error:" in err
    code, _, _ = _run(capsys, "class", "--group", "cyclic:2", "--n", "4", "--marking", "1,1")
    assert code == 2
    # Class ids outside 0..classes-1 are refused before any work.
    for marking in ("0,0,0,7", "0,0,0,-1"):
        code, out, err = _run(
            capsys, "class", "--group", "cyclic:2", "--n", "4", "--marking", marking
        )
        assert code == 2
        assert "error:" in err
        assert out == ""
    # The per-marking classes exist only in JSON; text refuses the flag.
    code, out, err = _run(
        capsys, "class", "--group", "cyclic:2", "--n", "4", "--per-marking", "--format", "text"
    )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == ""
    code, _, _ = _run(capsys, "group")
    assert code == 2
    # An integer past the interpreter's 4300-digit limit for parsing.
    spec = tmp_path / "huge.json"
    spec.write_text('{"builtin": {"kind": "cyclic", "params": [1' + "0" * 5000 + "]}}")
    code, out, err = _run(capsys, "group", "--group-file", str(spec))
    assert code == 2
    assert "not valid JSON" in err
    assert out == ""


def test_exit_code_not_a_group(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"cayley": [[1, 0], [1, 0]]}))
    code, _, err = _run(capsys, "group", "--group-file", str(spec))
    assert code == 2
    assert "identity" in err


def test_exit_code_size_limit(capsys):
    # Counting trees costs nothing, so the tree cap must still refuse; it
    # bounds how far the outputs are checked.
    for n in ("10", "12"):
        code, out, err = _run(capsys, "trees", "--n", n)
        assert code == 3
        assert err == (
            f"error: n = {n} exceeds stable tree cap 9 "
            "(outputs are checked against Keel's closed form through n = 9)\n"
        )
        assert out == ""
    # One class tuple per degree, so only the tree cap can refuse n = 10; it
    # must do so before the tail sweeps and the recursion start.
    for command in ("class", "verify"):
        code, out, err = _run(capsys, command, "--group", "cyclic:1", "--n", "10")
        assert code == 3
        assert "cap" in err
        assert out == ""


def test_hurwitz_degree_cap(capsys, monkeypatch):
    # The trivial group has one tuple per degree, so only the length of the
    # tuples and the 2(n-1) factor for orbits can refuse a large n.
    start = time.perf_counter()
    code, out, err = _run(capsys, "hurwitz", "--group", "cyclic:1", "--n", "32000", "--orbits")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert "cap" in err
    assert out == ""
    assert _run(capsys, "hurwitz", "--group", "cyclic:1", "--n", "50", "--orbits")[0] == 0
    # C2 at n = 4: 8 tuples of length 4 fit a cap of 100; their 6 moves each do not.
    monkeypatch.setenv("COVERMOTIVE_CAP", "100")
    assert _run(capsys, "hurwitz", "--group", "cyclic:2", "--n", "4")[0] == 0
    code, out, err = _run(capsys, "hurwitz", "--group", "cyclic:2", "--n", "4", "--orbits")
    assert code == 3
    assert "cap" in err
    assert out == ""


def test_exit_code_nonabelian(capsys):
    for command in ("verify", "trees"):
        code, out, err = _run(capsys, command, "--group", "symmetric:3", "--n", "4")
        assert code == 4
        assert "nonabelian" in err
        assert out == ""


def test_exit_code_marking_cap(capsys):
    # 7^8 class tuples exceed the default cap; refused before any enumeration.
    for command in ("class", "verify", "trees"):
        start = time.perf_counter()
        code, out, err = _run(capsys, command, "--group", "cyclic:7", "--n", "8")
        assert time.perf_counter() - start < 1
        assert code == 3
        assert "cap" in err
        assert out == ""
    # trees counts markings without listing them, so only the class tuples
    # the sweep lists are capped: 3^9 of them fit.
    code, out, _ = _run(capsys, "trees", "--group", "cyclic:3", "--n", "9")
    assert code == 0
    assert out.startswith("stable trees with 9 leaves: 660032 topologies\n")


def test_marking_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("COVERMOTIVE_CAP", "16")
    assert _run(capsys, "class", "--group", "cyclic:2", "--n", "4")[0] == 0
    code, _, err = _run(capsys, "class", "--group", "cyclic:2", "--n", "5")
    assert code == 3
    assert "cap" in err


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("COVERMOTIVE_CAP", "4")
    code, _, _ = _run(capsys, "trees", "--n", "5")
    assert code == 3
    monkeypatch.setenv("COVERMOTIVE_CAP", "not-a-number")
    code, _, err = _run(capsys, "trees", "--n", "4")
    assert code == 2
    assert "COVERMOTIVE_CAP" in err
    monkeypatch.delenv("COVERMOTIVE_CAP")
    assert _run(capsys, "trees", "--n", "5")[0] == 0


def test_cap_env_override_cannot_lift_tree_cap(capsys, monkeypatch):
    # For C1 the one class tuple per degree passes any marking cap, so only the
    # tree cap stands between these commands and degree 12.  The entry points
    # past the gate raise here, so a copy that lets the override lift the
    # tree cap fails at once instead of running on.
    import covermotive.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("work started above the stable tree cap")

    monkeypatch.setattr(cli, "Calculator", refuse)
    monkeypatch.setattr(cli, "profile_counts", refuse)
    monkeypatch.setenv("COVERMOTIVE_CAP", "1000")
    for argv in (
        ("verify", "--group", "cyclic:1", "--n", "12", "--all-props"),
        ("trees", "--n", "12"),
    ):
        start = time.perf_counter()
        code, out, err = _run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert "stable tree cap 9" in err
        assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("class", "--group", "cyclic:2", "--n", "2"),
        ("class", "--group", "cyclic:2", "--n", "-5"),
        ("verify", "--group", "cyclic:2", "--n", "1"),
        ("trees", "--n", "2"),
        ("hurwitz", "--group", "cyclic:2", "--n", "0"),
    ],
    ids=["class-2", "class-neg", "verify-1", "trees-2", "hurwitz-0"],
)
def test_exit_code_degree_too_small(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert "error:" in err and "--n" in err
    assert out == ""


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
