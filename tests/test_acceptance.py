"""Acceptance gate: ten end-to-end checks, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each test
also fails loudly on its own, so the suite gates CI without the -s flag.

The two computation routes (direct stratification and the composition-engine
recursion) are built from disjoint code paths and serve as each other's
oracle; the brute-force module pins the combinatorial counts independently.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter
from math import factorial
from pathlib import Path

import covermotive
from covermotive.calculator import Calculator
from covermotive.groups import (
    FiniteGroup,
    build_cyclic,
    build_dihedral,
    build_product_cyclic,
    build_symmetric,
)
from covermotive.hurwitz import braid_generator, braid_orbits, enumerate_hurwitz
from covermotive.motives import MotivePoly, class_m0n, to_poincare
from covermotive.smodules import (
    Atom,
    SModClass,
    compose,
    day_convolve,
    shift_root,
    stats,
    type_of,
    unit_i1,
    unit_i2,
)
from covermotive.trees import enumerate_stable_trees, profile_counts
from oracles import brute_force_m0n_count, brute_force_tree_count, eval_at
from smodule_totals import forget_class
from smodules_oracle import set_partitions

MATRIX_NS = (4, 5, 6)

_calcs: dict[str, Calculator] = {}
_matrix_freeness: dict[str, int] = {}


def _matrix_groups() -> list[FiniteGroup]:
    return [
        build_cyclic(1),
        build_cyclic(2),
        build_cyclic(3),
        build_product_cyclic([2, 2]),
    ]


def _calc(group: FiniteGroup) -> Calculator:
    if group.name not in _calcs:
        _calcs[group.name] = Calculator(group)
    return _calcs[group.name]


def _report(num: int, name: str, ok: bool, extra: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"criterion {num:2d}: {status} - {name}{tail}")
    return ok


def test_criterion_01_recursion_matches_stratification():
    checks_before = stats.freeness_checks
    start = time.monotonic()
    ok = True
    for group in _matrix_groups():
        calc = _calc(group)
        for n in MATRIX_NS:
            report = calc.verify_main_theorem(n)
            ok = ok and report.equal
    elapsed = time.monotonic() - start
    _matrix_freeness["checks"] = stats.freeness_checks - checks_before

    # The documented degree-4 breakdown for the trivial group.
    t1, t2, t3 = _calc(build_cyclic(1)).terms(4)
    ok = ok and (str(t1), str(t2), str(t3)) == ("q + 4", "3", "6")
    ok = ok and str(t1 + t2 - t3) == "q + 1"
    ok = ok and elapsed <= 600

    assert _report(
        1,
        "recursion equals stratification on the 4-group x degree 4..6 matrix",
        ok,
        f"{elapsed:.1f}s",
    )


def test_criterion_02_refined_identities():
    ok = True
    for group in _matrix_groups():
        calc = _calc(group)
        for n in MATRIX_NS:
            for sub in calc.verify_mainprop(n):
                ok = ok and sub.equal
            ok = ok and calc.euler_identity_check(n)
    assert _report(
        2,
        "vertex/edge/flag-weighted strata match the three recursion terms",
        ok,
    )


def test_criterion_03_pillowcase_marking():
    calc = _calc(build_cyclic(2))
    cls = calc.class_bbar_marked((1, 1, 1, 1))
    ok = cls == MotivePoly.of([1, 1]) and to_poincare(cls) == (1, 0, 1)
    assert _report(
        3,
        "full-branching degree-4 class over C2 is q + 1 with Poincare 1 + t^2",
        ok,
    )


def test_criterion_04_trivial_group_base_classes():
    calc = _calc(build_cyclic(1))
    expected = {
        4: MotivePoly.of([1, 1]),
        5: MotivePoly.of([1, 5, 1]),
        6: MotivePoly.of([1, 16, 16, 1]),
    }
    euler = {4: 2, 5: 7, 6: 34}
    ok = True
    for n, want in expected.items():
        got = calc.class_bbar(n)
        ok = ok and got == want
        ok = ok and eval_at(got, 1) == euler[n]
    ok = ok and calc.class_bbar(6).coeffs[1] == 16
    assert _report(
        4,
        "trivial-group classes for degrees 4..6 with b2 = 16 at degree 6",
        ok,
    )


def test_criterion_05_scaling_law():
    trivial = _calc(build_cyclic(1))
    ok = True
    for group in _matrix_groups()[1:]:
        calc = _calc(group)
        for n in MATRIX_NS:
            factor = group.order ** (n - 1)
            ok = ok and calc.class_bbar(n) == trivial.class_bbar(n).scale(factor)
    assert _report(
        5,
        "abelian classes scale the trivial-group class by order^(n-1)",
        ok,
    )


def test_criterion_06_tree_census():
    ok = True
    counts = {}
    for n in (3, 4, 5):
        counts[n] = len(enumerate_stable_trees(n))
        ok = ok and counts[n] == brute_force_tree_count(n)
    ok = ok and (counts[3], counts[4], counts[5]) == (1, 4, 26)
    oracle_n6 = brute_force_tree_count(6)
    counts[6] = len(enumerate_stable_trees(6))
    ok = ok and counts[6] == oracle_n6
    for n, count in counts.items():
        ok = ok and sum(profile_counts(n).values()) == count
    for n in (3, 4, 5, 6):
        for nt in enumerate_stable_trees(n):
            tree = nt.tree
            ok = ok and tree.vertex_count <= n - 2
            ok = ok and tree.flag_count <= 3 * (n - 2)
            ok = ok and tree.vertex_count == len(tree.edges()) + 1
    assert _report(
        6,
        "tree census 1/4/26 matches the oracle and the profile counts; size bounds hold",
        ok,
        f"oracle count at 6 leaves: {oracle_n6}",
    )


def test_criterion_07_point_counts():
    ok = True
    for n in (3, 4, 5, 6):
        poly = class_m0n(n)
        for p in (5, 7, 11, 13):
            ok = ok and eval_at(poly, p) == brute_force_m0n_count(n, p)
    assert _report(
        7,
        "marked-point moduli polynomial matches prime-field point counts",
        ok,
    )


def _random_symmetric_rooted(rng: random.Random, ncls: int) -> SModClass:
    """Random rooted types of degree 1 or 2; a module on types is symmetric."""
    atoms = []
    for _ in range(rng.randrange(1, 4)):
        d = rng.randrange(1, 3)
        evals = tuple(rng.randrange(ncls) for _ in range(d))
        attach = (rng.randrange(ncls),)
        cls = MotivePoly.of([rng.randrange(1, 4) for _ in range(rng.randrange(1, 3))])
        atoms.append(Atom(type_of(evals, ncls), attach, cls))
    return SModClass(atoms)


def test_criterion_08_engine_laws():
    ok = True

    # Unit law: the one-slot unit is neutral on both sides.
    rng = random.Random(41)
    for group in (build_cyclic(2), build_cyclic(3)):
        ncls = group.order
        for _ in range(5):
            w = _random_symmetric_rooted(rng, ncls)
            degrees = set(w.degrees())
            ok = ok and compose(unit_i1(group), w, degrees) == w
            ok = ok and compose(w, unit_i1(group), degrees) == w

    # Root-shift consistency: shifting the two-slot unit yields the one-slot
    # unit, and shifting a stratification module preserves degree totals.
    for group in _matrix_groups():
        ok = ok and shift_root(unit_i2(group), group) == unit_i1(group)
    z3 = _calc(build_cyclic(3))
    bbar = z3.bbar_module(5)
    dbar = shift_root(bbar, z3.group)
    for k in (2, 3, 4):
        lifted = forget_class(dbar, k)
        ok = ok and lifted == forget_class(bbar, k + 1)

    # Partition counts of the tuple oracle's set partitions:
    # n! / (prod k_i! * prod mult_j!) for every block profile.
    for n in range(1, 9):
        profiles = Counter(tuple(sorted(len(b) for b in p)) for p in set_partitions(n))
        for parts in range(1, n + 1):
            for cuts in itertools.combinations(range(1, n), parts - 1):
                bounds = (0,) + cuts + (n,)
                sizes = tuple(sorted(b - a for a, b in zip(bounds, bounds[1:])))
                want = factorial(n)
                for k in sizes:
                    want //= factorial(k)
                for mult in Counter(sizes).values():
                    want //= factorial(mult)
                ok = ok and profiles[sizes] == want

    # Associativity of composition on randomized symmetric rooted inputs.
    rng = random.Random(43)
    trials = 0
    for trial in range(50):
        group = (build_cyclic(2), build_cyclic(3))[trial % 2]
        ncls = group.order
        x = _random_symmetric_rooted(rng, ncls)
        y = _random_symmetric_rooted(rng, ncls)
        z = _random_symmetric_rooted(rng, ncls)
        degrees = set(range(1, 7))
        left = compose(compose(x, y, degrees), z, degrees)
        right = compose(x, compose(y, z, degrees), degrees)
        ok = ok and left == right
        trials += 1
    ok = ok and trials >= 50

    # Interchange: composition distributes over the graded product.
    rng = random.Random(45)
    for _ in range(10):
        x1, x2, w = (_random_symmetric_rooted(rng, 2) for _ in range(3))
        degrees = set(range(0, 9))
        left = compose(day_convolve(x1, x2, degrees), w, degrees)
        right = day_convolve(compose(x1, w, degrees), compose(x2, w, degrees), degrees)
        ok = ok and left == right

    # The exact divisions of the slot quotient ran throughout the recursion matrix.
    if "checks" not in _matrix_freeness:
        checks_before = stats.freeness_checks
        Calculator(build_cyclic(3)).verify_main_theorem(5)
        _matrix_freeness["checks"] = stats.freeness_checks - checks_before
    ok = ok and _matrix_freeness["checks"] > 0

    assert _report(
        8,
        "engine laws: units, root shift, partition counts, associativity, interchange",
        ok,
        f"exact slot-quotient divisions during recursion: {_matrix_freeness['checks']}",
    )


def test_criterion_09_hurwitz_layer():
    ok = True
    small_groups = [
        build_cyclic(k) for k in range(1, 9)
    ] + [
        build_product_cyclic([2, 2]),
        build_product_cyclic([2, 4]),
        build_product_cyclic([2, 2, 2]),
        build_dihedral(3),
        build_dihedral(4),
        build_symmetric(3),
    ]
    for group in small_groups:
        assert group.order <= 8
        for n in range(1, 7):
            ok = ok and len(enumerate_hurwitz(group, n)) == group.order ** (n - 1)

    s3 = build_symmetric(3)
    vectors = enumerate_hurwitz(s3, 4)

    def apply(word, v):
        for i in word:
            v = braid_generator(s3, v, i)
        return v

    for i in (1, 2, 3):
        ok = ok and sorted(braid_generator(s3, v, i) for v in vectors) == vectors
    for v in vectors:
        ok = ok and apply((1, 2, 1), v) == apply((2, 1, 2), v)
        ok = ok and apply((2, 3, 2), v) == apply((3, 2, 3), v)
        ok = ok and apply((1, 3), v) == apply((3, 1), v)

    orbits = braid_orbits(s3, vectors)
    ok = ok and braid_orbits(s3, [v for o in orbits for v in o]) == orbits
    rng = random.Random(47)
    shuffled = list(vectors)
    for _ in range(3):
        rng.shuffle(shuffled)
        ok = ok and braid_orbits(s3, shuffled) == orbits

    assert _report(
        9,
        "tuple counts, braid relations, and stable orbit partitions",
        ok,
    )


def _cli_bytes(*argv: str) -> bytes:
    # The child imports the same covermotive package as this process.
    package_root = str(Path(covermotive.__file__).resolve().parent.parent)
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-m", "covermotive.cli", *argv],
        capture_output=True,
        check=True,
        env=env,
    )
    return proc.stdout


def test_criterion_10_deterministic_output():
    ok = True
    class_argv = ("class", "--group", "cyclic:2", "--n", "5", "--per-marking")
    verify_argv = ("verify", "--group", "cyclic:3", "--n", "4", "--all-props")
    for argv in (class_argv, verify_argv):
        baseline = _cli_bytes(*argv)
        ok = ok and baseline == _cli_bytes(*argv)
    assert _report(
        10,
        "report and verification output is byte-identical across runs",
        ok,
    )
