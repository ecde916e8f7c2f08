"""Laws of the graded composition engine.

The randomized inputs here are always closed under permuting evaluations:
that closure (plus distinct shuffle blocks) is what lets one shuffle per slot
orbit stand for the quotient, so it is the hypothesis under which the laws
are stated.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from math import factorial, prod

import pytest

from covermotive.errors import (
    InexactDivision,
    MissingEvaluations,
    NonEmptyDegreeZero,
    NonFreeAction,
)
from covermotive.groups import build_cyclic, build_product_cyclic, conjugacy_classes
from covermotive.motives import ONE, MotivePoly, Q
from covermotive.smodules import (
    Atom,
    SModClass,
    _check_rigid,
    compose,
    day_convolve,
    set_partitions,
    shift_root,
    stats,
    unit_i1,
    unit_i2,
)
from smodule_totals import forget_class

Z2 = build_cyclic(2)
Z3 = build_cyclic(3)
V4 = build_product_cyclic([2, 2])


def _symmetrized(atoms: list[Atom]) -> SModClass:
    """Close a list of rooted atoms under permutation of their evaluations."""
    out = []
    for a in atoms:
        for perm in set(itertools.permutations(a.evals)):
            out.append(Atom(perm, a.attach, a.cls, a.weight))
    return SModClass(out)


def _random_rooted_module(rng: random.Random, group, max_degree: int = 3) -> SModClass:
    ncls = conjugacy_classes(group).count
    atoms = []
    for _ in range(rng.randrange(1, 4)):
        d = rng.randrange(1, max_degree + 1)
        evals = tuple(rng.randrange(ncls) for _ in range(d))
        attach = (rng.randrange(ncls),)
        cls = MotivePoly.of([rng.randrange(1, 4) for _ in range(rng.randrange(1, 3))])
        atoms.append(Atom(evals, attach, cls, rng.randrange(1, 3)))
    return _symmetrized(atoms)


def test_smodclass_normalizes():
    a = Atom((0,), (), ONE, 2)
    b = Atom((0,), (), ONE, 3)
    x = SModClass([a, b])
    assert x.part(1) == (Atom((0,), (), ONE, 5),)
    # Cancelling weights drop the atom entirely.
    y = SModClass([a, Atom((0,), (), ONE, -2)])
    assert y == SModClass()
    assert y.degrees() == []


def test_smodclass_union_and_equality():
    x = SModClass([Atom((0,), (), ONE, 1)])
    y = SModClass([Atom((1,), (), ONE, 1)])
    assert x.union(y) == SModClass([Atom((0,), (), ONE, 1), Atom((1,), (), ONE, 1)])
    assert x != y
    assert x.union(x) == SModClass([Atom((0,), (), ONE, 2)])


def test_forget_class_sums_weighted():
    x = SModClass([Atom((0,), (), Q, 2), Atom((1,), (), ONE, 3)])
    assert forget_class(x, 1) == MotivePoly.of([3, 2])
    assert forget_class(x, 2).is_zero


def test_units():
    u1 = unit_i1(Z3)
    assert u1.degrees() == [1]
    assert u1.part(1) == tuple(Atom((c,), (c,), ONE) for c in range(3))
    u2 = unit_i2(Z3)
    assert u2.degrees() == [2]
    # Evaluations pair each class with its inverse class.
    assert u2.part(2) == tuple(Atom((c, (3 - c) % 3), (), ONE) for c in range(3))
    # The degree-0 unit of the graded product is a single trivial atom.
    u0 = SModClass([Atom((), (), ONE)])
    assert u0.degrees() == [0]
    assert u0.part(0) == (Atom((), (), ONE),)


def test_unit_i2_is_swap_stable():
    for group in (Z2, Z3, V4):
        u2 = unit_i2(group)
        swapped = SModClass(
            Atom((a.evals[1], a.evals[0]), (), a.cls, a.weight) for a in u2.part(2)
        )
        assert swapped == u2


def test_shift_root_drops_and_reexposes():
    x = SModClass([Atom((0, 1), (), Q, 2)])
    y = shift_root(x, Z3)
    # Dropped evaluation 1 re-exposed through inversion as class 2.
    assert y.part(1) == (Atom((0,), (2,), Q, 2),)


def test_shift_root_of_two_slot_unit_is_one_slot_unit():
    for group in (Z2, Z3, V4):
        assert shift_root(unit_i2(group), group) == unit_i1(group)


def test_shift_root_guards():
    with pytest.raises(MissingEvaluations):
        shift_root(SModClass([Atom((), (), ONE)]), Z2)
    with pytest.raises(ValueError):
        shift_root(SModClass([Atom((0,), (0,), ONE)]), Z2)


def test_day_convolve_unit_and_commutativity():
    x = SModClass([Atom((0, 1), (), Q, 1), Atom((0,), (), ONE, 2)])
    u0 = SModClass([Atom((), (), ONE)])
    assert day_convolve(x, u0) == x
    assert day_convolve(u0, x) == x
    y = SModClass([Atom((1,), (), ONE, 1)])
    assert day_convolve(x, y) == day_convolve(y, x)


def test_day_convolve_counts_shuffles():
    x = SModClass([Atom((0,), (), ONE, 1)])
    y = SModClass([Atom((1, 1), (), ONE, 1)])
    out = day_convolve(x, y)
    # Three ways to place the 0 among three labels.
    assert out.part(3) == (
        Atom((0, 1, 1), (), ONE, 1),
        Atom((1, 0, 1), (), ONE, 1),
        Atom((1, 1, 0), (), ONE, 1),
    )


def test_day_convolve_degree_filter():
    x = SModClass([Atom((0,), (), ONE, 1), Atom((0, 0), (), ONE, 1)])
    full = day_convolve(x, x)
    assert full.degrees() == [2, 3, 4]
    assert day_convolve(x, x, degrees={3}).part(3) == full.part(3)
    assert day_convolve(x, x, degrees={3}).degrees() == [3]


def test_set_partitions_cardinalities():
    bell = (1, 1, 2, 5, 15, 52, 203, 877, 4140)
    for n, want in enumerate(bell):
        parts = set_partitions(n)
        assert len(parts) == want
        assert len(set(parts)) == want
        # Per block-size profile: n! / (prod k_i! * prod mult_j!).
        profiles = Counter(tuple(sorted(len(b) for b in p)) for p in parts)
        for sizes, count in profiles.items():
            denom = prod(factorial(k) for k in sizes)
            denom *= prod(factorial(mult) for mult in Counter(sizes).values())
            assert count == factorial(n) // denom


def test_set_partitions_structure():
    for n in range(6):
        for blocks in set_partitions(n):
            assert sorted(p for b in blocks for p in b) == list(range(n))
            for b in blocks:
                assert list(b) == sorted(b)
            assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)


def test_check_rigid_detects_repeats():
    _check_rigid(((0, 1), (2,)))
    with pytest.raises(NonFreeAction) as exc:
        _check_rigid(((0, 1), (0, 1)))
    assert exc.value.witness == (1, 0)


def test_compose_left_unit():
    for group in (Z2, Z3):
        w = _random_rooted_module(random.Random(3), group)
        degrees = set(w.degrees())
        assert compose(unit_i1(group), w, degrees) == w


def test_compose_right_unit_on_symmetric_input():
    rng = random.Random(5)
    for group in (Z2, Z3):
        x = _random_rooted_module(rng, group)
        degrees = set(x.degrees())
        assert compose(x, unit_i1(group), degrees) == x


def test_compose_symmetrization_failure_is_detected():
    # A single unsymmetric outer atom cannot be divided by the slot swaps.
    x = SModClass([Atom((0, 1), (0,), ONE, 1)])
    with pytest.raises(InexactDivision):
        compose(x, unit_i1(Z2), {2})


def test_compose_rejects_asymmetric_outer_even_when_divisible():
    # Ordered shuffles would give weights 2 and 2, which 2! divides; the
    # missing partner (1, 0) is what makes the result wrong.
    x = SModClass([Atom((0, 1), (), ONE, 2)])
    with pytest.raises(InexactDivision):
        compose(x, unit_i1(Z2), {2})


def test_compose_degree_two_by_hand():
    # Outer: both slots demand root class 0.  Inner: one rooted degree-1
    # generator per class.  The only composite keeps the evaluations.
    x = SModClass([Atom((0, 0), (), Q, 1)])
    w = SModClass(
        [Atom((0,), (0,), ONE, 1), Atom((1,), (1,), MotivePoly.of([0, 0, 1]), 1)]
    )
    out = compose(x, w, {2})
    assert out.part(2) == (Atom((0, 0), (), Q, 1),)
    # Mixed roots: slots 0 and 1 pick distinct inners.  The outer atoms
    # (0, 1) and (1, 0) each take the one partition {0}, {1}, giving weight 1.
    y = _symmetrized([Atom((0, 1), (), ONE, 1)])
    out2 = compose(y, w, {2})
    q2 = MotivePoly.of([0, 0, 1])
    assert out2.part(2) == (
        Atom((0, 1), (), q2, 1),
        Atom((1, 0), (), q2, 1),
    )


def test_compose_requires_rooted_inner():
    x = unit_i2(Z2)
    with pytest.raises(MissingEvaluations):
        compose(x, SModClass([Atom((0,), (), ONE, 1)]), {2})
    with pytest.raises(NonEmptyDegreeZero):
        compose(x, SModClass([Atom((), (0,), ONE, 1)]), {2})


def test_compose_empty_cases():
    assert compose(unit_i2(Z2), unit_i1(Z2), set()) == SModClass()
    assert compose(SModClass(), unit_i1(Z2), {1}) == SModClass()
    assert compose(unit_i2(Z2), SModClass(), {2}) == SModClass()


def test_compose_degree_zero_outer_passes_through():
    x = SModClass([Atom((), (), Q, 1)])
    assert compose(x, unit_i1(Z2), {0}) == x


def test_compose_associativity_randomized():
    rng = random.Random(17)
    for trial in range(12):
        group = (Z2, Z3)[trial % 2]
        x = _random_rooted_module(rng, group, max_degree=2)
        y = _random_rooted_module(rng, group, max_degree=2)
        z = _random_rooted_module(rng, group, max_degree=2)
        degrees = set(range(1, 7))
        left = compose(compose(x, y, degrees), z, degrees)
        right = compose(x, compose(y, z, degrees), degrees)
        assert left == right, f"trial {trial}"


def test_compose_interchange_with_day_convolution():
    # Composition distributes over the graded product of outer factors.
    rng = random.Random(23)
    for trial in range(6):
        x1 = _random_rooted_module(rng, Z2, max_degree=2)
        x2 = _random_rooted_module(rng, Z2, max_degree=2)
        w = _random_rooted_module(rng, Z2, max_degree=2)
        degrees = set(range(0, 9))
        left = compose(day_convolve(x1, x2), w, degrees)
        right = day_convolve(compose(x1, w, degrees), compose(x2, w, degrees))
        assert left == right, f"trial {trial}"


def test_freeness_counters_advance():
    checks_before = stats.freeness_checks
    compose(unit_i2(Z2), unit_i1(Z2), {2})
    assert stats.freeness_checks > checks_before
