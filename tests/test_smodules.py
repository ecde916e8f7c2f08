"""Laws of the graded composition engine, and its comparison with the tuple oracle.

covermotive.smodules stores a symmetric module by type, the sorted tuple of
its evaluations' classes.  The type_ tests state its unit, root-shift,
product, associativity and interchange laws.  smodules_oracle.py is the
tuple engine it replaced, one atom per evaluation tuple, kept in tests/ as
its oracle: test_type_engine_matches_tuple_oracle compares the two engines
here, and test_calculator.py compares the recursion terms they give.
Anchors tie the oracle to values worked by hand: the degree-two
composition, the Bell numbers and block order of the set partitions it
shuffles over, and the refusal of an outer module that is not closed under
permuting evaluations, the hypothesis under which one shuffle per slot orbit
stands for the quotient.  Type inputs are symmetric by construction.
"""

from __future__ import annotations

import random
from collections import Counter
from math import factorial, prod

import pytest

import covermotive.smodules as sm
from covermotive.errors import InexactDivision
from covermotive.groups import build_cyclic, build_product_cyclic
from covermotive.motives import ONE, MotivePoly
from smodule_totals import forget_class
from smodules_oracle import (
    Atom,
    SModClass,
    compose,
    day_convolve,
    set_partitions,
    tuples_of,
    unit_i1,
    unit_i2,
)

Z2 = build_cyclic(2)
Z3 = build_cyclic(3)
C5 = build_cyclic(5)
V4 = build_product_cyclic([2, 2])
Q = MotivePoly((0, 1))


def _iota(group) -> tuple[int, ...]:
    return group.conj.involution


def test_forget_class_sums_weighted():
    # Type (0, 0) has one tuple of class q; type (0, 1) has two of class 1.
    x = sm.SModClass([sm.Atom((0, 0), (), Q), sm.Atom((0, 1), (), ONE)])
    assert forget_class(x, 2) == MotivePoly.of([2, 1])
    assert forget_class(x, 1).is_zero


def _random_type_module(rng: random.Random, classes: int, max_degree: int = 3) -> sm.SModClass:
    """A few rooted types with random classes; symmetric by construction."""
    atoms = []
    for _ in range(rng.randrange(1, 4)):
        evals = [rng.randrange(classes) for _ in range(rng.randrange(1, max_degree + 1))]
        cls = MotivePoly.of([rng.randrange(1, 4) for _ in range(rng.randrange(1, 3))])
        atoms.append(sm.Atom(tuple(sorted(evals)), (rng.randrange(classes),), cls))
    return sm.SModClass(atoms)


def _as_tuples(x: sm.SModClass) -> SModClass:
    """The same module on the tuple oracle: every tuple of every type."""
    return SModClass(
        Atom(evals, a.attach, a.cls, 1) for a in x.atoms() for evals in tuples_of(a.classes)
    )


def _tuple_classes(x: SModClass) -> dict[tuple, MotivePoly]:
    """(evaluations, attachment) -> class of a tuple module, weights multiplied in."""
    out: dict[tuple, MotivePoly] = {}
    for a in x.atoms():
        key = (a.evals, a.attach)
        out[key] = out.get(key, MotivePoly()) + a.cls.scale(a.weight)
    return {key: cls for key, cls in out.items() if not cls.is_zero}


def test_type_of_and_tuples_of():
    # The type of a tuple is its sorted tuple; tuples_of lists every tuple of a type.
    assert tuples_of((0, 2, 2)) == [(0, 2, 2), (2, 0, 2), (2, 2, 0)]
    assert tuples_of(()) == [()]
    for classes in ((0, 0, 0, 1), (0, 0, 1, 1, 2), (1, 1, 1, 1), (0, 3, 3, 7)):
        atom = sm.Atom(classes, (), ONE)
        tuples = tuples_of(classes)
        assert len(tuples) == len(set(tuples)) == atom.tuple_count
        assert all(tuple(sorted(t)) == classes for t in tuples)


def test_type_smodclass_normalizes():
    x = sm.SModClass([sm.Atom((0,), (), ONE), sm.Atom((0,), (), Q)])
    assert x.part(1) == (sm.Atom((0,), (), MotivePoly.of([1, 1])),)
    y = sm.SModClass([sm.Atom((0,), (), ONE), sm.Atom((0,), (), -ONE)])
    assert y == sm.SModClass() and y.degrees() == []


def test_type_units():
    z3 = build_cyclic(3)
    assert sm.unit_i1(3) == sm.SModClass(sm.Atom((c,), (c,), ONE) for c in range(3))
    # (1, 2) and (2, 1) are the two tuples of one type.
    assert sm.unit_i2(_iota(z3)).part(2) == (sm.Atom((0, 0), (), ONE), sm.Atom((1, 2), (), ONE))
    assert _as_tuples(sm.unit_i2(_iota(z3))) == unit_i2(z3)


def test_type_shift_root():
    for group in (build_cyclic(1), Z2, Z3, V4):
        iota = _iota(group)
        assert sm.shift_root(sm.unit_i2(iota), iota) == sm.unit_i1(len(iota))
    # Type (0, 1) over C3: dropping the 0 roots the rest at 0, dropping the 1 at 2.
    x = sm.SModClass([sm.Atom((0, 1), (), Q)])
    assert sm.shift_root(x, _iota(Z3)).atoms() == [sm.Atom((0,), (2,), Q), sm.Atom((1,), (0,), Q)]
    # A run of one class drops once: (1, 1, 1, 2) over C5 gives two rooted types.
    y = sm.SModClass([sm.Atom((1, 1, 1, 2), (), Q)])
    assert sm.shift_root(y, _iota(C5)).atoms() == [
        sm.Atom((1, 1, 1), (3,), Q),
        sm.Atom((1, 1, 2), (4,), Q),
    ]
    with pytest.raises(ValueError, match="no evaluation to re-expose"):
        sm.shift_root(sm.SModClass([sm.Atom((), (), ONE)]), _iota(Z2))
    with pytest.raises(ValueError):
        sm.shift_root(sm.unit_i1(2), _iota(Z2))


def test_type_day_convolve_binomials():
    x = sm.SModClass([sm.Atom((0,), (), ONE)])
    y = sm.SModClass([sm.Atom((1, 1), (), ONE)])
    # Each of the three tuples of type (0, 1, 1) splits one way.
    assert sm.day_convolve(x, y, {3}).atoms() == [sm.Atom((0, 1, 1), (), ONE)]
    # The tuple (0, 0) splits two ways between two degree-1 factors.
    assert sm.day_convolve(x, x, {2}).atoms() == [sm.Atom((0, 0), (), MotivePoly.of([2]))]
    assert sm.day_convolve(x, y, {3}) == sm.day_convolve(y, x, {3})
    # Types sharing two classes: (0, 1) * (0, 1) gives (0, 0, 1, 1) in C(2, 1)^2 ways.
    z = sm.SModClass([sm.Atom((0, 1), (), ONE)])
    assert sm.day_convolve(z, z, {4}).atoms() == [sm.Atom((0, 0, 1, 1), (), MotivePoly.of([4]))]
    u0 = sm.SModClass([sm.Atom((), (), ONE)])
    assert sm.day_convolve(x, u0, {1}) == x == sm.day_convolve(u0, x, {1})
    assert sm.day_convolve(x, y, {2}) == sm.SModClass()


def test_type_engine_matches_tuple_oracle():
    # C5's random types leave most of its classes absent, so Horner's rule
    # in compose passes over absent classes between present ones.
    rng = random.Random(29)
    for trial in range(12):
        group = (Z2, Z3, C5)[trial % 3]
        x = _random_type_module(rng, group.order, max_degree=2)
        y = _random_type_module(rng, group.order, max_degree=2)
        w = _random_type_module(rng, group.order, max_degree=2)
        degrees = set(range(1, 7))
        got = _tuple_classes(_as_tuples(sm.compose(x, w, degrees)))
        assert got == _tuple_classes(compose(_as_tuples(x), _as_tuples(w), degrees)), trial
        got = _tuple_classes(_as_tuples(sm.day_convolve(x, y, degrees)))
        assert got == _tuple_classes(day_convolve(_as_tuples(x), _as_tuples(y))), trial


def test_type_compose_units():
    rng = random.Random(3)
    for group in (Z2, Z3, V4):
        count = group.conj.count
        w = _random_type_module(rng, count)
        degrees = set(w.degrees())
        assert sm.compose(sm.unit_i1(count), w, degrees) == w
        assert sm.compose(w, sm.unit_i1(count), degrees) == w


def test_type_compose_associativity_randomized():
    rng = random.Random(17)
    for trial in range(12):
        classes = (2, 3)[trial % 2]
        x, y, z = (_random_type_module(rng, classes, max_degree=2) for _ in range(3))
        degrees = set(range(1, 7))
        left = sm.compose(sm.compose(x, y, degrees), z, degrees)
        right = sm.compose(x, sm.compose(y, z, degrees), degrees)
        assert left == right, f"trial {trial}"


def test_type_compose_interchange_with_day_convolution():
    rng = random.Random(23)
    for trial in range(6):
        x1, x2, w = (_random_type_module(rng, 2, max_degree=2) for _ in range(3))
        degrees = set(range(0, 9))
        left = sm.compose(sm.day_convolve(x1, x2, degrees), w, degrees)
        right = sm.day_convolve(sm.compose(x1, w, degrees), sm.compose(x2, w, degrees), degrees)
        assert left == right, f"trial {trial}"


def test_type_compose_edge_cases():
    x = sm.unit_i2(_iota(Z2))
    with pytest.raises(ValueError, match="lack a root attachment"):
        sm.compose(x, sm.SModClass([sm.Atom((0,), (), ONE)]), {2})
    with pytest.raises(ValueError, match="empty degree-0 part"):
        sm.compose(x, sm.SModClass([sm.Atom((), (0,), ONE)]), {2})
    assert sm.compose(x, sm.unit_i1(2), set()) == sm.SModClass()
    assert sm.compose(sm.SModClass(), sm.unit_i1(2), {1}) == sm.SModClass()
    assert sm.compose(x, sm.SModClass(), {2}) == sm.SModClass()
    constant = sm.SModClass([sm.Atom((), (), Q)])
    assert sm.compose(constant, sm.unit_i1(2), {0}) == constant


def test_division_check_rejects_a_remainder():
    with pytest.raises(InexactDivision, match="not divisible by 2"):
        sm._divided({1: {(0,): MotivePoly.of([2, 3])}}, 2)
    assert sm._divided({1: {(0,): MotivePoly.of([2, 4])}}, 2) == {1: {(0,): MotivePoly.of([1, 2])}}


def test_division_check_catches_a_product_without_binomials(monkeypatch):
    # With every binomial read as 1, x_0 * x_0 gives the tuple (0, 0) class 1
    # instead of 2, and halving it for the divided square is inexact.
    outer = sm.SModClass([sm.Atom((0, 0), (), ONE)])
    assert sm.compose(outer, sm.unit_i1(2), {2}) == outer
    monkeypatch.setattr(sm, "comb", lambda n, k: 1)
    with pytest.raises(InexactDivision):
        sm.compose(outer, sm.unit_i1(2), {2})


def test_type_freeness_counter_counts_divisions():
    before = sm.stats.freeness_checks
    # One divided square, with one coefficient: x_0^2 / 2.
    sm.compose(sm.SModClass([sm.Atom((0, 0), (), ONE)]), sm.unit_i1(2), {2})
    assert sm.stats.freeness_checks == before + 1
    # A square-free outer type divides nothing.
    sm.compose(sm.SModClass([sm.Atom((0, 1), (), ONE)]), sm.unit_i1(2), {2})
    assert sm.stats.freeness_checks == before + 1


# ---- anchors of the tuple oracle ----


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
    y = SModClass([Atom((0, 1), (), ONE, 1), Atom((1, 0), (), ONE, 1)])
    out2 = compose(y, w, {2})
    q2 = MotivePoly.of([0, 0, 1])
    assert out2.part(2) == (
        Atom((0, 1), (), q2, 1),
        Atom((1, 0), (), q2, 1),
    )


def test_compose_rejects_asymmetric_outer_even_when_divisible():
    # Ordered shuffles would give weights 2 and 2, which 2! divides; the
    # missing partner (1, 0) is what makes the result wrong.
    x = SModClass([Atom((0, 1), (), ONE, 2)])
    with pytest.raises(InexactDivision):
        compose(x, unit_i1(Z2), {2})


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
