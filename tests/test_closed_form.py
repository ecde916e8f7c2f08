"""Both routes against Keel's closed recursion, and palindromic output.

For abelian G every product-one marking carries the class of the compactified
moduli of n points, so class_bbar(n) = |G|^(n-1) P_n with P_n from Keel's
recursion (tests/oracles.py).  That space is smooth and projective, so by
Poincare duality every class that `class` prints, total or per marking, is
palindromic.  The sweep builds its classes from open-stratum factors that are
not palindromic (class_m0n(6) is q^3 - 9q^2 + 26q - 24), so neither check
holds by construction.

Over the same groups, the recursion's open part is compared degree by degree
with the Hurwitz layer's per-type count, nielsen_count.
"""

from __future__ import annotations

import copy
from itertools import combinations_with_replacement, groupby
from math import factorial, prod

import pytest

from covermotive.calculator import Calculator
from covermotive.groups import build_cyclic, build_product_cyclic
from covermotive.hurwitz import nielsen_count
from covermotive.motives import MotivePoly, class_m0n
from oracles import keel_class

CASES = [
    (build_cyclic(1), 9),
    (build_cyclic(2), 8),
    (build_cyclic(3), 8),
    (build_product_cyclic([2, 2]), 8),
    (build_cyclic(6), 7),
    (build_cyclic(5), 8),
    (build_cyclic(13), 4),
    (build_cyclic(37), 4),
    # The first abelian groups neither cyclic nor elementary 2-groups.
    (build_product_cyclic([2, 4]), 6),
    (build_product_cyclic([3, 3]), 6),
]
IDS = ["C1", "C2", "C3", "C2xC2", "C6", "C5", "C13", "C37", "C2xC4", "C3xC3"]


def _palindromic(p: MotivePoly) -> bool:
    return p.coeffs == p.coeffs[::-1]


def test_keel_recursion_values():
    assert [keel_class(n).coeffs for n in (3, 4, 5, 6)] == [(1,), (1, 1), (1, 5, 1), (1, 16, 16, 1)]
    assert keel_class(8).coeffs == (1, 99, 715, 715, 99, 1)
    assert keel_class(9).coeffs == (1, 219, 3292, 7723, 3292, 219, 1)


@pytest.mark.parametrize("group, top", CASES, ids=IDS)
def test_both_routes_equal_keel_closed_form(group, top):
    calc = Calculator(group)
    for n in range(3, top + 1):
        want = keel_class(n).scale(group.order ** (n - 1))
        assert calc.class_bbar(n) == want, f"stratification, n = {n}"
        (t1, t2, t3), per_type = calc.terms(n)
        assert t1 + t2 - t3 == want, f"recursion, n = {n}"
        # Type by type: every product-one type carries Keel's class, and no
        # other type any class.
        assert per_type == dict.fromkeys(calc.types(n), keel_class(n)), f"per type, n = {n}"


@pytest.mark.parametrize("group, top", CASES, ids=IDS)
def test_types_count_the_product_one_markings(group, top):
    # The sweep takes its count of product-one markings, order^(n-1), from
    # the forced last entry; the types, each weighted by its arrangements,
    # must count the same.
    calc = Calculator(group)
    for n in range(3, top + 1):
        arrangements = (
            factorial(n) // prod(factorial(len(list(run))) for _, run in groupby(t))
            for t in calc.types(n)
        )
        assert sum(arrangements) == group.order ** (n - 1), f"n = {n}"


@pytest.mark.parametrize("group, top", CASES, ids=IDS)
def test_printed_classes_are_palindromic(group, top):
    calc = Calculator(group)
    for n in range(3, top + 1):
        assert _palindromic(calc.class_bbar(n)), f"total, n = {n}"
        assert _palindromic(calc.sweep(n).strata), f"per marking, n = {n}"


@pytest.mark.parametrize("group, top", CASES, ids=IDS)
def test_open_part_is_the_product_one_types(group, top):
    # The walk multiplies out each sorted class tuple and forces no entry.  So
    # it runs on a copy of the group with neither inverses nor a class map:
    # forcing the last entry, the sweep's method, needs both.
    blind = copy.copy(group)
    blind.inverse, blind.conj = None, group.conj._replace(class_of=None)
    module = Calculator(blind).open_module(top)
    assert module.degrees() == list(range(3, top + 1))
    for m in range(3, top + 1):
        want = [
            c
            for c in combinations_with_replacement(range(group.conj.count), m)
            if nielsen_count(group, c) == 1
        ]
        assert [a.classes for a in module.part(m)] == want, f"m = {m}"
        assert all(a.cls == class_m0n(m) for a in module.part(m)), f"m = {m}"
