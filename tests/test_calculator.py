"""Stratification route against recursion route, and the report layer."""

from __future__ import annotations

from collections import Counter

import pytest

from covermotive.calculator import Calculator, build_report
from covermotive.errors import InexactDivision, UnsupportedNonabelian
from covermotive.groups import build_cyclic, build_product_cyclic, build_symmetric
from covermotive.motives import ONE, ZERO, MotivePoly
from covermotive.smodules import Atom, day_convolve
from covermotive.trees import (
    enumerate_stable_trees,
    gerby_markings,
    is_admissible,
    stratum_class_of_topology,
)
from oracles import leaf_of_label, stratum_class
from smodule_totals import forget_class
from smodules_oracle import oracle_terms

TRIVIAL = MotivePoly.of  # shorthand for expected values

_CALCULATORS: dict[str, Calculator] = {}


def _calc(group) -> Calculator:
    if group.name not in _CALCULATORS:
        _CALCULATORS[group.name] = Calculator(group)
    return _CALCULATORS[group.name]


def test_rejects_nonabelian():
    with pytest.raises(UnsupportedNonabelian):
        Calculator(build_symmetric(3))


def test_trivial_group_classes():
    calc = _calc(build_cyclic(1))
    assert calc.class_bbar(4) == TRIVIAL([1, 1])
    assert calc.class_bbar(5) == TRIVIAL([1, 5, 1])
    assert calc.class_bbar(6) == TRIVIAL([1, 16, 16, 1])


def test_trivial_group_term_breakdown_n4():
    calc = _calc(build_cyclic(1))
    t1, t2, t3 = calc.terms(4)
    assert t1 == TRIVIAL([4, 1])
    assert t2 == TRIVIAL([3])
    assert t3 == TRIVIAL([6])
    assert t1 + t2 - t3 == TRIVIAL([1, 1])


def test_z2_class_and_markings():
    calc = _calc(build_cyclic(2))
    assert calc.class_bbar(4) == TRIVIAL([8, 8])
    assert calc.class_bbar_marked((1, 1, 1, 1)) == TRIVIAL([1, 1])
    assert calc.class_bbar_marked((0, 0, 0, 0)) == TRIVIAL([1, 1])
    assert calc.class_bbar_marked((1, 0, 0, 0)) == ZERO
    with pytest.raises(ValueError):
        calc.class_bbar_marked((0, 0, 0, 7))


def test_z3_class():
    assert _calc(build_cyclic(3)).class_bbar(4) == TRIVIAL([27, 27])


def test_per_marking_sums_to_total():
    for group in (build_cyclic(2), build_cyclic(3)):
        calc = _calc(group)
        sweep = calc.sweep(4)
        acc = ZERO
        for cls in sweep.per_marking.values():
            acc = acc + cls
        assert acc == sweep.total


def test_per_marking_is_symmetric():
    import itertools

    calc = _calc(build_cyclic(2))
    sweep = calc.sweep(5)
    for cvec, cls in sweep.per_marking.items():
        for perm in itertools.permutations(cvec):
            assert sweep.per_marking.get(perm, ZERO) == cls


def test_scaling_law():
    trivial = _calc(build_cyclic(1))
    for group in (build_cyclic(2), build_cyclic(3), build_product_cyclic([2, 2])):
        calc = _calc(group)
        for n in (4, 5):
            factor = group.order ** (n - 1)
            assert calc.class_bbar(n) == trivial.class_bbar(n).scale(factor)


def test_open_class():
    trivial = _calc(build_cyclic(1))
    assert forget_class(trivial.open_module(4), 4) == TRIVIAL([-2, 1])
    calc = _calc(build_cyclic(2))
    assert forget_class(calc.open_module(4), 4) == TRIVIAL([-16, 8])
    by_type = {a.mults: a.cls for a in calc.open_module(4).part(4)}
    assert by_type[(0, 4)] == TRIVIAL([-2, 1])
    assert by_type.get((3, 1), ZERO) == ZERO
    assert sorted(by_type) == [(0, 4), (2, 2), (4, 0)]


def _tail(calc: Calculator, n: int, k: int, c: int) -> MotivePoly:
    """Degree-k tails of dbar_module(n) rooted at class c, summed over tuples."""
    acc = ZERO
    for atom in calc.dbar_module(n).part(k):
        if atom.attach == (calc.iota(c),):
            acc = acc + atom.cls.scale(atom.tuple_count)
    return acc


def test_tails():
    calc = _calc(build_cyclic(2))
    assert _tail(calc, 5, 1, 0) == ZERO
    assert _tail(calc, 5, 2, 0) == TRIVIAL([2])
    assert _tail(calc, 5, 2, 1) == TRIVIAL([2])
    assert _tail(calc, 5, 3, 0) == TRIVIAL([4, 4])
    trivial = _calc(build_cyclic(1))
    assert _tail(trivial, 4, 1, 0) == ZERO
    assert _tail(trivial, 4, 2, 0) == ONE


def test_modules_shape():
    trivial = _calc(build_cyclic(1))
    om = trivial.open_module(4)
    assert om.degrees() == [3, 4]
    assert om.part(3) == (Atom((3,), (), ONE),)
    dbar = trivial.dbar_module(4)
    assert dbar.degrees() == [2]
    atoms = dbar.part(2)
    assert len(atoms) == 1
    assert atoms[0].mults == (2,)
    assert atoms[0].attach == (0,)
    assert atoms[0].cls == ONE


def test_main_theorem_small_matrix():
    for group in (build_cyclic(1), build_cyclic(2), build_cyclic(3)):
        calc = _calc(group)
        for n in (4, 5):
            report = calc.verify_main_theorem(n)
            assert report.equal, f"{group.name}, n = {n}"
            assert report.lhs == calc.class_bbar(n)
    report = _calc(build_product_cyclic([2, 2])).verify_main_theorem(4)
    assert report.equal
    assert report.lhs == TRIVIAL([64, 64])


def test_main_theorem_c2_n8():
    # Scaling law on the Betti numbers of M_0,8: 2^7 * (1, 99, 715, 715, 99, 1).
    report = _calc(build_cyclic(2)).verify_main_theorem(8)
    assert report.equal
    assert report.lhs == TRIVIAL([1, 99, 715, 715, 99, 1]).scale(128)


def test_ordered_pairs_convolve_only_unit_pairs():
    # Convolving one attachment class at a time gives, as a multiset, the
    # atoms of the full product of the tails kept at the unit pairs.
    for group in (build_cyclic(3), build_product_cyclic([2, 2])):
        calc = Calculator(group)
        dbar = calc.dbar_module(6)
        units = {(c, calc.iota(c)) for c in range(calc.conj.count)}
        full = day_convolve(dbar, dbar, degrees={6}).part(6)
        expected = Counter(a for a in full if a.attach in units)
        got = Counter(calc._term_atoms(6)[2])
        assert got == expected
        assert len(expected) < len(full)


@pytest.mark.parametrize(
    "group, degrees",
    [
        (build_cyclic(1), (4, 5, 6)),
        (build_cyclic(2), (4, 5, 6, 7)),
        (build_cyclic(3), (4, 5, 6)),
        (build_product_cyclic([2, 2]), (4, 5, 6)),
    ],
    ids=["C1", "C2", "C3", "C2xC2"],
)
def test_terms_match_tuple_oracle(group, degrees):
    calc = _calc(group)
    for n in degrees:
        assert calc.terms(n) == oracle_terms(calc, n), f"{group.name}, n = {n}"


def test_bbar_module_rejects_asymmetric_classes():
    # A sweep whose per-marking classes differ within a type cannot become
    # a module on types; the boundary check names the type.
    calc = Calculator(build_cyclic(2))
    sweep = calc.sweep(4)
    sweep.per_marking[(0, 1, 1, 0)] = sweep.per_marking[(0, 1, 1, 0)].scale(2)
    with pytest.raises(InexactDivision, match=r"classes \['2\*q \+ 2', 'q \+ 1'\]"):
        calc.bbar_module(4)
    del sweep.per_marking[(0, 1, 1, 0)]
    with pytest.raises(InexactDivision, match=r"5 of the 6 tuples of type \(2, 2\)"):
        calc.bbar_module(4)


def test_mainprop_identities_n4():
    calc = _calc(build_cyclic(1))
    vertex, edge, flags = calc.verify_mainprop(4)
    assert vertex.lhs == TRIVIAL([4, 1]) and vertex.equal
    assert edge.lhs == TRIVIAL([3]) and edge.equal
    assert flags.lhs == TRIVIAL([6]) and flags.equal
    for sub in _calc(build_cyclic(2)).verify_mainprop(5):
        assert sub.equal, sub.name


def test_euler_identity():
    calc = _calc(build_cyclic(1))
    assert all(calc.euler_identity_check(n) for n in range(3, 10))


def test_refinement_matches_per_marking():
    for group, n in ((build_cyclic(2), 4), (build_cyclic(3), 4), (build_cyclic(2), 5)):
        calc = _calc(group)
        assert calc.recursion_refinement(n) == calc.sweep(n).per_marking


def test_topology_analysis():
    topos = _calc(build_cyclic(2)).topologies(4)
    assert len(topos) == 4
    assert [nt.tree.vertex_count for nt in topos] == [1, 2, 2, 2]
    assert [len(nt.tree.edges()) for nt in topos] == [0, 1, 1, 1]
    valences = [tuple(nt.tree.valence(u) for u in range(nt.tree.vertex_count)) for nt in topos]
    assert valences == [(4,), (3, 3), (3, 3), (3, 3)]
    # The one-vertex topology carries the open moduli class of four points.
    assert stratum_class_of_topology(valences[0]) == TRIVIAL([-2, 1])
    assert stratum_class_of_topology(valences[1]) == ONE


def _brute_force_sweep(group, n):
    """Mark every leaf and edge freely, keep the markings admissible at every vertex."""
    per_marking: dict[tuple[int, ...], MotivePoly] = {}
    total = vertex_weighted = edge_weighted = ZERO
    per_topology = []
    for nt in enumerate_stable_trees(n):
        tree = nt.tree
        leaves = [leaf_of_label(nt, label) for label in range(1, n + 1)]
        hits = 0
        for gt in gerby_markings(nt, group):
            if not is_admissible(group, gt):
                continue
            hits += 1
            cls = stratum_class(group, gt)
            key = tuple(gt.marks[f] for f in leaves)
            per_marking[key] = per_marking.get(key, ZERO) + cls
            total = total + cls
            vertex_weighted = vertex_weighted + cls.scale(tree.vertex_count)
            edge_weighted = edge_weighted + cls.scale(len(tree.edges()))
        per_topology.append(hits)
    return per_marking, total, vertex_weighted, edge_weighted, per_topology


@pytest.mark.parametrize(
    "group, degrees",
    [
        (build_cyclic(1), (4, 5, 6)),
        (build_cyclic(2), (4, 5, 6)),
        (build_cyclic(3), (4, 5)),
        (build_product_cyclic([2, 2]), (4, 5)),
        (build_cyclic(4), (4,)),
    ],
    ids=["C1", "C2", "C3", "C2xC2", "C4"],
)
def test_sweep_matches_brute_force(group, degrees):
    calc = _calc(group)
    for n in degrees:
        per_marking, total, vertex_weighted, edge_weighted, per_topology = (
            _brute_force_sweep(group, n)
        )
        sweep = calc.sweep(n)
        assert sweep.per_marking == per_marking, f"{group.name}, n = {n}"
        assert sweep.total == total
        assert sweep.vertex_weighted == vertex_weighted
        assert sweep.edge_weighted == edge_weighted
        assert sweep.inner_flag_weighted == edge_weighted.scale(2)
        assert per_topology == [group.order ** (n - 1)] * len(per_topology)
        assert sweep.topology_count == len(per_topology)
        assert sweep.admissible_count == sum(per_topology)


def test_build_report_census_and_polynomials():
    calc = _calc(build_cyclic(2))
    report = build_report(calc, 4)
    assert report.cls == TRIVIAL([8, 8])
    assert report.census == {
        "topologies": 4,
        "gerby_trees": 112,
        "admissible_strata": 32,
    }
    assert report.poincare == (8, 0, 8)
    assert report.hodge_euler == "8*u*v + 8"
    assert report.per_marking is None
    assert report.verification is None


def test_build_report_marked_with_verification():
    calc = _calc(build_cyclic(2))
    report = build_report(
        calc, 4, marking=(1, 1, 1, 1), with_per_marking=True, with_verification=True
    )
    assert report.cls == TRIVIAL([1, 1])
    assert report.poincare == (1, 0, 1)
    assert report.per_marking is not None
    assert report.per_marking[(1, 1, 1, 1)] == TRIVIAL([1, 1])
    assert report.verification is not None and report.verification.equal
