"""Stratification route against recursion route."""

from __future__ import annotations

import ast
import itertools
from collections import Counter
from pathlib import Path

import pytest

import covermotive.calculator as calculator
from covermotive.calculator import Calculator
from covermotive.errors import MalformedSpec, UnsupportedNonabelian
from covermotive.groups import build_cyclic, build_product_cyclic, build_symmetric
from covermotive.motives import ONE, ZERO, MotivePoly
from covermotive.smodules import Atom, day_convolve
from covermotive.trees import (
    enumerate_stable_trees,
    gerby_markings,
    is_admissible,
    stratum_class_of_topology,
)
from oracles import stratum_class
from smodule_totals import forget_class
from smodules_oracle import oracle_terms

TRIVIAL = MotivePoly.of  # shorthand for expected values

_CALCULATORS: dict[str, Calculator] = {}


def _calc(group) -> Calculator:
    if group.name not in _CALCULATORS:
        _CALCULATORS[group.name] = Calculator(group)
    return _CALCULATORS[group.name]


def test_routes_share_no_code():
    # The two routes check each other only while neither reads the other's
    # code.  Every method of Calculator belongs to one route or to the
    # comparison of the two, so a new method that is in no list fails here.
    # The one crossing is dbar_module, which reads the sweep classes of lower
    # degrees as the recursion's tails; their types come from the recursion's
    # own walk.  Neither route reads the Hurwitz layer: the open part
    # multiplies out its own class tuples.
    recursion = ("open_module", "dbar_module", "_term_atoms", "terms")
    strata = (
        "topologies", "_closed", "sweep", "types", "per_marking", "class_bbar",
        "class_bbar_marked", "euler_identity_check",
    )
    comparison = ("__init__", "verify_main_theorem", "verify_mainprop")
    module = ast.parse(Path(calculator.__file__).read_text())
    imported: dict[str, set[str]] = {}
    for node in module.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, set()).update(a.asname or a.name for a in node.names)
    assert "hurwitz" not in imported
    cls = next(n for n in module.body if isinstance(n, ast.ClassDef) and n.name == "Calculator")
    methods = {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}
    listed = recursion + strata + comparison
    assert sorted(listed) == sorted(methods), "each method in exactly one list"

    def names(method: str) -> set[str]:
        return {n.id for n in ast.walk(methods[method]) if isinstance(n, ast.Name)}

    def self_calls(method: str) -> set[str]:
        return {
            n.func.attr
            for n in ast.walk(methods[method])
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and isinstance(n.func.value, ast.Name)
            and n.func.value.id == "self"
        }

    for method in recursion:
        assert not names(method) & imported["trees"], method
        crossing = self_calls(method) & set(strata)
        assert crossing == ({"sweep"} if method == "dbar_module" else set()), method
    for method in strata:
        assert not names(method) & imported["smodules"], method
        assert not self_calls(method) & set(recursion), method


def test_rejects_nonabelian():
    with pytest.raises(UnsupportedNonabelian):
        Calculator(build_symmetric(3))


def test_trivial_group_term_breakdown_n4():
    calc = _calc(build_cyclic(1))
    t1, t2, t3 = calc.terms(4)[0]
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
    with pytest.raises(MalformedSpec, match=r"names class 7; class ids run 0\.\.1"):
        calc.class_bbar_marked((0, 0, 0, 7))


def test_per_marking_sums_to_total():
    for group in (build_cyclic(2), build_cyclic(3)):
        calc = _calc(group)
        sweep = calc.sweep(4)
        assert sweep.strata.scale(len(list(calc.per_marking(4)))) == sweep.total


def test_per_marking_is_symmetric():
    markings = list(_calc(build_cyclic(2)).per_marking(5))
    listed = set(markings)
    assert len(listed) == len(markings)
    for cvec in markings:
        assert set(itertools.permutations(cvec)) <= listed


@pytest.mark.parametrize(
    "group", [build_cyclic(3), build_product_cyclic([2, 2])], ids=["C3", "C2xC2"]
)
def test_marked_class_is_read_off_its_type(group):
    # Every marking, sorted or not, product-one or not, gets the sweep's class
    # if the per-marking listing, built tuple by tuple, names it, else ZERO.
    calc = _calc(group)
    strata, markings = calc.sweep(4).strata, set(calc.per_marking(4))
    for marking in itertools.product(range(calc.conj.count), repeat=4):
        expected = strata if marking in markings else ZERO
        assert calc.class_bbar_marked(marking) == expected, marking


def test_open_class():
    trivial = _calc(build_cyclic(1))
    assert forget_class(trivial.open_module(4), 4) == TRIVIAL([-2, 1])
    calc = _calc(build_cyclic(2))
    assert forget_class(calc.open_module(4), 4) == TRIVIAL([-16, 8])
    by_type = {a.classes: a.cls for a in calc.open_module(4).part(4)}
    assert by_type[(1, 1, 1, 1)] == TRIVIAL([-2, 1])
    assert by_type.get((0, 0, 0, 1), ZERO) == ZERO
    assert sorted(by_type) == [(0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)]


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
    # dbar_module(6) roots the degree-(k+1) types at one slot, which moves
    # their total to degree k unchanged: the sweep's own total at k + 1.
    z3 = _calc(build_cyclic(3))
    for k in (2, 3, 4):
        assert forget_class(z3.dbar_module(6), k) == z3.sweep(k + 1).total, k


@pytest.mark.parametrize(
    "group", [build_cyclic(3), build_product_cyclic([2, 2])], ids=["C3", "C2xC2"]
)
def test_recursion_reads_no_strata_listing(group, monkeypatch):
    # The recursion lists its types, tails included, by its own walk, and
    # reads only the sweep classes from the stratification route.  So with
    # every listing of that route made to raise, a fresh Calculator computes
    # the same terms.
    want = _calc(group).terms(6)

    def listing(*args):
        raise AssertionError("the recursion read a stratification listing")

    for name in ("types", "_closed", "per_marking", "topologies"):
        monkeypatch.setattr(Calculator, name, listing)
    assert Calculator(group).terms(6) == want


def test_modules_shape():
    trivial = _calc(build_cyclic(1))
    om = trivial.open_module(4)
    assert om.degrees() == [3, 4]
    assert om.part(3) == (Atom((0, 0, 0), (), ONE),)
    dbar = trivial.dbar_module(4)
    assert dbar.degrees() == [2]
    atoms = dbar.part(2)
    assert len(atoms) == 1
    assert atoms[0].classes == (0, 0)
    assert atoms[0].attach == (0,)
    assert atoms[0].cls == ONE


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
        assert calc.terms(n)[0] == oracle_terms(calc, n), f"{group.name}, n = {n}"


def test_mainprop_identities():
    calc = _calc(build_cyclic(1))
    assert [lhs for _, lhs, _ in calc.verify_mainprop(4)] == [
        TRIVIAL([4, 1]), TRIVIAL([3]), TRIVIAL([6])
    ]
    for group in (build_cyclic(1), build_cyclic(2), build_cyclic(3), build_product_cyclic([2, 2])):
        for n in (4, 5, 6):
            for name, lhs, rhs in _calc(group).verify_mainprop(n):
                assert lhs == rhs, (group.name, n, name)


def test_euler_identity():
    calc = _calc(build_cyclic(1))
    assert all(calc.euler_identity_check(n) for n in range(3, 10))


def test_topology_analysis():
    topos = _calc(build_cyclic(2)).topologies(4)
    assert len(topos) == 4
    assert [len(nt.up) for nt in topos] == [0, 1, 1, 1]
    valences = [tuple(nt.valences()) for nt in topos]
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
        hits = 0
        for marks in gerby_markings(nt, group):
            if not is_admissible(group, nt, marks):
                continue
            hits += 1
            cls = stratum_class(group, nt, marks)
            key = marks[:n]
            per_marking[key] = per_marking.get(key, ZERO) + cls
            total = total + cls
            vertex_weighted = vertex_weighted + cls.scale(len(nt.up) + 1)
            edge_weighted = edge_weighted + cls.scale(len(nt.up))
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
        marked = dict.fromkeys(calc.per_marking(n), sweep.strata)
        assert marked == per_marking, f"{group.name}, n = {n}"
        assert sorted(calc.types(n)) == sorted({tuple(sorted(m)) for m in per_marking})
        assert set(per_marking.values()) == {sweep.strata}
        assert sweep.total == total
        assert sweep.vertex_weighted == vertex_weighted
        assert sweep.edge_weighted == edge_weighted
        assert per_topology == [group.order ** (n - 1)] * len(per_topology)
        assert sweep.topology_count == len(per_topology)
        assert sweep.admissible_count == sum(per_topology)
