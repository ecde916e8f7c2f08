"""Stable tree enumeration, markings, admissibility."""

from __future__ import annotations

from collections import Counter

import pytest

from covermotive.errors import UnsupportedNonabelian
from covermotive.groups import (
    build_cyclic,
    build_product_cyclic,
    build_symmetric,
)
from covermotive.motives import ONE, ZERO, MotivePoly
from covermotive.trees import (
    GerbyTree,
    NTree,
    Tree,
    enumerate_stable_trees,
    gerby_markings,
    is_admissible,
    profile_counts,
    stratum_class_of_topology,
)
from oracles import brute_force_tree_count, closed_form_profile_counts, stratum_class

STAR4 = NTree(Tree((0, 1, 2, 3), (0, 0, 0, 0)), (1, 2, 3, 4))


def _caterpillar4() -> NTree:
    # Leaves 1, 2 at the root vertex; 3, 4 behind one edge.
    j = (0, 1, 2, 3, 5, 4)
    vertex_of = (0, 0, 1, 1, 0, 1)
    return NTree(Tree(j, vertex_of), (1, 2, 3, 4, 0, 0))


def test_tree_validation():
    with pytest.raises(ValueError):
        Tree((1, 2, 0), (0, 0, 0))  # not an involution
    with pytest.raises(ValueError):
        Tree((0, 1), (0, 2))  # vertex ids not dense
    with pytest.raises(ValueError):
        Tree((1, 0, 2, 3), (0, 0, 0, 0))  # edge loops at one vertex
    with pytest.raises(ValueError):
        # Two components: edgeless vertices 0 and 1.
        Tree((0, 1, 2, 3, 4, 5), (0, 0, 0, 1, 1, 1))


def test_ntree_validation():
    with pytest.raises(ValueError):
        NTree(Tree((0, 1, 2, 3), (0, 0, 0, 0)), (1, 2, 3, 3))  # labels collide
    with pytest.raises(ValueError):
        NTree(Tree((0, 1, 2, 3), (0, 0, 0, 0)), (1, 2, 3, 5))  # not 1..n
    with pytest.raises(ValueError):
        # Non-leaf flag with a nonzero label.
        NTree(_caterpillar4().tree, (1, 2, 3, 4, 1, 0))
    with pytest.raises(ValueError):
        # Valence-1 vertex is unstable.
        NTree(Tree((0, 1, 3, 2), (0, 0, 0, 1)), (1, 2, 0, 0))


def test_tree_accessors():
    t = _caterpillar4().tree
    assert t.flag_count == 6
    assert t.vertex_count == 2
    assert t.leaves() == (0, 1, 2, 3)
    assert t.edges() == ((4, 5),)
    assert t.flags_at(0) == (0, 1, 4)
    assert t.valence(0) == 3
    assert t.valence(1) == 3


def test_enumeration_counts():
    assert len(enumerate_stable_trees(3)) == 1
    assert len(enumerate_stable_trees(4)) == 4
    assert len(enumerate_stable_trees(5)) == 26
    assert len(enumerate_stable_trees(6)) == 236


def test_enumeration_matches_oracle():
    for n in (3, 4, 5):
        assert len(enumerate_stable_trees(n)) == brute_force_tree_count(n)


def test_enumeration_structural_bounds():
    for n in (3, 4, 5, 6):
        for nt in enumerate_stable_trees(n):
            tree = nt.tree
            v = tree.vertex_count
            assert v <= n - 2
            assert tree.flag_count <= 3 * (n - 2)
            assert v == len(tree.edges()) + 1
            assert len(tree.leaves()) == n


def _split_key(nt: NTree) -> frozenset:
    """The leaf labels behind each edge, seen from leaf 1.

    This laminar family determines the labeled tree up to isomorphism, so
    two trees with equal keys are the same stratum.
    """
    tree = nt.tree

    def behind(f: int) -> frozenset:
        # Labels reached through flag f's edge, away from f's own vertex.
        g = tree.j[f]
        out = set()
        for h in tree.flags_at(tree.vertex_of[g]):
            if h != g:
                out |= {nt.labels[h]} if tree.j[h] == h else behind(h)
        return frozenset(out)

    return frozenset(behind(b) if 1 in behind(a) else behind(a) for a, b in tree.edges())


def test_enumeration_is_deterministic_and_duplicate_free():
    assert enumerate_stable_trees(5) == enumerate_stable_trees(5)
    # The key ignores flag and vertex ids: the caterpillar laid out again.
    relaid = NTree(Tree((0, 1, 2, 3, 5, 4), (1, 1, 0, 0, 1, 0)), (3, 4, 1, 2, 0, 0))
    assert _split_key(_caterpillar4()) == _split_key(relaid) == {frozenset({3, 4})}
    for n in (4, 5, 6):
        trees = enumerate_stable_trees(n)
        assert len({_split_key(nt) for nt in trees}) == len(trees)


def test_enumeration_guards():
    for count in (enumerate_stable_trees, profile_counts):
        with pytest.raises(ValueError):
            count(2)


def test_profile_counts_match_enumeration():
    # Through n = 7; test_profile_counts_match_closed_form covers n = 8..12.
    for n in range(3, 8):
        enumerated = Counter(
            tuple(sorted(nt.tree.valence(v) for v in range(nt.tree.vertex_count)))
            for nt in enumerate_stable_trees(n)
        )
        assert profile_counts(n) == enumerated, n


def test_profile_counts_match_closed_form():
    assert closed_form_profile_counts(4) == {(4,): 1, (3, 3): 3}
    for n in range(3, 13):
        assert profile_counts(n) == closed_form_profile_counts(n), n


def test_profile_counts_sum_to_a000311():
    # OEIS A000311: stable trees with n labeled leaves, n = 3..12.
    want = [1, 4, 26, 236, 2752, 39208, 660032, 12818912, 282137824, 6939897856]
    assert [sum(profile_counts(n).values()) for n in range(3, 13)] == want


def test_gerby_markings_counts():
    z2 = build_cyclic(2)
    assert len(gerby_markings(STAR4, z2)) == 16
    assert len(gerby_markings(_caterpillar4(), z2)) == 32
    z3 = build_cyclic(3)
    assert len(gerby_markings(STAR4, z3)) == 81


def test_gerby_markings_edge_pairing():
    z3 = build_cyclic(3)
    iota = z3.conj.involution
    for gt in gerby_markings(_caterpillar4(), z3):
        for a, b in gt.ntree.tree.edges():
            assert gt.marks[a] == iota[gt.marks[b]]


def test_admissibility_z2_star():
    z2 = build_cyclic(2)
    marked = gerby_markings(STAR4, z2)
    admissible = [gt for gt in marked if is_admissible(z2, gt)]
    # Exactly the even-weight leaf markings.
    assert len(admissible) == 8
    for gt in admissible:
        assert sum(gt.marks) % 2 == 0


def test_admissibility_counts_z2_n4():
    z2 = build_cyclic(2)
    total = 0
    for nt in enumerate_stable_trees(4):
        total += sum(1 for gt in gerby_markings(nt, z2) if is_admissible(z2, gt))
    assert total == 32


def test_admissibility_rejects_nonabelian():
    s3 = build_symmetric(3)
    gt = GerbyTree(STAR4, (0, 0, 0, 0))
    with pytest.raises(UnsupportedNonabelian):
        is_admissible(s3, gt)


def test_stratum_class_values():
    z2 = build_cyclic(2)
    even = GerbyTree(STAR4, (0, 0, 1, 1))
    odd = GerbyTree(STAR4, (1, 0, 0, 0))
    assert stratum_class(z2, even) == MotivePoly.of([-2, 1])
    assert stratum_class(z2, odd) == ZERO
    cat = GerbyTree(_caterpillar4(), (0, 0, 0, 0, 0, 0))
    assert stratum_class(z2, cat) == ONE
    assert stratum_class_of_topology((4,)) == MotivePoly.of([-2, 1])
    assert stratum_class_of_topology((3, 3)) == ONE
    assert stratum_class_of_topology((3, 4)) == MotivePoly.of([-2, 1])


def test_stratum_class_matches_topology_shortcut():
    v4 = build_product_cyclic([2, 2])
    for nt in enumerate_stable_trees(4):
        vals = tuple(nt.tree.valence(v) for v in range(nt.tree.vertex_count))
        for gt in gerby_markings(nt, v4):
            cls = stratum_class(v4, gt)
            if is_admissible(v4, gt):
                assert cls == stratum_class_of_topology(vals)
            else:
                assert cls == ZERO
