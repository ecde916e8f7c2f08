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
    NTree,
    enumerate_stable_trees,
    gerby_markings,
    is_admissible,
    profile_counts,
    stratum_class_of_topology,
)
from oracles import brute_force_tree_count, closed_form_profile_counts, stratum_class

STAR4 = NTree((0, 0, 0, 0), ())
CATERPILLAR4 = NTree((0, 0, 1, 1), (0,))  # leaves 1, 2 at the root; 3, 4 behind one edge


def test_enumeration_counts():
    assert len(enumerate_stable_trees(3)) == 1
    assert len(enumerate_stable_trees(4)) == 4
    assert len(enumerate_stable_trees(5)) == 26
    assert len(enumerate_stable_trees(6)) == 236


def test_enumeration_matches_oracle():
    for n in (3, 4, 5):
        assert len(enumerate_stable_trees(n)) == brute_force_tree_count(n)


def test_enumeration_structural_bounds():
    # The canonical form holds of every enumerated tree: leaf 1 at the root,
    # vertex ids dense in 0..E, every vertex reaching the root, and stability.
    for n in range(3, 8):
        for nt in enumerate_stable_trees(n):
            edges = len(nt.up)
            assert len(nt.home) == n and edges <= n - 3
            assert nt.home[0] == 0
            assert set(nt.home + nt.up) <= set(range(edges + 1))
            for start in range(1, edges + 1):
                v = start
                for _ in range(edges):
                    v = nt.up[v - 1] if v else 0
                assert v == 0, (nt, start)
            assert min(nt.valences()) >= 3, nt


def _split_key(nt: NTree) -> frozenset:
    """The leaf labels under each non-root vertex, seen from leaf 1.

    This laminar family determines the labeled tree up to isomorphism, so
    two trees with equal keys are the same stratum.
    """
    under: dict[int, set[int]] = {v: set() for v in range(1, len(nt.up) + 1)}
    for label, v in enumerate(nt.home, 1):
        while v:
            under[v].add(label)
            v = nt.up[v - 1]
    return frozenset(frozenset(labels) for labels in under.values())


def test_enumeration_is_deterministic_and_duplicate_free():
    assert enumerate_stable_trees(5) == enumerate_stable_trees(5)
    # The key ignores vertex ids: a tree with two edges laid out again.
    laid, relaid = NTree((0, 1, 1, 2, 2), (0, 0)), NTree((0, 2, 2, 1, 1), (0, 0))
    assert _split_key(laid) == _split_key(relaid) == {frozenset({2, 3}), frozenset({4, 5})}
    assert _split_key(CATERPILLAR4) == {frozenset({3, 4})}
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
        enumerated = Counter(tuple(sorted(nt.valences())) for nt in enumerate_stable_trees(n))
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
    assert len(gerby_markings(CATERPILLAR4, z2)) == 32
    z3 = build_cyclic(3)
    assert len(gerby_markings(STAR4, z3)) == 81


def test_admissibility_pairs_the_edge_ends():
    # Over C3 the edge mark 2 sits at the far end, with leaves 3, 4 (2 + 2 + 2),
    # and the root reads its inverse 1 at the near end (1 + 1 + 1).  Reading 2
    # at both ends would give the root 1 + 1 + 2 and reject these marks.
    z3 = build_cyclic(3)
    assert z3.conj.involution[2] == 1
    assert is_admissible(z3, CATERPILLAR4, (1, 1, 2, 2, 2))
    assert not is_admissible(z3, CATERPILLAR4, (1, 1, 2, 2, 1))


def test_admissibility_z2_star():
    z2 = build_cyclic(2)
    admissible = [marks for marks in gerby_markings(STAR4, z2) if is_admissible(z2, STAR4, marks)]
    # Exactly the even-weight leaf markings.
    assert len(admissible) == 8
    for marks in admissible:
        assert sum(marks) % 2 == 0


def test_admissibility_counts_z2_n4():
    z2 = build_cyclic(2)
    total = 0
    for nt in enumerate_stable_trees(4):
        total += sum(1 for marks in gerby_markings(nt, z2) if is_admissible(z2, nt, marks))
    assert total == 32


def test_admissibility_rejects_nonabelian():
    s3 = build_symmetric(3)
    with pytest.raises(UnsupportedNonabelian):
        is_admissible(s3, STAR4, (0, 0, 0, 0))


def test_stratum_class_values():
    z2 = build_cyclic(2)
    assert stratum_class(z2, STAR4, (0, 0, 1, 1)) == MotivePoly.of([-2, 1])
    assert stratum_class(z2, STAR4, (1, 0, 0, 0)) == ZERO
    assert stratum_class(z2, CATERPILLAR4, (0, 0, 0, 0, 0)) == ONE
    assert stratum_class_of_topology((4,)) == MotivePoly.of([-2, 1])
    assert stratum_class_of_topology((3, 3)) == ONE
    assert stratum_class_of_topology((3, 4)) == MotivePoly.of([-2, 1])


def test_stratum_class_matches_topology_shortcut():
    v4 = build_product_cyclic([2, 2])
    for nt in enumerate_stable_trees(4):
        for marks in gerby_markings(nt, v4):
            cls = stratum_class(v4, nt, marks)
            if is_admissible(v4, nt, marks):
                assert cls == stratum_class_of_topology(nt.valences())
            else:
                assert cls == ZERO
