"""Anchors of the brute-force oracles: values worked by hand.

The oracles in oracles.py are compared with the program in the tests of the
modules they check.  Here each is tied to counts known independently of it:
the prime-field point counts, Cayley's v^(v-2) labeled trees under the
stable-tree oracle, and that oracle's first counts of stable trees.
"""

from __future__ import annotations

from oracles import _labeled_trees, brute_force_m0n_count, brute_force_tree_count


def test_m0n_count_small():
    # n = 3 is a single configuration: all points pinned.
    assert brute_force_m0n_count(3, 5) == 1
    # n = 4: one free coordinate avoiding 0 and 1.
    assert brute_force_m0n_count(4, 5) == 3
    assert brute_force_m0n_count(4, 7) == 5
    # n = 5: ordered pairs of distinct allowed values.
    assert brute_force_m0n_count(5, 7) == 20
    assert brute_force_m0n_count(6, 5) == 6


def test_labeled_trees_cayley_counts():
    # v^(v-2) labeled trees on v vertices.
    for v, count in ((1, 1), (2, 1), (3, 3), (4, 16)):
        assert len(_labeled_trees(v)) == count
    # Each result really is a tree: v - 1 edges, all endpoints in range.
    for v in range(2, 5):
        for edges in _labeled_trees(v):
            assert len(edges) == v - 1
            assert all(0 <= a < b < v for a, b in edges)


def test_labeled_trees_distinct():
    trees = _labeled_trees(4)
    assert len(set(trees)) == 16


def test_tree_count_small():
    # 1, 4, 26 stable trees for n = 3, 4, 5.
    assert [brute_force_tree_count(n) for n in (3, 4, 5)] == [1, 4, 26]
