"""The brute-force oracles themselves get sanity checks: they pin everything else."""

from __future__ import annotations

import pytest

from oracles import (
    CapExceeded,
    PrimeField,
    _labeled_trees,
    brute_force_m0n_count,
    brute_force_tree_count,
)


def test_prime_field_validation():
    PrimeField(2)
    PrimeField(13)
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_m0n_count_small():
    # n = 3 is a single configuration: all points pinned.
    assert brute_force_m0n_count(3, 5) == 1
    # n = 4: one free coordinate avoiding 0 and 1.
    assert brute_force_m0n_count(4, 5) == 3
    assert brute_force_m0n_count(4, 7) == 5
    # n = 5: ordered pairs of distinct allowed values.
    assert brute_force_m0n_count(5, 7) == 20
    assert brute_force_m0n_count(6, 5) == 6


def test_m0n_count_guards():
    with pytest.raises(ValueError):
        brute_force_m0n_count(2, 5)
    with pytest.raises(CapExceeded):
        brute_force_m0n_count(9, 13, cap=10**3)


def test_labeled_trees_cayley_counts():
    # v^(v-2) labeled trees on v vertices.
    assert len(_labeled_trees(1)) == 1
    assert len(_labeled_trees(2)) == 1
    assert len(_labeled_trees(3)) == 3
    assert len(_labeled_trees(4)) == 16
    # Each result really is a tree: v - 1 edges, all endpoints in range.
    for v in range(2, 5):
        for edges in _labeled_trees(v):
            assert len(edges) == v - 1
            assert all(0 <= a < b < v for a, b in edges)


def test_labeled_trees_distinct():
    trees = _labeled_trees(4)
    assert len(set(trees)) == 16


def test_tree_count_small():
    assert brute_force_tree_count(3) == 1
    assert brute_force_tree_count(4) == 4
    assert brute_force_tree_count(5) == 26


def test_tree_count_guards():
    with pytest.raises(ValueError):
        brute_force_tree_count(2)
    with pytest.raises(CapExceeded):
        brute_force_tree_count(7)
