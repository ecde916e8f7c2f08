"""Product-one tuples, braid orbits and per-class counts of covermotive.hurwitz.

braid_orbits is compared with the two-sided reference closure and with the
classical orbit counts of hurwitz_oracle.py; the braid relations and the
abelian transposition anchor that oracle's braid move, and the conjugation
helpers are anchored to the conjugated product.
"""

from __future__ import annotations

import itertools
import random

import pytest

from covermotive.groups import (
    build_cyclic,
    build_dihedral,
    build_product_cyclic,
    build_symmetric,
    conjugacy_classes,
)
from covermotive.hurwitz import braid_orbits, enumerate_hurwitz, nielsen_count
from hurwitz_oracle import (
    braid_generator,
    canonical_under_conjugation,
    conjugate_vector,
    generated_subgroup,
    generating_tuples,
    reference_orbits,
)


def _product(group, v):
    acc = group.identity
    for g in v:
        acc = group.mul(acc, g)
    return acc


def test_enumeration_count_and_product():
    small_groups = [build_cyclic(k) for k in range(1, 9)] + [
        build_product_cyclic([2, 2]),
        build_product_cyclic([2, 4]),
        build_product_cyclic([2, 2, 2]),
        build_dihedral(3),
        build_dihedral(4),
        build_symmetric(3),
    ]
    for group in small_groups:
        for n in range(1, 7):
            vectors = enumerate_hurwitz(group, n)
            assert len(vectors) == group.order ** (n - 1)
            assert all(_product(group, v) == group.identity for v in vectors)
            assert vectors == sorted(vectors)


def test_enumeration_guards():
    s3 = build_symmetric(3)
    with pytest.raises(ValueError):
        enumerate_hurwitz(s3, 0)


def test_braid_generator_preserves_invariants():
    s3 = build_symmetric(3)
    conj = conjugacy_classes(s3)
    for v in enumerate_hurwitz(s3, 4):
        for i in (1, 2, 3):
            w = braid_generator(s3, v, i)
            assert _product(s3, w) == s3.identity
            assert sorted(conj.class_of[g] for g in w) == sorted(
                conj.class_of[g] for g in v
            )


def test_braid_relations_as_permutations():
    s3 = build_symmetric(3)
    vectors = enumerate_hurwitz(s3, 4)

    def apply(word, v):
        for i in word:
            v = braid_generator(s3, v, i)
        return v

    for i in (1, 2, 3):
        assert sorted(braid_generator(s3, v, i) for v in vectors) == vectors
    for v in vectors:
        # Adjacent: sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2, both shifts.
        assert apply((1, 2, 1), v) == apply((2, 1, 2), v)
        assert apply((2, 3, 2), v) == apply((3, 2, 3), v)
        # Distant generators commute.
        assert apply((1, 3), v) == apply((3, 1), v)


def test_abelian_braid_move_is_a_transposition():
    g = build_cyclic(4)
    v = (1, 2, 3, 2)
    assert braid_generator(g, v, 1) == (2, 1, 3, 2)
    assert braid_generator(g, v, 3) == (1, 2, 2, 3)


def test_conjugation_helpers():
    s3 = build_symmetric(3)
    v = (1, 2, 4)
    for h in range(6):
        w = conjugate_vector(s3, h, v)
        assert _product(s3, w) == s3.mul(s3.mul(h, _product(s3, v)), s3.inv(h))
    canon = canonical_under_conjugation(s3, v)
    assert canon <= v
    assert canonical_under_conjugation(s3, canon) == canon


def test_orbits_z2_n4():
    g = build_cyclic(2)
    orbits = braid_orbits(g, enumerate_hurwitz(g, 4))
    assert [len(o) for o in orbits] == [1, 6, 1]
    assert [o[0] for o in orbits] == [(0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)]
    # Abelian braid moves permute entries, so orbits are multiset classes.
    for orbit in orbits:
        assert {tuple(sorted(v)) for v in orbit} == {tuple(sorted(orbit[0]))}


def test_orbits_s3():
    s3 = build_symmetric(3)
    vectors = enumerate_hurwitz(s3, 3)
    plain = braid_orbits(s3, vectors)
    assert sorted(len(o) for o in plain) == [1, 1, 1, 3, 3, 3, 6, 18]
    mod = braid_orbits(s3, vectors, mod_conjugation=True)
    assert [len(o) for o in mod] == [1, 3, 3, 3, 1]


def test_orbit_partition_properties():
    s3 = build_symmetric(3)
    vectors = enumerate_hurwitz(s3, 3)
    orbits = braid_orbits(s3, vectors)
    flat = [v for o in orbits for v in o]
    assert sorted(flat) == sorted(vectors)
    assert len(set(flat)) == len(flat)


def test_orbits_idempotent_and_schedule_independent():
    s3 = build_symmetric(3)
    vectors = enumerate_hurwitz(s3, 4)
    orbits = braid_orbits(s3, vectors)
    # Feeding the flattened partition back reproduces it exactly.
    assert braid_orbits(s3, [v for o in orbits for v in o]) == orbits
    # Input order cannot matter.
    rng = random.Random(11)
    shuffled = list(vectors)
    for _ in range(3):
        rng.shuffle(shuffled)
        assert braid_orbits(s3, shuffled) == orbits
    # Each orbit is closed, so it is its own partition.
    for orbit in orbits[:4]:
        assert braid_orbits(s3, orbit) == [orbit]


def test_orbits_mod_conjugation_commutes_with_closure():
    # Quotient of the full-orbit partition equals the partition of quotients,
    # with the quotient taken by the slow oracle.  D4 has a centre of order 2.
    for group, n in ((build_symmetric(3), 3), (build_symmetric(3), 5), (build_dihedral(4), 5)):
        vectors = enumerate_hurwitz(group, n)
        plain = braid_orbits(group, vectors)
        collapsed = sorted(
            sorted({canonical_under_conjugation(group, v) for v in o}) for o in plain
        )
        merged: dict[tuple, set] = {}
        for o in collapsed:
            merged.setdefault(o[0], set()).update(o)
        got = braid_orbits(group, vectors, mod_conjugation=True)
        assert sorted(sorted(s) for s in merged.values()) == got


def test_orbits_are_single_orbits_of_the_public_move():
    # Every orbit is closed under braid_generator for each i, and is reached
    # from its least member by forward moves alone: a finite orbit of a
    # permutation needs no inverse moves.  Mod conjugation, the images are
    # read through the oracle's canonical form.
    for group, n in ((build_symmetric(3), 4), (build_dihedral(4), 4)):
        vectors = enumerate_hurwitz(group, n)
        for mod in (False, True):
            normalize = (
                (lambda v: canonical_under_conjugation(group, v)) if mod else (lambda v: v)
            )
            orbits = braid_orbits(group, vectors, mod_conjugation=mod)
            for orbit in orbits:
                members = set(orbit)
                reached = {orbit[0]}
                frontier = [orbit[0]]
                while frontier:
                    v = frontier.pop()
                    for i in range(1, n):
                        w = normalize(braid_generator(group, v, i))
                        assert w in members
                        if w not in reached:
                            reached.add(w)
                            frontier.append(w)
                assert reached == members


@pytest.mark.parametrize("group, n", [(build_symmetric(3), 5), (build_dihedral(4), 5)], ids=["S3", "D4"])
@pytest.mark.parametrize("mod", [False, True], ids=["plain", "mod-conj"])
def test_orbits_match_two_sided_reference(group, n, mod):
    # The reference closes under sigma_i and sigma_i^{-1}, built with
    # group.mul, and canonicalizes by the slow oracle.
    vectors = enumerate_hurwitz(group, n)
    assert braid_orbits(group, vectors, mod_conjugation=mod) == reference_orbits(group, vectors, mod)


@pytest.mark.parametrize(
    "group, n",
    [(build_symmetric(3), 3), (build_symmetric(3), 4), (build_dihedral(4), 4), (build_dihedral(4), 5)],
    ids=["S3-3", "S3-4", "D4-4", "D4-5"],
)
@pytest.mark.parametrize("mod", [False, True], ids=["plain", "mod-conj"])
def test_orbit_invariants(group, n, mod):
    # Braid moves keep the product, the class multiset and the generated
    # subgroup; mod conjugation the subgroup is kept up to conjugacy.
    conj = conjugacy_classes(group)

    def subgroup(v):
        sub = tuple(generated_subgroup(group, v))
        if not mod:
            return frozenset(sub)
        return min(tuple(sorted(conjugate_vector(group, h, sub))) for h in range(group.order))

    for orbit in braid_orbits(group, enumerate_hurwitz(group, n), mod_conjugation=mod):
        assert all(_product(group, v) == group.identity for v in orbit)
        assert len({tuple(sorted(conj.class_of[g] for g in v)) for v in orbit}) == 1
        assert len({subgroup(v) for v in orbit}) == 1


def _transpositions(group, d):
    conj = conjugacy_classes(group)
    return [
        g for g in range(group.order)
        if group.element_order(g) == 2 and conj.sizes[conj.class_of[g]] == d * (d - 1) // 2
    ]


@pytest.mark.parametrize("d, n, count", [(3, 4, 24), (3, 6, 240), (4, 6, 2880)])
def test_clebsch_hurwitz_single_orbit(d, n, count):
    # Clebsch (1873), Hurwitz (1891): the braid group acts transitively on the
    # generating product-one tuples of n transpositions in S_d.  At n = 2d - 2
    # (genus 0) the count is Hurwitz's d^(d-3) (2d-2)!; 240 is the Frobenius
    # count 3^6/6 * 2 = 243 less the 3 constant tuples.  S4 at n = 8 (131,040
    # tuples, about 5 s) is left out for time.
    group = build_symmetric(d)
    tuples = generating_tuples(group, n, _transpositions(group, d))
    assert len(tuples) == count
    assert braid_orbits(group, tuples) == [sorted(tuples)]


@pytest.mark.parametrize(
    "k, n, types",
    [(3, 4, 2), (3, 5, 2), (4, 4, 4), (4, 5, 7), (5, 4, 4), (5, 5, 6)],
)
def test_dihedral_one_orbit_per_class_multiset(k, n, types):
    # Generating product-one tuples of nonidentity elements of D_k: mod
    # simultaneous conjugation there is exactly one braid orbit per multiset
    # of conjugacy classes.  Catanese-Loenne-Perroni (2011) prove that the
    # space of dihedral covers of P^1 of a given numerical type is
    # irreducible; whether their equivalence is by inner or by all
    # automorphisms is not checked here, so the numbers of multisets are
    # pinned as regression values, not as that theorem.
    group = build_dihedral(k)
    conj = conjugacy_classes(group)
    pool = [g for g in range(group.order) if g != group.identity]
    orbits = braid_orbits(group, generating_tuples(group, n, pool), mod_conjugation=True)
    multisets = [{tuple(sorted(conj.class_of[g] for g in v)) for v in orbit} for orbit in orbits]
    assert all(len(m) == 1 for m in multisets)
    assert len({m.pop() for m in multisets}) == len(orbits) == types


def test_orbits_reject_non_closed_input():
    g = build_cyclic(2)
    with pytest.raises(ValueError):
        braid_orbits(g, [(0, 0, 1, 1)])


def test_orbits_mod_conjugation_reject_non_closed_input():
    s3 = build_symmetric(3)
    orbit = max(braid_orbits(s3, enumerate_hurwitz(s3, 3), mod_conjugation=True), key=len)
    assert len(orbit) == 3
    # A whole conjugation class of vectors, but only one of its braid images.
    v = orbit[0]
    with pytest.raises(ValueError):
        braid_orbits(s3, [conjugate_vector(s3, h, v) for h in range(6)], mod_conjugation=True)
    with pytest.raises(ValueError):
        braid_orbits(s3, orbit[1:], mod_conjugation=True)


def test_nielsen_count_abelian_is_indicator():
    g = build_product_cyclic([2, 2])
    conj = conjugacy_classes(g)
    assert conj.count == 4
    for cvec in itertools.product(range(4), repeat=3):
        expected = 1 if _product(g, cvec) == g.identity else 0
        assert nielsen_count(g, cvec) == expected


def test_nielsen_count_s3():
    s3 = build_symmetric(3)
    assert nielsen_count(s3, (1, 1, 1, 1)) == 27
    assert nielsen_count(s3, (2, 2, 2)) == 2
    assert nielsen_count(s3, (1, 1, 1, 0)) == 0
    # Cross-check against a raw product scan.
    conj = conjugacy_classes(s3)
    cvec = (1, 2, 1)
    members = [
        [g for g in range(6) if conj.class_of[g] == c] for c in cvec
    ]
    raw = sum(
        1
        for t in itertools.product(*members)
        if _product(s3, t) == s3.identity
    )
    assert nielsen_count(s3, cvec) == raw


def test_nielsen_count_guards():
    s3 = build_symmetric(3)
    with pytest.raises(ValueError):
        nielsen_count(s3, ())
