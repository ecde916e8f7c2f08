"""Product-one tuples, braid orbits and per-class counts of covermotive.hurwitz.

braid_orbits reports each orbit by its least member and size.  It is compared
with the two-sided reference closure, with Burnside's count of conjugation
classes and with the classical orbit counts of hurwitz_oracle.py; where a test
reads an orbit's members, it rebuilds them from the least member with the
oracle's braid move.  The braid relations and the abelian transposition
anchor that move, and the conjugation helpers are anchored to the conjugated
product.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from covermotive.groups import (
    build_cyclic,
    build_dihedral,
    build_group,
    build_product_cyclic,
    build_symmetric,
)
from covermotive.hurwitz import braid_orbits, enumerate_hurwitz, nielsen_count
from hurwitz_oracle import (
    braid_generator,
    canonical_under_conjugation,
    conjugate_vector,
    conjugation_class_count,
    generated_subgroup,
    generating_tuples,
    reference_orbits,
)


def _product(group, v):
    acc = group.identity
    for g in v:
        acc = group.table[acc][g]
    return acc


def _members(group, least, mod=False):
    """The orbit of least, closed under braid_generator alone.

    A finite orbit of a permutation needs no inverse moves.  Mod conjugation
    every image is read through the oracle's canonical form.
    """
    normalize = (lambda v: canonical_under_conjugation(group, v)) if mod else (lambda v: v)
    reached = {least}
    frontier = [least]
    while frontier:
        v = frontier.pop()
        for i in range(1, len(v)):
            w = normalize(braid_generator(group, v, i))
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    return reached


SMALL_GROUPS = [build_cyclic(k) for k in range(1, 9)] + [
    build_product_cyclic([2, 2]),
    build_product_cyclic([2, 4]),
    build_product_cyclic([2, 2, 2]),
    build_dihedral(3),
    build_dihedral(4),
    build_symmetric(3),
]


def test_enumeration_count_and_product():
    for group in SMALL_GROUPS:
        for n in range(1, 7):
            vectors = enumerate_hurwitz(group, n)
            assert len(vectors) == group.order ** (n - 1)
            assert all(_product(group, v) == group.identity for v in vectors)
            assert vectors == sorted(vectors)


def test_enumeration_guards():
    s3 = build_symmetric(3)
    with pytest.raises(ValueError):
        enumerate_hurwitz(s3, 0)
    with pytest.raises(ValueError):
        braid_orbits(s3, 0)


def test_braid_generator_preserves_invariants():
    s3 = build_symmetric(3)
    conj = s3.conj
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
        assert _product(s3, w) == _product(s3, (h, _product(s3, v), s3.inverse[h]))
    canon = canonical_under_conjugation(s3, v)
    assert canon <= v
    assert canonical_under_conjugation(s3, canon) == canon


def test_orbits_z2_n4():
    g = build_cyclic(2)
    orbits = braid_orbits(g, 4)
    assert orbits == [((0, 0, 0, 0), 1), ((0, 0, 1, 1), 6), ((1, 1, 1, 1), 1)]
    # Abelian braid moves permute entries, so orbits are multiset classes.
    for least, _ in orbits:
        assert {tuple(sorted(v)) for v in _members(g, least)} == {tuple(sorted(least))}


def test_orbits_s3():
    s3 = build_symmetric(3)
    assert sorted(size for _, size in braid_orbits(s3, 3)) == [1, 1, 1, 3, 3, 3, 6, 18]
    assert [size for _, size in braid_orbits(s3, 3, True)] == [1, 3, 3, 3, 1]


def test_orbit_partition_properties():
    s3 = build_symmetric(3)
    orbits = [_members(s3, least) for least, _ in braid_orbits(s3, 3)]
    flat = [v for o in orbits for v in o]
    assert sorted(flat) == enumerate_hurwitz(s3, 3)
    assert len(set(flat)) == len(flat)


def test_orbits_idempotent_and_schedule_independent():
    s3 = build_symmetric(3)
    orbits = braid_orbits(s3, 4)
    assert braid_orbits(s3, 4) == orbits
    # Closing from any member, not only the least, gives the reported orbit.
    rng = random.Random(11)
    for least, size in orbits:
        member = rng.choice(sorted(_members(s3, least)))
        reached = _members(s3, member)
        assert (min(reached), len(reached)) == (least, size)


def test_orbits_mod_conjugation_commutes_with_closure():
    # Quotient of the full-orbit partition equals the partition of quotients,
    # with the quotient taken by the slow oracle.  D4 has a centre of order 2.
    for group, n in ((build_symmetric(3), 3), (build_symmetric(3), 5), (build_dihedral(4), 5)):
        merged: dict[tuple, set] = {}
        for least, _ in braid_orbits(group, n):
            classes = {canonical_under_conjugation(group, v) for v in _members(group, least)}
            merged.setdefault(min(classes), set()).update(classes)
        got = braid_orbits(group, n, mod_conjugation=True)
        assert sorted((min(s), len(s)) for s in merged.values()) == got


def test_orbits_are_single_orbits_of_the_public_move():
    # Each orbit, rebuilt from its least member by braid_generator alone, has
    # that least member and the reported size, and the rebuilt orbits cover
    # every tuple (mod conjugation, every class) once.
    for group, n in ((build_symmetric(3), 4), (build_dihedral(4), 4)):
        for mod in (False, True):
            covered = []
            for least, size in braid_orbits(group, n, mod_conjugation=mod):
                members = _members(group, least, mod)
                assert (min(members), len(members)) == (least, size)
                covered += members
            vectors = enumerate_hurwitz(group, n)
            if mod:
                vectors = {canonical_under_conjugation(group, v) for v in vectors}
            assert sorted(covered) == sorted(vectors)


@pytest.mark.parametrize(
    "group, n",
    [(build_symmetric(3), 5), (build_dihedral(4), 5), (build_dihedral(5), 5), (build_cyclic(6), 5)],
    ids=["S3", "D4", "D5", "C6"],
)
@pytest.mark.parametrize("mod", [False, True], ids=["plain", "mod-conj"])
def test_orbits_match_two_sided_reference(group, n, mod):
    # The reference closes under sigma_i and sigma_i^{-1}, built one product
    # at a time, and canonicalizes by the slow oracle.
    reference = reference_orbits(group, enumerate_hurwitz(group, n), mod)
    assert braid_orbits(group, n, mod) == [(o[0], len(o)) for o in reference]


def test_small_cyclic_orbits_match_two_sided_reference():
    # The degenerate index: one digit weight or none, and C1's single tuple.
    for k, n, mod in itertools.product((1, 2, 3), (1, 2, 3, 4), (False, True)):
        group = build_cyclic(k)
        reference = reference_orbits(group, enumerate_hurwitz(group, n), mod)
        assert braid_orbits(group, n, mod) == [(o[0], len(o)) for o in reference]


# Nonabelian groups by name, with the order of their centres.  Q8, D4 x C2
# and A4 are reached only by a "permutations" spec: Q8 by left
# multiplication by i and j on the points s 4 + u, the sign s and the unit u
# of 1, i, j, k; D4 x C2 on 4 + 2 points.
NONABELIAN = {
    "S3": (build_symmetric(3), 1),
    "D4": (build_dihedral(4), 2),
    "Q8": (build_group({"permutations": [[1, 4, 3, 6, 5, 0, 7, 2], [2, 7, 4, 1, 6, 3, 0, 5]]}), 2),
    "D4xC2": (
        build_group({"permutations": [[1, 2, 3, 0, 4, 5], [0, 3, 2, 1, 4, 5], [0, 1, 2, 3, 5, 4]]}),
        4,
    ),
    "A4": (build_group({"permutations": [[1, 2, 0, 3], [1, 0, 3, 2]]}), 1),
}


@pytest.mark.parametrize("name", NONABELIAN)
def test_small_nonabelian_orbits_match_two_sided_reference(name):
    # sigma_{n-1} reads the product of the first n - 2 entries: none at n = 2,
    # one at n = 3.  Only a nonabelian group tells a b a^{-1} from b there.
    # Mod conjugation the sizes come from stabilisers, |O| s / S, and each
    # class keeps the least of its conjugate orbits; a centre larger than the
    # identity makes s and S count maps, not elements.
    group, centre = NONABELIAN[name]
    assert not group.is_abelian() and group.conj.sizes.count(1) == centre
    for n, mod in itertools.product(range(1, 6), (False, True)):
        reference = reference_orbits(group, enumerate_hurwitz(group, n), mod)
        expected = [(o[0], len(o)) for o in reference]
        assert braid_orbits(group, n, mod) == expected, (n, mod)


def test_orbit_sizes_partition_the_tuples():
    # Plain orbits partition the order^(n-1) tuples; mod conjugation they
    # partition the conjugation classes of tuples, counted by Burnside.
    for group, n in itertools.product(SMALL_GROUPS, range(1, 5)):
        assert sum(size for _, size in braid_orbits(group, n)) == group.order ** (n - 1)
        classes = conjugation_class_count(group, enumerate_hurwitz(group, n))
        assert sum(size for _, size in braid_orbits(group, n, True)) == classes


def test_abelian_orbits_ignore_conjugation():
    # Every conjugation map of an abelian group is the identity, so mod
    # conjugation each tuple is its own class and the orbits are the plain ones.
    groups = [build_cyclic(k) for k in range(1, 7)] + [build_product_cyclic([2, 2])]
    for group, n in itertools.product(groups, range(1, 5)):
        assert braid_orbits(group, n, True) == braid_orbits(group, n)


def test_orbits_hold_no_tuple_list():
    # The closure holds the ids and member indices of the levels below the
    # top, a byte per top block, one orbit's stack of blocks and a least
    # index and size per orbit; mod conjugation adds an id per top block.
    # That read 0.05 MiB of traced peak for these 10^4 tuples in both modes;
    # listing the tuples and closing over sets of them peaked at 2.2 MiB.
    # n = 6 shows the same (0.48 MiB in both modes, against 22.4 MiB) but
    # runs ten times longer under tracemalloc.
    group = build_dihedral(5)
    for mod in (False, True):
        tracemalloc.start()
        try:
            braid_orbits(group, 5, mod)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 * 4 // 10, mod


@pytest.mark.parametrize(
    "group, n",
    [(build_symmetric(3), 3), (build_symmetric(3), 4), (build_dihedral(4), 4), (build_dihedral(4), 5)],
    ids=["S3-3", "S3-4", "D4-4", "D4-5"],
)
@pytest.mark.parametrize("mod", [False, True], ids=["plain", "mod-conj"])
def test_orbit_invariants(group, n, mod):
    # Braid moves keep the product, the class multiset and the generated
    # subgroup; mod conjugation the subgroup is kept up to conjugacy.
    conj = group.conj

    def subgroup(v):
        sub = tuple(generated_subgroup(group, v))
        if not mod:
            return frozenset(sub)
        return min(tuple(sorted(conjugate_vector(group, h, sub))) for h in range(group.order))

    for least, _ in braid_orbits(group, n, mod_conjugation=mod):
        orbit = _members(group, least, mod)
        assert all(_product(group, v) == group.identity for v in orbit)
        assert len({tuple(sorted(conj.class_of[g] for g in v)) for v in orbit}) == 1
        assert len({subgroup(v) for v in orbit}) == 1


def _transpositions(group, d):
    conj = group.conj
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
    # tuples, about 5 s) is left out for time.  The tuples are one orbit of
    # the product-one tuples, so their least member names an orbit of that size.
    # S4 at n = 6 would scan 24^5 indices, too slow here: that row is checked
    # on the reference closure of the tuples alone.
    group = build_symmetric(d)
    tuples = generating_tuples(group, n, _transpositions(group, d))
    assert len(tuples) == count
    if group.order ** (n - 1) > 10**6:
        assert reference_orbits(group, tuples) == [sorted(tuples)]
    else:
        assert dict(braid_orbits(group, n))[min(tuples)] == len(tuples)


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
    # A braid move keeps generation and the class multiset, so an orbit holds
    # such tuples exactly when its least member is one.
    group = build_dihedral(k)
    conj = group.conj
    pool = [g for g in range(group.order) if g != group.identity]
    tuples = generating_tuples(group, n, pool)
    orbits = [
        (least, size) for least, size in braid_orbits(group, n, mod_conjugation=True)
        if group.identity not in least and len(generated_subgroup(group, least)) == group.order
    ]
    assert sum(size for _, size in orbits) == conjugation_class_count(group, tuples)
    multisets = {tuple(sorted(conj.class_of[g] for g in least)) for least, _ in orbits}
    assert len(multisets) == len(orbits) == types


def test_nielsen_count_abelian_is_indicator():
    g = build_product_cyclic([2, 2])
    conj = g.conj
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
    conj = s3.conj
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
