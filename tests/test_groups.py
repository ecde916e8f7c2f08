"""Group construction, validation, and conjugacy data."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest

from covermotive.errors import MalformedSpec, NotAGroup
from covermotive.groups import (
    MAX_ORDER,
    build_cyclic,
    build_dihedral,
    build_from_cayley,
    build_from_permutations,
    build_group,
    build_product_cyclic,
    build_symmetric,
    class_involution,
    class_order,
    conjugacy_classes,
)


def test_cyclic_basics():
    for k in range(1, 9):
        g = build_cyclic(k)
        assert g.order == k
        assert g.identity == 0
        assert g.is_abelian()
        for a in range(k):
            assert g.mul(a, g.inv(a)) == g.identity


def test_cyclic_element_orders():
    g = build_cyclic(6)
    assert [g.element_order(a) for a in range(6)] == [1, 6, 3, 2, 3, 6]


def test_product_cyclic_klein_four():
    g = build_product_cyclic([2, 2])
    assert g.order == 4
    assert g.is_abelian()
    assert g.name == "C2xC2"
    assert all(g.element_order(a) == 2 for a in range(1, 4))


def test_dihedral():
    g = build_dihedral(4)
    assert g.order == 8
    assert not g.is_abelian()
    # D2 is the Klein four group.
    assert build_dihedral(2).is_abelian()
    # D3 is S3 in disguise: class sizes 1, 2, 3.
    assert conjugacy_classes(build_dihedral(3)).sizes == (1, 2, 3)


def test_symmetric_conjugacy_data():
    s3 = build_symmetric(3)
    assert s3.order == 6
    assert not s3.is_abelian()
    conj = conjugacy_classes(s3)
    assert conj.sizes == (1, 3, 2)
    assert [class_order(s3, c) for c in range(conj.count)] == [1, 2, 3]
    # Every class of S3 contains the inverses of its members.
    iota = class_involution(s3)
    assert iota.mapping == (0, 1, 2)

    s4 = build_symmetric(4)
    conj4 = conjugacy_classes(s4)
    assert conj4.count == 5
    assert sorted(conj4.sizes) == [1, 3, 6, 6, 8]
    assert sum(conj4.sizes) == 24


def test_class_ids_ordered_by_smallest_element():
    conj = conjugacy_classes(build_symmetric(4))
    seen = []
    for g in range(24):
        c = conj.class_of[g]
        if c not in seen:
            seen.append(c)
    assert seen == list(range(conj.count))
    for c, rep in enumerate(conj.representatives):
        assert conj.class_of[rep] == c
        assert rep == min(g for g in range(24) if conj.class_of[g] == c)


def test_involution_pairs_inverse_classes():
    g = build_cyclic(5)
    conj = conjugacy_classes(g)
    iota = class_involution(g)
    for c in range(conj.count):
        assert iota(iota(c)) == c
        rep = conj.representatives[c]
        assert conj.class_of[g.inv(rep)] == iota(c)
    # C5: classes are singletons {a}, inverse pairing is a <-> 5 - a.
    assert iota.mapping == (0, 4, 3, 2, 1)


def test_conjugation_invariance_of_class_map():
    g = build_symmetric(3)
    conj = conjugacy_classes(g)
    for a in range(6):
        for h in range(6):
            b = g.mul(g.mul(h, a), g.inv(h))
            assert conj.class_of[a] == conj.class_of[b]


def test_build_from_permutations_generates_s3():
    g = build_from_permutations([[1, 0, 2], [1, 2, 0]])
    assert g.order == 6
    assert not g.is_abelian()
    assert conjugacy_classes(g).sizes == (1, 3, 2)


def test_build_from_permutations_rejects_bad_input():
    with pytest.raises(MalformedSpec):
        build_from_permutations([])
    with pytest.raises(MalformedSpec):
        build_from_permutations([[0, 0, 1]])
    with pytest.raises(MalformedSpec):
        build_from_permutations([[1, 0], [0, 1, 2]])


def test_cayley_validation_catches_broken_tables():
    # Valid: Z/2.
    g = build_from_cayley([[0, 1], [1, 0]])
    assert g.order == 2

    # No identity: both rows send 0 to 1.
    with pytest.raises(NotAGroup):
        build_from_cayley([[1, 0], [1, 0]])

    # Associativity failure: a quasigroup table with a unit but
    # (1*1)*2 = 0*2 = 2 while 1*(1*2) = 1*0 = 1.
    with pytest.raises(NotAGroup) as exc:
        build_from_cayley([[0, 1, 2], [1, 0, 0], [2, 0, 1]])
    assert str(exc.value) == "associativity fails at (1, 1, 2): (1*1)*2 = 2 but 1*(1*2) = 1"

    # Shape and range errors are malformed specs, not group failures.
    with pytest.raises(MalformedSpec):
        build_from_cayley([[0, 1]])
    with pytest.raises(MalformedSpec):
        build_from_cayley([[0, 7], [7, 0]])
    with pytest.raises(MalformedSpec):
        build_from_cayley([])


def test_associativity_checks_every_generator():
    # A loop of order 6: two-sided identity 0 and two-sided inverses, but not
    # associative.  Its greedy generators are 1 and 2; (xs)y = x(sy) holds
    # for every x, y when s = 1 and fails only when s = 2, so a check of the
    # first generator alone would accept it.
    loop = [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 3, 2, 5, 4],
        [2, 3, 4, 5, 0, 1],
        [3, 2, 5, 4, 1, 0],
        [4, 5, 0, 1, 3, 2],
        [5, 4, 1, 0, 2, 3],
    ]
    with pytest.raises(NotAGroup) as exc:
        build_from_cayley(loop)
    assert str(exc.value) == "associativity fails at (2, 2, 4): (2*2)*4 = 3 but 2*(2*4) = 2"


def test_largest_builtins_keep_identity_and_inverses():
    c255 = build_cyclic(255)
    assert (c255.order, c255.identity) == (255, 0)
    assert c255.inverse == tuple(-a % 255 for a in range(255))

    # Element a0 + 3*a1 + 15*a2 is (a0, a1, a2) in C3 x C5 x C17.
    p = build_product_cyclic([3, 5, 17])
    assert (p.order, p.identity) == (255, 0)
    assert p.inverse == tuple(
        -a % 3 + 3 * (-(a // 3) % 5) + 15 * (-(a // 15) % 17) for a in range(255)
    )

    # Element e*127 + r is reflection^e * rotation^r; reflections are involutions.
    d = build_dihedral(127)
    assert (d.order, d.identity) == (254, 0)
    assert d.inverse == tuple(-r % 127 for r in range(127)) + tuple(range(127, 254))

    s5 = build_symmetric(5)
    perms = sorted(itertools.permutations(range(5)))
    assert (s5.order, s5.identity) == (120, 0)
    assert s5.inverse == tuple(
        perms.index(tuple(sorted(range(5), key=p.__getitem__))) for p in perms
    )


def test_order_cap():
    # Each order is refused before a table or a permutation list is built, so
    # refusing stays small however far past the cap the request is.
    for build, arg in (
        (build_cyclic, MAX_ORDER + 1),
        (build_cyclic, 2000),
        (build_product_cyclic, [16, 16]),
        (build_dihedral, 128),
        (build_symmetric, 6),
        (build_symmetric, 9),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(MalformedSpec, match=f"exceeds the supported maximum {MAX_ORDER}"):
                build(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (build.__name__, arg, peak)


def test_build_group_dispatch():
    assert build_group({"builtin": {"kind": "cyclic", "params": [3]}}).order == 3
    assert build_group({"cayley": [[0, 1], [1, 0]]}).order == 2
    assert build_group({"permutations": [[1, 0]]}).order == 2
    with pytest.raises(MalformedSpec):
        build_group({})
    with pytest.raises(MalformedSpec):
        build_group({"builtin": {"kind": "cyclic", "params": [3]}, "cayley": [[0]]})
    with pytest.raises(MalformedSpec):
        build_group({"builtin": {"kind": "quaternion", "params": [8]}})
    with pytest.raises(MalformedSpec):
        build_group({"builtin": {"kind": "cyclic", "params": [1, 2]}})
    with pytest.raises(MalformedSpec):
        build_group("cyclic:3")
