"""Group construction, validation, and conjugacy data."""

from __future__ import annotations

import gc
import itertools
import math
import time
import tracemalloc
import weakref

import pytest

from covermotive import Calculator
from covermotive.errors import MalformedSpec, NotAGroup
from covermotive.groups import (
    MAX_ORDER,
    build_cyclic,
    build_dihedral,
    build_from_permutations,
    build_group,
    build_product_cyclic,
    build_symmetric,
    class_order,
)


def test_cyclic_basics():
    for k in range(1, 9):
        g = build_cyclic(k)
        assert g.order == k
        assert g.identity == 0
        for a in range(k):
            assert g.table[a][g.inverse[a]] == g.identity
    # Groups compare and hash by identity, their class tables by value.
    c3, again = build_cyclic(3), build_cyclic(3)
    assert c3 == c3 and c3 != again and len({c3, again}) == 2
    assert c3.conj == again.conj


def test_cyclic_element_orders():
    g = build_cyclic(6)
    assert [g.element_order(a) for a in range(6)] == [1, 6, 3, 2, 3, 6]


def test_product_cyclic_klein_four():
    g = build_product_cyclic([2, 2])
    assert g.order == 4
    assert g.name == "C2xC2"
    assert all(g.element_order(a) == 2 for a in range(1, 4))


def test_product_cyclic_skips_trivial_factors():
    # A factor of 1 adds no digit, so a long list of them costs only its length.
    start = time.perf_counter()
    g = build_product_cyclic([1] * 100_000 + [5])
    assert time.perf_counter() - start < 1
    assert g.table == build_cyclic(5).table
    h = build_product_cyclic([2, 1, 3])
    assert h.name == "C2xC1xC3"
    assert h.table == build_product_cyclic([2, 3]).table


def test_product_cyclic_refusal_names_one_factor():
    # The refusal names the first bad factor, so its length does not grow with the list.
    with pytest.raises(MalformedSpec) as exc:
        build_product_cyclic([1] * 100_000 + [0])
    assert str(exc.value) == "cyclic factor 100001 of 100001 must be positive, got 0"
    assert len(str(exc.value)) < 200
    with pytest.raises(MalformedSpec, match="factor 2 of 3 must be positive, got -2"):
        build_product_cyclic([3, -2, 0])


def test_dropped_group_is_freed():
    # The class table lives on the group, so no process-wide cache keeps a
    # group alive once its last holder drops it.
    group = build_cyclic(7)
    assert group.conj.count == 7
    calc = Calculator(group)
    ref = weakref.ref(group)
    del group, calc
    gc.collect()
    assert ref() is None


def test_dihedral():
    g = build_dihedral(4)
    assert g.order == 8
    # D3 is S3 in disguise: class sizes 1, 2, 3.
    assert build_dihedral(3).conj.sizes == (1, 2, 3)


def test_is_abelian_agrees_with_the_commutativity_scan():
    # is_abelian reads the class count: a group is abelian exactly when every
    # conjugacy class is a single element.  The scan compares every pair.
    s3 = build_symmetric(3)
    perm = [3, 5, 0, 1, 4, 2]  # moves the identity off 0
    relabelled = [[0] * 6 for _ in range(6)]
    for a, row in enumerate(s3.table):
        for b, ab in enumerate(row):
            relabelled[perm[a]][perm[b]] = perm[ab]
    cases = [
        *((build_cyclic(k), True) for k in range(1, 7)),
        *((build_dihedral(k), k <= 2) for k in range(1, 6)),  # D1 is C2, D2 the Klein four group
        *((build_symmetric(k), k <= 2) for k in range(1, 5)),
        (build_product_cyclic([2, 2]), True),
        (build_product_cyclic([2, 3]), True),
        (build_from_permutations([[1, 2, 0, 3], [1, 0, 3, 2]]), False),  # A4
        (build_group({"cayley": relabelled}), False),  # S3 relabelled
    ]
    for g, abelian in cases:
        t = g.table
        scan = all(t[a][b] == t[b][a] for a in range(g.order) for b in range(g.order))
        assert g.is_abelian() == scan == abelian, g.name


def test_symmetric_conjugacy_data():
    s3 = build_symmetric(3)
    assert s3.order == 6
    conj = s3.conj
    assert conj.sizes == (1, 3, 2)
    assert [class_order(s3, c) for c in range(conj.count)] == [1, 2, 3]
    # Every class of S3 contains the inverses of its members.
    assert conj.involution == (0, 1, 2)

    s4 = build_symmetric(4)
    conj4 = s4.conj
    assert conj4.count == 5
    assert sorted(conj4.sizes) == [1, 3, 6, 6, 8]
    assert sum(conj4.sizes) == 24


def test_class_ids_ordered_by_smallest_element():
    conj = build_symmetric(4).conj
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
    c5 = build_cyclic(5)
    a4 = build_from_permutations([[1, 2, 0, 3], [1, 0, 3, 2]])
    for g in (c5, a4):
        conj = g.conj
        iota = conj.involution
        for c in range(conj.count):
            assert iota[iota[c]] == c
            for m in conj.members[c]:
                assert conj.class_of[g.inverse[m]] == iota[c]
    # C5: classes are singletons {a}, inverse pairing is a <-> 5 - a.
    assert c5.conj.involution == (0, 4, 3, 2, 1)
    # A4: the two classes of 3-cycles are each other's inverses.
    assert a4.conj.sizes == (1, 4, 4, 3)
    assert a4.conj.involution == (0, 2, 1, 3)


def test_conjugation_invariance_of_class_map():
    g = build_symmetric(3)
    conj = g.conj
    for a in range(6):
        for h in range(6):
            b = g.table[g.table[h][a]][g.inverse[h]]
            assert conj.class_of[a] == conj.class_of[b]


def test_build_from_permutations_generates_s3():
    g = build_from_permutations([[1, 0, 2], [1, 2, 0]])
    assert g.order == 6
    assert g.conj.sizes == (1, 3, 2)


def test_build_from_permutations_drops_fixed_points():
    # Points that no generator moves cost one scan each, not a slot in every
    # product of the closure.  The moved points cost a slot in each product
    # of an element by a generator, and each table entry costs one lookup,
    # so 40 disjoint 255-cycles in one generator (10,200 moved points) fit
    # the same bound; composing two whole permutations per table entry took
    # 23 s on them.
    padded = [*range(1, 255), 0, *range(255, 20_000)]
    wide = [b * 255 + (a + 1) % 255 for b in range(40) for a in range(255)]
    for cycle in (padded, wide):
        start = time.perf_counter()
        g = build_from_permutations([cycle])
        assert time.perf_counter() - start < 5
        assert g.name == "perm<255>"
        assert g.table == build_cyclic(255).table
    # Relabelling the moved points in increasing order keeps the sorted
    # element order: a 5-cycle on the even points of nine has the table of its
    # powers as 9-tuples in sorted order (the reversed relabelling changes it).
    spread = (2, 1, 4, 3, 8, 5, 0, 7, 6)
    powers = [tuple(range(9))]
    while len(powers) < 5:
        powers.append(tuple(powers[-1][x] for x in spread))
    elements = sorted(powers)
    want = tuple(tuple(elements.index(tuple(p[x] for x in q)) for q in elements) for p in elements)
    assert build_from_permutations([list(spread)]).table == want


def test_build_from_permutations_rejects_bad_input():
    with pytest.raises(MalformedSpec):
        build_from_permutations([])
    with pytest.raises(MalformedSpec):
        build_from_permutations([[0, 0, 1]])
    with pytest.raises(MalformedSpec):
        build_from_permutations([[1, 0], [0, 1, 2]])


def test_cayley_validation_catches_broken_tables():
    # Valid: Z/2.
    g = build_group({"cayley": [[0, 1], [1, 0]]})
    assert g.order == 2

    # No identity: both rows send 0 to 1.
    with pytest.raises(NotAGroup):
        build_group({"cayley": [[1, 0], [1, 0]]})

    # Associativity failure: a quasigroup table with a unit but
    # (1*1)*2 = 0*2 = 2 while 1*(1*2) = 1*0 = 1.
    with pytest.raises(NotAGroup) as exc:
        build_group({"cayley": [[0, 1, 2], [1, 0, 0], [2, 0, 1]]})
    assert str(exc.value) == "associativity fails at (1, 1, 2): (1*1)*2 = 2 but 1*(1*2) = 1"

    # Shape and range errors are malformed specs, not group failures.
    with pytest.raises(MalformedSpec):
        build_group({"cayley": [[0, 1]]})
    with pytest.raises(MalformedSpec):
        build_group({"cayley": [[0, 7], [7, 0]]})
    with pytest.raises(MalformedSpec):
        build_group({"cayley": []})


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
        build_group({"cayley": loop})
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


# Each builtin family's multiplication table from its arithmetic, the
# reference that its built table must equal entry by entry, element
# numbering included.
def _cyclic_table(k):
    return [[(a + b) % k for b in range(k)] for a in range(k)]


def _product_table(ks):
    big = [k for k in ks if k > 1]
    strides = [math.prod(big[:i]) for i in range(len(big))]
    digits = [[i // s % k for s, k in zip(strides, big)] for i in range(math.prod(big))]
    return [
        [sum((x + y) % k * s for x, y, k, s in zip(da, db, big, strides)) for db in digits]
        for da in digits
    ]


def _dihedral_table(k):
    # (s^e1 r^r1)(s^e2 r^r2) = s^(e1+e2) r^(r2 +- r1)
    def times(a, b):
        (e1, r1), (e2, r2) = divmod(a, k), divmod(b, k)
        return (e1 + e2) % 2 * k + ((r2 - r1) if e2 else (r1 + r2)) % k
    return [[times(a, b) for b in range(2 * k)] for a in range(2 * k)]


def _symmetric_table(k):
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]


def _factor_lists(most):
    """Every ordered list of two or more factors above 1 with product at most most."""
    lists = [[k] for k in range(2, most + 1)]
    for ks in lists:  # grows while the loop reads it
        lists += ([*ks, k] for k in range(2, most // math.prod(ks) + 1))
    return [ks for ks in lists if len(ks) > 1]


def test_builtin_tables_match_their_formulas():
    # The closed-form tests pass under any relabelling of the elements; this
    # one pins every entry of each builtin's table.
    cases = [
        *((build_cyclic(k), _cyclic_table(k)) for k in [*range(1, 33), 255]),
        *((build_dihedral(k), _dihedral_table(k)) for k in [*range(1, 17), 127]),
        *((build_product_cyclic(ks), _product_table(ks))
          for ks in [*_factor_lists(32), [3, 5, 17], [2] * 7, [2, 1, 3]]),
        *((build_symmetric(k), _symmetric_table(k)) for k in range(1, 6)),
    ]
    for g, table in cases:
        assert g.table == tuple(map(tuple, table)), g.name


def test_order_cap():
    # Each order is refused before a table or a permutation list is built, so
    # refusing stays small however far past the cap the request is.
    for build, arg in (
        (build_cyclic, MAX_ORDER + 1),
        (build_cyclic, 2000),
        (build_product_cyclic, [16, 16]),
        (build_product_cyclic, [10000] * 1100),
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
