"""Finite groups as validated multiplication tables.

Elements are dense indices 0..order-1.  A group is an explicit Cayley table
or the closure of generating permutations on the points they move: a
"permutations" spec, S_k on k points, or another builtin family (cyclic,
products of cyclics, dihedral) acting on its own elements by left
multiplication, with the identity as point 0, so that element a's tuple starts
with a.  Every construction path runs the same axiom checks, so a FiniteGroup
in hand is always a group.  Groups compare and hash by identity.

Conjugacy classes get dense ids assigned in order of their smallest element
index, which makes every downstream enumeration deterministic.  A group
carries its conjugacy table, ``group.conj``, computed once when the group is
built and freed with it.  The table holds the class involution, which sends
the class of g to the class of g^{-1}; it is the shadow on classes of
inverting a root of unity, and it pairs up the two flags of a tree's edge.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import MalformedSpec, NotAGroup

MAX_ORDER = 255
SCHEMA = 1  # the one version of the group spec format


class ConjugacyTable(NamedTuple):
    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]  # each class's elements, ascending
    involution: tuple[int, ...]  # involution[c]: the class of the inverses of class c

    @property
    def count(self) -> int:  # the class count; it shadows tuple.count on purpose
        return len(self.representatives)


class FiniteGroup:
    def __init__(self, order: int, table: tuple[tuple[int, ...], ...], identity: int,
                 inverse: tuple[int, ...], name: str, conj: ConjugacyTable):
        self.order, self.table, self.identity = order, table, identity
        self.inverse, self.name, self.conj = inverse, name, conj

    def is_abelian(self) -> bool:
        return self.conj.count == self.order  # exactly when every class is one element

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k


def _generators(table: list[list[int]], identity: int) -> list[int]:
    """Greedy generating set: each element not yet reached from the identity
    by right multiplication with the chosen generators becomes one."""
    reached = [False] * len(table)
    reached[identity] = True
    gens: list[int] = []
    for g in range(len(table)):
        if reached[g]:
            continue
        gens.append(g)
        frontier = [x for x, r in enumerate(reached) if r]
        while frontier:
            nxt = []
            for x in frontier:
                row = table[x]
                for s in gens:
                    y = row[s]
                    if not reached[y]:
                        reached[y] = True
                        nxt.append(y)
            frontier = nxt
    return gens


def _light_holds(table: list[list[int]], s: int) -> bool:
    """(xs)y = x(sy) for all x and y."""
    col = table[s]
    return all(table[row[s]] == [row[v] for v in col] for row in table)


def _check_order(order: int) -> None:
    if order > MAX_ORDER:
        raise MalformedSpec(f"order {order} exceeds the supported maximum {MAX_ORDER}")


def _validate_table(table: list[list[int]], name: str) -> FiniteGroup:
    n = len(table)
    if n == 0:
        raise MalformedSpec("empty multiplication table")
    _check_order(n)
    for row in table:
        if len(row) != n:
            raise MalformedSpec("multiplication table is not square")
        for x in row:
            if not 0 <= x < n:
                raise MalformedSpec(f"table entry {x} out of range 0..{n - 1}")

    # Identity: a two-sided unit.
    identity = -1
    for e in range(n):
        if all(table[e][x] == x for x in range(n)) and all(table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity < 0:
        raise NotAGroup("no two-sided identity element")

    inverse = [-1] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == identity and table[b][a] == identity:
                inverse[a] = b
                break
        if inverse[a] < 0:
            raise NotAGroup(f"element {a} has no inverse")

    # Associativity by Light's test.  The elements s with (xs)y = x(sy) for
    # all x, y are closed under products and contain the identity, so it is
    # enough to test s on a generating set.
    if not all(_light_holds(table, s) for s in _generators(table, identity)):
        a, b, c = next(
            (a, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if table[table[a][b]][c] != table[a][table[b][c]]
        )
        raise NotAGroup(f"associativity fails at ({a}, {b}, {c}): "
                        f"({a}*{b})*{c} = {table[table[a][b]][c]} but "
                        f"{a}*({b}*{c}) = {table[a][table[b][c]]}")

    conj = conjugacy_classes(table, inverse)
    return FiniteGroup(n, tuple(map(tuple, table)), identity, tuple(inverse), name, conj)


def _permutation_group(gens: list[list[int]], name: str | None) -> FiniteGroup:
    """The group gens generate, numbered in the sorted order of its elements' tuples.

    a*b is x -> a[b[x]]; name None names it perm<order>.  The closure finds each
    new q as p*g_j for some p found before it, and a*q = (a*p)*g_j, so row a
    fills in discovery order with one lookup per entry.
    """
    # Drop the points every generator fixes and relabel the rest in increasing
    # order: that keeps the sorted element order, and so the table.
    moved = [x for x in range(len(gens[0])) if any(g[x] != x for g in gens)]
    label = {x: i for i, x in enumerate(moved)}
    gens = [tuple(label[g[x]] for x in moved) for g in gens]
    found = [tuple(range(len(moved)))]
    ids = {found[0]: 0}
    steps = []  # steps[q - 1] = (p, j): found[q] is found[p]*gens[j]
    right = [[] for _ in gens]  # right[j][p]: the id of found[p]*gens[j]
    for p, perm in enumerate(found):  # found grows while the loop reads it
        if len(found) > MAX_ORDER:
            raise MalformedSpec(f"closure exceeds the supported maximum {MAX_ORDER}")
        for j, g in enumerate(gens):
            q = tuple(perm[x] for x in g)
            i = ids.setdefault(q, len(found))
            if i == len(found):
                found.append(q)
                steps.append((p, j))
            right[j].append(i)
    rank = sorted(range(len(found)), key=found.__getitem__)  # the discovery ids in sorted order
    pos = sorted(range(len(rank)), key=rank.__getitem__)  # its inverse: each discovery id's number
    table = []
    for a in rank:
        row = [a]  # row[q]: the id of found[a]*found[q]
        for p, j in steps:
            row.append(right[j][row[p]])
        table.append([pos[row[d]] for d in rank])
    return _validate_table(table, name or f"perm<{len(table)}>")


def build_cyclic(k: int) -> FiniteGroup:
    if k < 1:
        raise MalformedSpec(f"cyclic order must be positive, got {k}")
    _check_order(k)
    return _permutation_group([[*range(1, k), 0]], f"C{k}")


def build_product_cyclic(ks: list[int]) -> FiniteGroup:
    if not ks:
        raise MalformedSpec("product_cyclic needs at least one cyclic factor")
    order = 1
    for i, k in enumerate(ks, 1):  # stop at the first bad factor or product past the cap
        if k < 1:
            raise MalformedSpec(f"cyclic factor {i} of {len(ks)} must be positive, got {k}")
        order *= k
        _check_order(order)
    big = [k for k in ks if k > 1]  # a factor of 1 adds a digit that is always 0
    strides = [math.prod(big[:i]) for i in range(len(big))]  # the first factor's digit is lowest
    gens = [[x + s - k * s * (x // s % k == k - 1) for x in range(order)]  # add 1 to one digit
            for s, k in zip(strides, big)]
    return _permutation_group(gens or [[0]], "x".join(f"C{k}" for k in ks))


def build_dihedral(k: int) -> FiniteGroup:
    """Symmetries of a regular k-gon, order 2k.

    Element e*k + a is s^e r^a (reflection s, rotation r).  They act from the
    left: r s^e r^a = s^e r^(a + 1 - 2e) and s s^e r^a = s^(1 - e) r^a.
    """
    if k < 1:
        raise MalformedSpec(f"dihedral parameter must be positive, got {k}")
    _check_order(2 * k)
    rotation = [e * k + (a + 1 - 2 * e) % k for e in (0, 1) for a in range(k)]
    return _permutation_group([rotation, [*range(k, 2 * k), *range(k)]], f"D{k}")


def build_symmetric(k: int) -> FiniteGroup:
    if k < 1:
        raise MalformedSpec(f"symmetric parameter must be positive, got {k}")
    # any() stops at the first i with i! > MAX_ORDER, so a large k costs nothing.
    if any(math.factorial(i) > MAX_ORDER for i in range(k + 1)):
        raise MalformedSpec(f"order {k}! exceeds the supported maximum {MAX_ORDER}")
    # The k-cycle and the transposition (0 1); S1 has no transposition.
    return _permutation_group([[*range(1, k), 0], [1, 0, *range(2, k)]][:k], f"S{k}")


def build_from_permutations(gens: list[list[int]]) -> FiniteGroup:
    if not gens:
        raise MalformedSpec("need at least one generating permutation")
    d = len(gens[0])
    for g in gens:
        if len(g) != d or sorted(g) != list(range(d)):
            raise MalformedSpec(f"{g!r} is not a permutation of 0..{d - 1}")
    return _permutation_group(gens, None)


# The builtin families that take one parameter; product_cyclic takes a list.
_ONE_PARAMETER = {"cyclic": build_cyclic, "dihedral": build_dihedral, "symmetric": build_symmetric}


def _integers(value, what: str) -> list[int]:
    """value if it is a list of ints and not bools (JSON true loads as an int subclass)."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise MalformedSpec(f"{what} must be a list of integers, got {value!r}")
    return value


def build_group(spec: dict) -> FiniteGroup:
    """Build a group from a specification mapping, as loaded from JSON.

    Exactly one of the keys "builtin", "cayley", "permutations" must be
    present, and no other key but an optional "schema", which must be the
    integer 1.  "builtin" maps to {"kind": ..., "params": [...]} with kind one
    of cyclic, product_cyclic, dihedral, symmetric, and no other key.  Every
    params list, Cayley row and permutation must hold integers only.
    """
    if not isinstance(spec, dict):
        raise MalformedSpec("group spec must be a mapping")
    schema = spec.get("schema", SCHEMA)
    if type(schema) is not int or schema != SCHEMA:  # JSON true loads as True == 1
        raise MalformedSpec(f"group spec schema must be {SCHEMA}, got {schema!r}")
    keys = [k for k in spec if k != "schema"]
    if len(keys) != 1 or keys[0] not in ("builtin", "cayley", "permutations"):
        raise MalformedSpec(
            f"spec must contain exactly one of builtin/cayley/permutations and no other key "
            f"but schema, got {keys}"
        )
    kind = keys[0]
    if kind != "builtin":
        if not isinstance(spec[kind], list):
            raise MalformedSpec(f"{kind} spec must be a list of integer lists")
        rows = [_integers(row, f"each entry of {kind}") for row in spec[kind]]
        if kind == "cayley":
            return _validate_table(rows, f"cayley<{len(rows)}>")
        return build_from_permutations(rows)

    builtin = spec["builtin"]
    if not isinstance(builtin, dict) or not isinstance(builtin.get("kind"), str):
        raise MalformedSpec("builtin spec must be a mapping with a string kind")
    stray = [k for k in builtin if k not in ("kind", "params")]
    if stray:
        raise MalformedSpec(f"builtin spec takes only kind and params, got {stray}")
    family = builtin["kind"]
    params = _integers(builtin.get("params", []), "builtin params")
    if family == "product_cyclic":
        return build_product_cyclic(params)
    if family not in _ONE_PARAMETER:
        raise MalformedSpec(f"unknown builtin family {family!r}")
    if len(params) != 1:
        raise MalformedSpec(f"{family} takes exactly one parameter")
    return _ONE_PARAMETER[family](params[0])


def conjugacy_classes(table: list[list[int]], inverse: list[int]) -> ConjugacyTable:
    """Partition a group table's elements into conjugacy classes, with the class involution.

    Class ids are assigned in order of the smallest element index they
    contain, and the representative of a class is that smallest element.
    """
    n = len(table)
    class_of = [-1] * n
    reps: list[int] = []
    members: list[tuple[int, ...]] = []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        cid = len(reps)
        conjugates = {table[table[h][g]][inverse[h]] for h in range(n)}
        for m in conjugates:
            class_of[m] = cid
        reps.append(g)
        members.append(tuple(sorted(conjugates)))
    sizes = tuple(map(len, members))
    involution = tuple(class_of[inverse[rep]] for rep in reps)
    return ConjugacyTable(tuple(class_of), tuple(reps), sizes, tuple(members), involution)


def class_order(group: FiniteGroup, c: int) -> int:
    """Common order of the elements in class c."""
    return group.element_order(group.conj.representatives[c])
