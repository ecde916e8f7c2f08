"""Finite groups as validated multiplication tables.

Elements are dense indices 0..order-1.  A group is built either from one of
the builtin families (cyclic, products of cyclics, dihedral, symmetric), from
an explicit Cayley table, or as the closure of a set of permutations.  Every
construction path runs the same axiom checks, so a FiniteGroup in hand is
always a group.

Conjugacy classes get dense ids assigned in order of their smallest element
index, which makes every downstream enumeration deterministic.  The class
involution sends the class of g to the class of g^{-1}; it is the shadow on
classes of inverting a root of unity, and it is what pairs up the two flags
of an edge in a marked tree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import MalformedSpec, NotAGroup

MAX_ORDER = 255


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    name: str

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(self.order))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k


@dataclass(frozen=True)
class ConjugacyTable:
    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.representatives)


@dataclass(frozen=True)
class ClassInvolution:
    mapping: tuple[int, ...]

    def __call__(self, c: int) -> int:
        return self.mapping[c]


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
            if not isinstance(x, int) or not 0 <= x < n:
                raise MalformedSpec(f"table entry {x!r} out of range 0..{n - 1}")

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

    return FiniteGroup(
        order=n,
        table=tuple(tuple(row) for row in table),
        identity=identity,
        inverse=tuple(inverse),
        name=name,
    )


def build_cyclic(k: int) -> FiniteGroup:
    if k < 1:
        raise MalformedSpec(f"cyclic order must be positive, got {k}")
    _check_order(k)
    table = [[(a + b) % k for b in range(k)] for a in range(k)]
    return _validate_table(table, f"C{k}")


def build_product_cyclic(ks: list[int]) -> FiniteGroup:
    if not ks or any(k < 1 for k in ks):
        raise MalformedSpec(f"cyclic factors must be positive, got {ks}")
    order = math.prod(ks)
    _check_order(order)
    strides = [math.prod(ks[:i]) for i in range(len(ks))]
    digits = [[i // s % k for s, k in zip(strides, ks)] for i in range(order)]
    table = [
        [sum((x + y) % k * s for x, y, k, s in zip(da, db, ks, strides)) for db in digits]
        for da in digits
    ]
    return _validate_table(table, "x".join(f"C{k}" for k in ks))


def build_dihedral(k: int) -> FiniteGroup:
    """Symmetries of a regular k-gon, order 2k.

    Element e*k + a is (reflection^e) * (rotation^a).
    """
    if k < 1:
        raise MalformedSpec(f"dihedral parameter must be positive, got {k}")
    _check_order(2 * k)
    table = []
    for a in range(2 * k):
        e1, r1 = divmod(a, k)
        row = []
        for b in range(2 * k):
            e2, r2 = divmod(b, k)
            # (s^e1 r^r1)(s^e2 r^r2) = s^(e1+e2) r^(r2 +- r1)
            rot = (r2 - r1) % k if e2 else (r1 + r2) % k
            row.append(((e1 + e2) % 2) * k + rot)
        table.append(row)
    return _validate_table(table, f"D{k}")


def _permutation_group(perms, name: str) -> FiniteGroup:
    """The table of a set of permutations closed under composition, in sorted order."""
    elements = sorted(perms)
    index = {p: i for i, p in enumerate(elements)}
    table = [[index[tuple(p[i] for i in q)] for q in elements] for p in elements]
    return _validate_table(table, name)


def build_symmetric(k: int) -> FiniteGroup:
    if k < 1:
        raise MalformedSpec(f"symmetric parameter must be positive, got {k}")
    # any() stops at the first i with i! > MAX_ORDER, so a large k costs nothing.
    if any(math.factorial(i) > MAX_ORDER for i in range(k + 1)):
        raise MalformedSpec(f"order {k}! exceeds the supported maximum {MAX_ORDER}")
    return _permutation_group(itertools.permutations(range(k)), f"S{k}")


def build_from_permutations(gens: list[list[int]]) -> FiniteGroup:
    if not gens:
        raise MalformedSpec("need at least one generating permutation")
    d = len(gens[0])
    gen_tuples = []
    for g in gens:
        if len(g) != d or sorted(g) != list(range(d)):
            raise MalformedSpec(f"{g!r} is not a permutation of 0..{d - 1}")
        gen_tuples.append(tuple(g))

    identity = tuple(range(d))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gen_tuples:
                q = tuple(p[g[i]] for i in range(d))
                if q not in seen:
                    if len(seen) >= MAX_ORDER:
                        raise MalformedSpec(f"closure exceeds the supported maximum {MAX_ORDER}")
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return _permutation_group(seen, f"perm<{len(seen)}>")


def build_from_cayley(table: list[list[int]]) -> FiniteGroup:
    if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
        raise MalformedSpec("cayley spec must be a list of rows")
    return _validate_table([list(r) for r in table], f"cayley<{len(table)}>")


def build_group(spec: dict) -> FiniteGroup:
    """Build a group from a specification mapping.

    Exactly one of the keys "builtin", "cayley", "permutations" must be
    present.  "builtin" maps to {"kind": ..., "params": [...]} with kind one
    of cyclic, product_cyclic, dihedral, symmetric.
    """
    if not isinstance(spec, dict):
        raise MalformedSpec("group spec must be a mapping")
    keys = [k for k in ("builtin", "cayley", "permutations") if k in spec]
    if len(keys) != 1:
        raise MalformedSpec(f"spec must contain exactly one of builtin/cayley/permutations, got {keys}")
    kind = keys[0]
    if kind == "cayley":
        return build_from_cayley(spec["cayley"])
    if kind == "permutations":
        perms = spec["permutations"]
        if not isinstance(perms, list) or not all(isinstance(p, list) for p in perms):
            raise MalformedSpec("permutations spec must be a list of image lists")
        return build_from_permutations(perms)

    builtin = spec["builtin"]
    if not isinstance(builtin, dict) or "kind" not in builtin:
        raise MalformedSpec("builtin spec must be a mapping with a kind")
    params = builtin.get("params", [])
    if not isinstance(params, list) or not all(isinstance(p, int) for p in params):
        raise MalformedSpec(f"builtin params must be a list of integers, got {params!r}")
    family = builtin["kind"]
    if family == "cyclic":
        if len(params) != 1:
            raise MalformedSpec("cyclic takes exactly one parameter")
        return build_cyclic(params[0])
    if family == "product_cyclic":
        return build_product_cyclic(params)
    if family == "dihedral":
        if len(params) != 1:
            raise MalformedSpec("dihedral takes exactly one parameter")
        return build_dihedral(params[0])
    if family == "symmetric":
        if len(params) != 1:
            raise MalformedSpec("symmetric takes exactly one parameter")
        return build_symmetric(params[0])
    raise MalformedSpec(f"unknown builtin family {family!r}")


@lru_cache(maxsize=None)
def conjugacy_classes(group: FiniteGroup) -> ConjugacyTable:
    """Partition elements into conjugacy classes.

    Class ids are assigned in order of the smallest element index they
    contain, and the representative of a class is that smallest element.
    """
    n = group.order
    class_of = [-1] * n
    reps: list[int] = []
    sizes: list[int] = []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        cid = len(reps)
        members = {group.mul(group.mul(h, g), group.inv(h)) for h in range(n)}
        for m in members:
            class_of[m] = cid
        reps.append(g)
        sizes.append(len(members))
    return ConjugacyTable(tuple(class_of), tuple(reps), tuple(sizes))


@lru_cache(maxsize=None)
def class_involution(group: FiniteGroup) -> ClassInvolution:
    """The involution sending the class of g to the class of g^{-1}."""
    conj = conjugacy_classes(group)
    return ClassInvolution(tuple(conj.class_of[group.inv(rep)] for rep in conj.representatives))


def class_order(group: FiniteGroup, c: int) -> int:
    """Common order of the elements in class c."""
    conj = conjugacy_classes(group)
    return group.element_order(conj.representatives[c])
