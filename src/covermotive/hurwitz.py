"""Tuples of group elements with product one, and the braid action on them.

A cover of the projective line branched over n marked points is encoded by
its monodromy: a tuple (g_1, ..., g_n) of element indices multiplying to the
identity.  The braid generator sigma_i replaces (g_i, g_{i+1}) by
(g_i g_{i+1} g_i^{-1}, g_i); it keeps the product and the class multiset.

A product-one tuple is fixed by its first n - 1 entries; read as base-order
digits they are its index, a bijection onto range(order^(n-1)) in
lexicographic order.  Each sigma_i permutes the finite set of tuples, so the
closure of a tuple under the forward moves is its whole orbit.

The closure is built level by level.  Level m, m = 0..n - 2, holds the orbits
of m-tuples of any product under sigma_1..sigma_{m-1}, level 0 the empty
tuple.  A block (o, r), of index o order + r, pairs orbit o with one more
digit r; its tuples form one orbit of sigma_1..sigma_{m-1}, so level m + 1
closes the blocks under sigma_m alone.  Each orbit is the union of its parts,
the blocks it closed, and ids numbers the orbit of each block.  With
rows[h][g] = h g h^{-1}, sigma_m sends the last digit a of an m-tuple and r
to (c, a), c = rows[a][r].  The tuples of a part d = o' order + a of o end in
a and their prefixes form orbit o', so c in place of a sends them all into
block (o', c), of orbit ids[d + c - a]: block (o, r) moves the part to block
(ids[d + c - a], a) by one lookup in a list of order^2 steps.  The top level,
n - 1, closes the blocks over level n - 2 with the last entry
b = (P r)^{-1}, P = prods[o], forced: the product-one tuples.  There
sigma_{n-1} keeps the prefix and sends r to r b r^{-1} = (r P)^{-1} for the
whole block, one more lookup.  (Reading P r would give sigma_{n-1}^{-1}, whose
orbits are the same.)  Orbits are numbered in order of their least member,
so a block's least tuple, least[o] order + r, grows with its index: blocks
scanned in index order each start an orbit at its least member, and the top
orbits come out sorted.  Below the top a level holds its orbits' parts,
least indices, sizes and products, and the ids of the blocks one level
down; the top holds a least index and a size per orbit and a byte per
block, and its ids only for mod conjugation.  A tuple's entries are decoded
only to report its orbit's least member.

Mod conjugation: conjugation commutes with every braid move, so the
stabiliser of a tuple among the inner automorphisms is the same all along
its braid orbit O.  The class U, the union of the orbits hO, then holds
|O| |Inn| / S tuples in classes of |Inn| / s each, |O| s / S classes, where s
maps fix O's least member and S maps send O to itself.  S is read by
conjugating the least member with each map but the identity and walking the
ids up from its first digit, a level-1 orbit, to its top orbit; the other
orbits hO merge into O, the first and least of them.  An abelian group has
no such map and keeps no ids past their level.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Iterator, Sequence

from .groups import FiniteGroup


def enumerate_hurwitz(group: FiniteGroup, n: int) -> list[tuple[int, ...]]:
    """All product-one n-tuples, lexicographically ordered.

    The last entry is forced by the first n - 1, so there are order^(n-1);
    the command line bounds that count before it calls this.
    """
    if n < 1:
        raise ValueError(f"need at least one entry, got {n}")
    table, inverse = group.table, group.inverse
    out = []
    for prefix in itertools.product(range(group.order), repeat=n - 1):
        acc = group.identity
        for g in prefix:
            acc = table[acc][g]
        out.append(prefix + (inverse[acc],))
    return out


def _block_orbits(
    order: int, ids: array | None, parts: list[list[int]], step: list[int],
    last: list[int] | None, prods: list[int],
) -> Iterator[list[int]]:
    """Yield each orbit of the blocks over a level, as its block indices, start first.

    A block o order + r is a level orbit o with one more digit r, and moves
    by one lookup per part of o.  ids is None at level 0, which has no braid
    move; with last the blocks are the top ones, also moved by sigma_{n-1}.
    Starts come in increasing order.
    """
    seen = bytearray(len(parts) * order)
    for start in range(len(seen)):
        if seen[start]:
            continue
        seen[start] = 1
        stack, blocks = [start], []
        while stack:
            b = stack.pop()
            blocks.append(b)
            o, r = divmod(b, order)
            if ids is not None:
                for d in parts[o]:
                    a = d % order
                    c = ids[d + step[a * order + r]] * order + a
                    if not seen[c]:
                        seen[c] = 1
                        stack.append(c)
            if last is not None:
                c = b - r + last[r * order + prods[o]]
                if not seen[c]:
                    seen[c] = 1
                    stack.append(c)
        yield blocks


def braid_orbits(
    group: FiniteGroup, n: int, mod_conjugation: bool = False
) -> list[tuple[tuple[int, ...], int]]:
    """The braid orbits of the product-one n-tuples as (least member, size), sorted.

    With mod_conjugation the size counts conjugation classes of tuples,
    |O| s / S for the braid orbit O of the least member.  One level loop
    closes the levels and, in its last pass, the top; the command line bounds
    its lookups.  It holds no tuple and no orbit's member list.
    """
    if n < 1:
        raise ValueError(f"need at least one entry, got {n}")
    order, table, inverse = group.order, group.table, group.inverse
    rows = [tuple(table[table[h][g]][inverse[h]] for g in range(order)) for h in range(order)]
    # step[a order + r]: sigma_m's change to a prefix ending in a, c - a.
    step = [rows[a][r] - a for a in range(order) for r in range(order)]
    # last[r order + P]: the digit (r P)^{-1} that sigma_{n-1} puts in place of r.
    last = [inverse[p] for r in range(order) for p in table[r]]
    # The conjugation maps but the identity's, which is every central element's.
    maps = []
    if mod_conjugation:
        maps = [row for row in dict.fromkeys(rows) if row != rows[group.identity]]
    # A level-1 orbit is its digit, so a conjugate walks up the ids from there,
    # or from level 0 when level 1 is the top; chain keeps the ids it reads.
    first, chain = int(n > 2), []
    # Level 0 is the empty tuple; pass m builds level m + 1, and its last pass the top.
    ids, parts, least, sizes, prods = None, [[0]], [0], [1], [group.identity]
    for m in range(n - 1):
        top = m == n - 2
        next_ids = array("i", bytes(4 * len(parts) * order)) if maps or not top else None
        next_parts, next_least, next_sizes, next_prods = [], array("q"), array("q"), []
        for blocks in _block_orbits(order, ids, parts, step, last if top else None, prods):
            o, r = divmod(blocks[0], order)
            if next_ids is not None:
                for b in blocks:
                    next_ids[b] = len(next_sizes)
            next_least.append(least[o] * order + r)
            next_sizes.append(sum(sizes[b // order] for b in blocks))
            if not top:
                next_parts.append(blocks)
                next_prods.append(table[prods[o]][r])
        ids, parts, least, sizes, prods = next_ids, next_parts, next_least, next_sizes, next_prods
        if maps and m >= first:
            chain.append(ids)

    def vector(x: int) -> list[int]:
        v = []
        for _ in range(n - 1):
            x, g = divmod(x, order)
            v.append(g)
        v.reverse()
        acc = group.identity
        for g in v:
            acc = table[acc][g]
        v.append(inverse[acc])
        return v

    if not maps:
        return [(tuple(vector(x)), size) for x, size in zip(least, sizes)]
    orbits = []
    merged = bytearray(len(sizes))
    for k, (x, size) in enumerate(zip(least, sizes)):
        if merged[k]:
            continue
        v = vector(x)
        digits = v[first:-1]
        fixed = kept = 1  # the identity map
        for row in maps:
            j = row[v[0]] if first else 0
            for level, g in zip(chain, digits):
                j = level[j * order + row[g]]
            if j == k:
                kept += 1
                fixed += [row[g] for g in v] == v
            else:
                merged[j] = 1
        orbits.append((tuple(v), size * fixed // kept))
    return orbits


def nielsen_count(group: FiniteGroup, classes: Sequence[int]) -> int:
    """Number of product-one tuples with the given per-entry conjugacy classes.

    For an abelian group this is 1 when the classes sum to the identity and 0
    otherwise; in general it is a genuine count.  It tries every choice of
    members of all but the last class, and takes no cap.  No command calls it:
    it is the reference for tests/smodules_oracle.py and for the walk,
    Calculator.open_module, that gives the open part and the tails their types.
    """
    if not classes:
        raise ValueError("need at least one class")
    conj, table = group.conj, group.table
    count = 0
    for prefix in itertools.product(*(conj.members[c] for c in classes[:-1])):
        acc = group.identity
        for g in prefix:
            acc = table[acc][g]
        if conj.class_of[group.inverse[acc]] == classes[-1]:
            count += 1
    return count
