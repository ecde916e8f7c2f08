"""Tuples of group elements with product one, and the braid action on them.

A cover of the projective line branched over n marked points is encoded by
its monodromy: a tuple (g_1, ..., g_n) of element indices multiplying to the
identity.  The braid generator sigma_i replaces (g_i, g_{i+1}) by
(g_i g_{i+1} g_i^{-1}, g_i); it keeps the product and the class multiset.

A product-one tuple is fixed by its first n - 1 entries; read as base-order
digits they are its index, a bijection onto range(order^(n-1)) in
lexicographic order.  Each sigma_i permutes the finite set of tuples, so the
closure of a tuple under the forward moves is its whole orbit.

The closure is built level by level.  At level m, m = 0..n - 2, every
m-tuple of any product has an index p of m digits; ids[p] numbers its orbit
under sigma_1..sigma_{m-1}, members[o] lists orbit o's indices, least first,
and prods[o] is their common product.  A block (o, r), of index o order + r,
pairs orbit o with one more digit r; its tuples p order + r form one orbit of
sigma_1..sigma_{m-1} on (m + 1)-tuples, so level m + 1 closes the blocks
under sigma_m alone.  With rows[h][g] = h g h^{-1}, sigma_m sends the last
digit a of p and r to (c, a), c = rows[a][r]: the tuple goes to block
(ids[p + c - a], a), one lookup in a list of order^2 steps per tuple.  At
the top level, m = n - 2, the last entry b = (P r)^{-1}, P = prods[o], is
forced, so the blocks hold the product-one tuples.  sigma_{n-2} is still one
lookup per tuple.  sigma_{n-1} keeps the prefix and sends r to
r b r^{-1} = (r P)^{-1} for the whole block: one lookup per block.  (Reading
P r there would give sigma_{n-1}^{-1}, whose orbits are the same.)  Orbits
are numbered in order of their least member, so a block's least tuple,
members[o][0] order + r, grows with its index: blocks scanned in index order
each start an orbit at its least member, and the top orbits come out sorted.
The closure holds order^m ids and member indices at each level m <= n - 2
and one byte per top block; a tuple's entries are decoded only to report
its orbit's least member.

Mod conjugation: conjugation commutes with every braid move, so the
stabiliser of a tuple among the inner automorphisms is the same all along
its braid orbit O.  The class U, the union of the orbits hO, then holds
|O| |Inn| / S tuples in classes of |Inn| / s each, |O| s / S classes, where s
maps fix O's least member and S maps send O to itself.  S is read by
conjugating the least member with each map but the identity and looking
its block up in an array of top orbit ids; the other orbits hO merge into
O, the first and least of them.  An abelian group has no such map and
builds no array.
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
    order: int, ids: array | None, members: list[list[int]], step: list[int],
    last: list[int] | None = None, prods: list[int] | None = None,
) -> Iterator[list[int]]:
    """Yield each orbit of the blocks over a level, as its block indices, start first.

    A block o order + r is a level orbit o with one more digit r.  ids is None
    at level 0, which has no braid move; with last and prods the blocks are
    the top ones, also moved by sigma_{n-1}.  Starts come in increasing order.
    """
    seen = bytearray(len(members) * order)
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
                for p in members[o]:
                    a = p % order
                    c = ids[p + step[a * order + r]] * order + a
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
    |O| s / S for the braid orbit O of the least member.  The closure holds
    order^m ids and member indices at each level m <= n - 2 and one byte per
    top block, which the command line bounds.
    """
    if n < 1:
        raise ValueError(f"need at least one entry, got {n}")
    if n == 1:
        return [((group.identity,), 1)]
    order, table, inverse = group.order, group.table, group.inverse
    rows = [tuple(table[table[h][g]][inverse[h]] for g in range(order)) for h in range(order)]
    # step[a order + r]: sigma_m's change to a prefix ending in a, c - a.
    step = [rows[a][r] - a for a in range(order) for r in range(order)]
    # last[r order + P]: the digit (r P)^{-1} that sigma_{n-1} puts in place of r.
    last = [inverse[p] for r in range(order) for p in table[r]]
    # Level 0 is the empty tuple; each pass builds level m + 1 from level m.
    ids, members, prods = array("i", [0]), [[0]], [group.identity]
    for m in range(n - 2):
        next_ids = array("i", bytes(4 * order ** (m + 1)))
        next_members, next_prods = [], []
        for blocks in _block_orbits(order, ids if m else None, members, step):
            mem = [p * order + b % order for b in blocks for p in members[b // order]]
            for y in mem:
                next_ids[y] = len(next_members)
            next_members.append(mem)
            o, r = divmod(blocks[0], order)
            next_prods.append(table[prods[o]][r])
        ids, members, prods = next_ids, next_members, next_prods
    # The conjugation maps but the identity's, which is every central element's.
    maps = []
    if mod_conjugation:
        maps = [row for row in dict.fromkeys(rows) if row != rows[group.identity]]
    # where[block]: its top orbit's number, read only to find conjugate orbits.
    where = array("i", bytes(4 * len(members) * order)) if maps else None
    leasts, sizes = array("q"), array("q")
    top = _block_orbits(order, ids if n > 2 else None, members, step, last, prods)
    for k, blocks in enumerate(top):
        o, r = divmod(blocks[0], order)
        leasts.append(members[o][0] * order + r)
        sizes.append(sum(len(members[b // order]) for b in blocks))
        if maps:
            for b in blocks:
                where[b] = k

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
        return [(tuple(vector(x)), size) for x, size in zip(leasts, sizes)]
    orbits = []
    merged = bytearray(len(sizes))
    for k, (x, size) in enumerate(zip(leasts, sizes)):
        if merged[k]:
            continue
        v = vector(x)
        fixed = kept = 1  # the identity map
        for row in maps:
            w = [row[g] for g in v]
            q = 0
            for g in w[:-2]:
                q = q * order + g
            j = where[ids[q] * order + w[-2]]
            if j == k:
                kept += 1
                fixed += w == v
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
