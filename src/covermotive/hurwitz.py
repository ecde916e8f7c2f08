"""Tuples of group elements with product one, and the braid action on them.

A cover of the projective line branched over n marked points is encoded by
its monodromy: a tuple (g_1, ..., g_n) of element indices multiplying to the
identity.  The braid generator sigma_i replaces (g_i, g_{i+1}) by
(g_i g_{i+1} g_i^{-1}, g_i); it keeps the product and the class multiset.

A product-one tuple is fixed by its first n - 1 entries; read as base-order
digits they are its index, a bijection onto range(order^(n-1)) in
lexicographic order.  With rows[h][g] = h g h^{-1}, sigma_i sends (a, b) to
(c, a), c = rows[a][b].  For i <= n - 2 both entries are digits, i - 1 and
i, of weights W[i-1] = order W[i]: x // W[i] % order^2 is the pair code
a order + b, and the index moves by W[i] ((c - a) order + a - b), one lookup
in a list of order^2 steps.  sigma_{n-1} acts on digit n - 2, a, and on
the forced last entry b = (P a)^{-1}, where P is the product of the first
n - 2 entries; then c = (a P)^{-1}.  head[q] is P for the index q of those
entries, so with q, r = divmod(x, order) the index moves by
tail[r order + head[q]], tail[a order + P] = (a P)^{-1} - a.  (Reading P a
there would give sigma_{n-1}^{-1}, whose orbits are the same.)  A tuple's
entries are decoded only to report its orbit's least member, and mod
conjugation to mark its conjugates.  Each sigma_i permutes the finite set of
tuples, so the closure of a seed under the forward moves is its whole orbit,
and seeds scanned in index order each start an orbit at its least member.
Mod conjugation, a popped tuple that no counted tuple has marked is counted
and marks its conjugates, one per inner automorphism but the identity (h
and hz, z central, conjugate alike).  Conjugation commutes with every braid
move, so a skipped conjugate's moves are conjugates of the counted tuple's,
and every mod-conjugation orbit is untouched until the scan reaches its
least member.
"""

from __future__ import annotations

import itertools
from operator import getitem
from typing import Sequence

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


def braid_orbits(
    group: FiniteGroup, n: int, mod_conjugation: bool = False
) -> list[tuple[tuple[int, ...], int]]:
    """The braid orbits of the product-one n-tuples as (least member, size), sorted.

    With mod_conjugation the size counts conjugation classes of tuples, each
    counted as it marks its conjugates.  The closure holds order^(n-1) bytes
    and order^(n-2) prefix products, which the command line bounds.
    """
    if n < 1:
        raise ValueError(f"need at least one entry, got {n}")
    if n == 1:
        return [((group.identity,), 1)]
    order, table, inverse = group.order, group.table, group.inverse
    rows = [tuple(table[table[h][g]][inverse[h]] for g in range(order)) for h in range(order)]
    weights = [order ** (n - 2 - j) for j in range(n - 1)]
    # The conjugation maps but the identity's, which is every central element's.
    inner = set(rows) - {rows[group.identity]} if mod_conjugation else ()
    # terms[j][g]: what entry j = g adds to the index of each of its conjugates.
    terms = [[tuple(row[g] * w for row in inner) for g in range(order)] for w in weights if inner]
    seen = bytearray(order ** (n - 1))
    # pairs: (W[i], sigma_i's index step by pair code) for i = 1..n-2.
    square = order * order
    step = [(rows[a][b] - a) * order + a - b for a in range(order) for b in range(order)]
    pairs = [(w, [w * s for s in step]) for w in weights[1:]]
    # head[q]: the product P of the first n - 2 entries of index q, and
    # tail[a order + P]: sigma_{n-1}'s index step, (a P)^{-1} - a.
    head = [group.identity]
    for _ in range(n - 2):
        head = [p for h in head for p in table[h]]
    tail = [inverse[p] - a for a in range(order) for p in table[a]]

    def vector(x: int) -> list[int]:
        v, acc = [], group.identity
        for w in weights:
            g, x = divmod(x, w)
            v.append(g)
            acc = table[acc][g]
        v.append(inverse[acc])
        return v

    orbits = []
    for start in range(len(seen)):
        if seen[start]:
            continue
        seen[start] = 1
        stack, size = [start], 0
        while stack:
            x = stack.pop()
            if terms:
                if seen[x] == 2:  # a conjugate of a tuple already counted
                    continue
                for y in map(sum, zip(*map(getitem, terms, vector(x)))):
                    seen[y] = 2
            size += 1
            for w, d in pairs:
                y = x + d[x // w % square]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
            q, r = divmod(x, order)
            y = x + tail[r * order + head[q]]
            if not seen[y]:
                seen[y] = 1
                stack.append(y)
        orbits.append((tuple(vector(start)), size))
    return orbits


def nielsen_count(group: FiniteGroup, classes: Sequence[int]) -> int:
    """Number of product-one tuples with the given per-entry conjugacy classes.

    For an abelian group this is 1 when the classes sum to the identity and 0
    otherwise; in general it is a genuine count.  It tries every choice of
    members of all but the last class, and takes no cap.  No command calls it:
    it is the reference for Calculator.open_module and tests/smodules_oracle.py.
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
