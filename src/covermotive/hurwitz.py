"""Tuples of group elements with product one, and the braid action on them.

A cover of the projective line branched over n marked points is encoded by
its monodromy: a tuple (g_1, ..., g_n) multiplying to the identity.  Vectors
are plain tuples of element indices.  The braid generator sigma_i replaces
(g_i, g_{i+1}) by (g_i g_{i+1} g_i^{-1}, g_i); it preserves the product and
the multiset of conjugacy classes.

Orbit computations are closures read off a conjugation table
rows[h][g] = h g h^{-1}, built once per call: sigma_i sends (a, b) to
(rows[a][b], a).  Each sigma_i permutes the finite set of vectors, so a set
closed under sigma_i is closed under its inverse too, and the closure of a
seed under the forward moves alone is its whole orbit.
Optionally the orbits are taken after quotienting by simultaneous
conjugation.  A vector's |G| conjugates are read off the columns
cols[g][h] = h g h^{-1} in one zip, the class is written as its
lexicographically least conjugate, and that minimum is recorded for every
conjugate, so each conjugation class of vectors is canonicalized once.
Conjugation commutes with every braid move, so quotienting before or after
taking the closure yields the same partition; the flag is just a choice of
which set the orbits live on.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .groups import FiniteGroup, conjugacy_classes


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
    group: FiniteGroup,
    vectors: Iterable[tuple[int, ...]],
    mod_conjugation: bool = False,
) -> list[list[tuple[int, ...]]]:
    """Partition the given vectors into braid orbits.

    With mod_conjugation the orbits live on conjugation classes of vectors,
    each written as its lexicographically minimal representative.  Orbits are
    sorted by their minimal member, members sorted within each orbit, so the
    output is independent of input order and of the closure schedule.
    """
    table, inverse = group.table, group.inverse
    rows = [
        tuple(table[table[h][g]][inverse[h]] for g in range(group.order))
        for h in range(group.order)
    ]
    cols = list(zip(*rows))
    canonical: dict[tuple[int, ...], tuple[int, ...]] = {}

    def least_conjugate(v: tuple[int, ...]) -> tuple[int, ...]:
        least = canonical.get(v)
        if least is None:
            images = list(zip(*map(cols.__getitem__, v)))
            least = min(images, default=v)
            canonical.update(dict.fromkeys(images, least))
        return least

    normalize = least_conjugate if mod_conjugation else (lambda v: v)

    todo = {normalize(tuple(v)) for v in vectors}
    orbits = []
    while todo:
        seed = todo.pop()
        seen = {seed}
        stack = [seed]
        while stack:
            v = stack.pop()
            for i in range(1, len(v)):
                a = v[i - 1]
                w = normalize(v[: i - 1] + (rows[a][v[i]], a) + v[i + 1 :])
                if w not in seen:
                    if w not in todo:
                        raise ValueError("input vectors are not closed under the braid action")
                    seen.add(w)
                    stack.append(w)
        todo -= seen
        orbits.append(sorted(seen))
    orbits.sort(key=lambda orbit: orbit[0])
    return orbits


def nielsen_count(group: FiniteGroup, classes: Sequence[int]) -> int:
    """Number of product-one tuples with the given per-entry conjugacy classes.

    For an abelian group this is 1 when the classes sum to the identity and 0
    otherwise; in general it is a genuine count.  It tries every choice of
    members of all but the last class, and takes no cap.
    """
    if not classes:
        raise ValueError("need at least one class")
    conj = conjugacy_classes(group)
    count = 0
    for prefix in itertools.product(*(conj.members[c] for c in classes[:-1])):
        acc = group.identity
        for g in prefix:
            acc = group.mul(acc, g)
        if conj.class_of[group.inv(acc)] == classes[-1]:
            count += 1
    return count
