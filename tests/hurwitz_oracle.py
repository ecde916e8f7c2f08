"""Slow references for the Hurwitz layer.

Every conjugate and every braid move is built one product at a time from
``group.table`` and ``group.inverse``, with no precomputed conjugation table
and no tuple index, so ``braid_orbits``, which reads both, can be checked
against them.  ``conjugation_class_count`` counts the classes of tuples
under simultaneous conjugation by Burnside's lemma, and ``generating_tuples``
enumerates Nielsen classes for the classical orbit counts.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from covermotive.groups import FiniteGroup


def conjugate_vector(group: FiniteGroup, h: int, v: tuple[int, ...]) -> tuple[int, ...]:
    table, hinv = group.table, group.inverse[h]
    return tuple(table[table[h][g]][hinv] for g in v)


def canonical_under_conjugation(group: FiniteGroup, v: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically minimal simultaneous conjugate of v."""
    return min(conjugate_vector(group, h, v) for h in range(group.order))


def braid_generator(group: FiniteGroup, v: tuple[int, ...], i: int) -> tuple[int, ...]:
    """sigma_i (1-based, 1 <= i <= n - 1): (a, b) -> (a b a^{-1}, a)."""
    a, b, table = v[i - 1], v[i], group.table
    return v[: i - 1] + (table[table[a][b]][group.inverse[a]], a) + v[i + 1 :]


def braid_inverse(group: FiniteGroup, v: tuple[int, ...], i: int) -> tuple[int, ...]:
    """sigma_i^{-1} (1-based): (c, d) -> (d, d^{-1} c d), undoing braid_generator."""
    c, d, table = v[i - 1], v[i], group.table
    return v[: i - 1] + (d, table[table[group.inverse[d]][c]][d]) + v[i + 1 :]


def reference_orbits(
    group: FiniteGroup, vectors: Iterable[tuple[int, ...]], mod_conjugation: bool = False
) -> list[list[tuple[int, ...]]]:
    """Braid orbits by the two-sided closure: sigma_i and sigma_i^{-1} for every i.

    Members sorted, orbits sorted by least member; ``braid_orbits`` reports
    each orbit o as (o[0], len(o)).  Raises ValueError if an orbit leaves the
    input.
    """
    canonical: dict[tuple[int, ...], tuple[int, ...]] = {}

    def normalize(v):
        if not mod_conjugation:
            return v
        if v not in canonical:
            canonical[v] = canonical_under_conjugation(group, v)
        return canonical[v]

    todo = {normalize(tuple(v)) for v in vectors}
    done: set[tuple[int, ...]] = set()
    orbits = []
    for seed in sorted(todo):
        if seed in done:
            continue
        orbit = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for i in range(1, len(v)):
                for w in (braid_generator(group, v, i), braid_inverse(group, v, i)):
                    w = normalize(w)
                    if w not in orbit:
                        orbit.add(w)
                        frontier.append(w)
        if not orbit <= todo:
            raise ValueError("input vectors are not closed under the braid action")
        done |= orbit
        orbits.append(sorted(orbit))
    return orbits


def conjugation_class_count(group: FiniteGroup, vectors: list[tuple[int, ...]]) -> int:
    """Classes of the vectors under simultaneous conjugation, by Burnside's lemma.

    (1/|G|) times the sum over h of the vectors that conjugation by h fixes;
    the vectors must be closed under conjugation.
    """
    fixed = sum(conjugate_vector(group, h, v) == v for h in range(group.order) for v in vectors)
    assert fixed % group.order == 0
    return fixed // group.order


def generated_subgroup(group: FiniteGroup, elements: Iterable[int]) -> frozenset[int]:
    """The subgroup generated by the elements, by closing under right multiplication."""
    gens = set(elements)
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.table[x][g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def generating_tuples(group: FiniteGroup, n: int, pool: Iterable[int]) -> list[tuple[int, ...]]:
    """Product-one n-tuples with every entry in pool that generate the group.

    When pool is one conjugacy class this is one Nielsen class; otherwise it
    is the union of the Nielsen classes of every class multiset drawn from
    pool.  The first n - 1 entries run over pool and the last is forced to
    the inverse of their product, and kept only if it lies in pool.
    """
    allowed = set(pool)
    out = []
    for prefix in itertools.product(sorted(allowed), repeat=n - 1):
        acc = group.identity
        for g in prefix:
            acc = group.table[acc][g]
        last = group.inverse[acc]
        if last in allowed:
            v = prefix + (last,)
            if len(generated_subgroup(group, v)) == group.order:
                out.append(v)
    return out
