"""Slow reference for simultaneous conjugation of Hurwitz vectors.

Every conjugate is built through ``group.mul``, one element at a time, so
the fast table-driven canonical form in ``braid_orbits`` can be checked
against it.
"""

from __future__ import annotations

from covermotive.groups import FiniteGroup


def conjugate_vector(group: FiniteGroup, h: int, v: tuple[int, ...]) -> tuple[int, ...]:
    hinv = group.inv(h)
    return tuple(group.mul(group.mul(h, g), hinv) for g in v)


def canonical_under_conjugation(group: FiniteGroup, v: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically minimal simultaneous conjugate of v."""
    return min(conjugate_vector(group, h, v) for h in range(group.order))
