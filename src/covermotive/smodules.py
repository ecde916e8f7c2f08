"""Graded modules of labeled generators and their composition calculus.

The recursion for compactified cover classes is phrased in terms of graded
collections ("modules") of generators over the set B of conjugacy classes.
A generator of degree n carries an evaluation tuple in B^n (one class per
marked point), an optional root attachment datum in B, an exact class
polynomial, and an integer weight.  Everything here is a finite shadow of a
geometric object, so all operations reduce to bookkeeping over tuples plus
exact polynomial arithmetic.

Operations:

* unit_i1 / unit_i2: the one- and two-slot units.  The degree-2 unit pairs a
  class with its inverse class, and its nontrivial symmetry swaps the two
  evaluations while applying the inversion involution.
* shift_root: drop the last evaluation of each generator and re-expose it,
  through the inversion involution, as the root attachment.
* day_convolve: graded product; a degree-k generator of the product routes
  the k outer labels to the two factors through a two-block shuffle.
* compose: plug rooted generators into the slots of outer generators.  Slot
  i accepts inner generators whose root attachment equals the outer i-th
  evaluation.  The outer labels are distributed by shuffles (ordered
  partitions into blocks, read increasingly within each block), and the
  result is the quotient by the symmetric group permuting the slots.

The quotient is exact division: on index data (evaluations, slot degrees,
shuffle blocks) the slot permutations act freely, because the blocks of a
shuffle are disjoint, nonempty, and therefore pairwise distinct.  That
rigidity is asserted at runtime, never assumed: compose checks every block
tuple it enumerates and rejects a repeated block with NonFreeAction,
returning the slot swap that fixes it as a witness.  An accumulated weight
that m! does not divide raises InexactDivision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Sequence

from .errors import (
    InexactDivision,
    MissingEvaluations,
    NonEmptyDegreeZero,
    NonFreeAction,
)
from .groups import FiniteGroup, class_involution, conjugacy_classes
from .motives import ONE, ZERO, MotivePoly


class EngineStats:
    """Counts the runtime freeness checks, to show that they actually ran."""

    def __init__(self):
        self.freeness_checks = 0


stats = EngineStats()


@dataclass(frozen=True)
class Atom:
    """A single generator: evaluations, root attachment, class, weight."""

    evals: tuple[int, ...]
    attach: tuple[int, ...]
    cls: MotivePoly
    weight: int = 1

    @property
    def degree(self) -> int:
        return len(self.evals)


class SModClass:
    """A graded set of atoms, normalized: equal keys merged, zero weights dropped."""

    def __init__(self, atoms: Iterable[Atom] = ()):
        merged: dict[tuple, int] = {}
        for a in atoms:
            key = (a.evals, a.attach, a.cls)
            merged[key] = merged.get(key, 0) + a.weight
        parts: dict[int, list[Atom]] = {}
        for (evals, attach, cls), weight in merged.items():
            if weight == 0 or cls.is_zero:
                continue
            parts.setdefault(len(evals), []).append(Atom(evals, attach, cls, weight))
        self._parts = {
            n: tuple(sorted(lst, key=lambda a: (a.evals, a.attach, a.cls.coeffs)))
            for n, lst in parts.items()
        }

    def degrees(self) -> list[int]:
        return sorted(self._parts)

    def part(self, n: int) -> tuple[Atom, ...]:
        return self._parts.get(n, ())

    def atoms(self) -> list[Atom]:
        return [a for n in self.degrees() for a in self._parts[n]]

    def union(self, other: "SModClass") -> "SModClass":
        return SModClass(self.atoms() + other.atoms())

    def __eq__(self, other) -> bool:
        return isinstance(other, SModClass) and self._parts == other._parts

    def __repr__(self) -> str:
        return f"SModClass({self.atoms()!r})"


def forget_class(x: SModClass, n: int) -> MotivePoly:
    """Total class of the degree-n part."""
    acc = ZERO
    for a in x.part(n):
        acc = acc + a.cls.scale(a.weight)
    return acc


def unit_i1(group: FiniteGroup) -> SModClass:
    """Degree-1 unit: one generator per class, attached at that class."""
    conj = conjugacy_classes(group)
    return SModClass(Atom((c,), (c,), ONE) for c in range(conj.count))


def unit_i2(group: FiniteGroup) -> SModClass:
    """Degree-2 unit: per class c, evaluations (c, iota(c)), trivial class.

    Its slot swap acts by exchanging the evaluations and applying the
    inversion involution, which permutes these generators among themselves.
    """
    conj = conjugacy_classes(group)
    iota = class_involution(group)
    return SModClass(Atom((c, iota(c)), (), ONE) for c in range(conj.count))


def shift_root(x: SModClass, group: FiniteGroup) -> SModClass:
    """Drop the last evaluation, re-exposing it through inversion as the root."""
    iota = class_involution(group)
    out = []
    for a in x.atoms():
        if a.degree == 0:
            raise MissingEvaluations("degree-0 generator has no evaluation to re-expose")
        if a.attach:
            raise ValueError("generator already carries a root attachment")
        out.append(Atom(a.evals[:-1], (iota(a.evals[-1]),), a.cls, a.weight))
    return SModClass(out)


def day_convolve(
    x: SModClass, y: SModClass, degrees: Iterable[int] | None = None
) -> SModClass:
    """Graded product: outer labels split between the factors by 2-block shuffles.

    With degrees given, only those output degrees are produced.
    """
    wanted = None if degrees is None else set(degrees)
    out = []
    for nx in x.degrees():
        for ny in y.degrees():
            n = nx + ny
            if wanted is not None and n not in wanted:
                continue
            for xa in x.part(nx):
                for ya in y.part(ny):
                    cls = xa.cls * ya.cls
                    weight = xa.weight * ya.weight
                    attach = xa.attach + ya.attach
                    for left in itertools.combinations(range(n), nx):
                        evals = [0] * n
                        right = [p for p in range(n) if p not in left]
                        for pos, lbl in enumerate(left):
                            evals[lbl] = xa.evals[pos]
                        for pos, lbl in enumerate(right):
                            evals[lbl] = ya.evals[pos]
                        out.append(Atom(tuple(evals), attach, cls, weight))
    return SModClass(out)


_partition_cache: dict[tuple[int, tuple[int, ...]], list[tuple[tuple[int, ...], ...]]] = {}


def shuffle_blocks(kvec: Sequence[int]) -> list[tuple[tuple[int, ...], ...]]:
    """All ordered partitions of {0..sum-1} into blocks of the given sizes.

    These index the shuffles for the slot degrees kvec: block i lists, in
    increasing order, the outer labels routed to slot i.
    """
    key = (sum(kvec), tuple(kvec))
    cached = _partition_cache.get(key)
    if cached is not None:
        return cached

    result: list[tuple[tuple[int, ...], ...]] = []

    def rec(remaining: tuple[int, ...], i: int, acc: list[tuple[int, ...]]):
        if i == len(kvec):
            result.append(tuple(acc))
            return
        for combo in itertools.combinations(remaining, kvec[i]):
            acc.append(combo)
            rec(tuple(p for p in remaining if p not in combo), i + 1, acc)
            acc.pop()

    rec(tuple(range(key[0])), 0, [])
    _partition_cache[key] = result
    return result


def _check_rigid(blocks: tuple[tuple[int, ...], ...]) -> None:
    """Freeness of the slot permutations on shuffle data: blocks are distinct."""
    stats.freeness_checks += 1
    seen: dict[tuple[int, ...], int] = {}
    for i, b in enumerate(blocks):
        if b in seen:
            witness = list(range(len(blocks)))
            witness[seen[b]], witness[i] = i, seen[b]
            raise NonFreeAction(
                f"blocks {seen[b]} and {i} coincide; swapping them fixes the shuffle datum",
                tuple(witness),
            )
        seen[b] = i


def _slot_degree_vectors(
    m: int, w_degrees: list[int], targets: set[int]
) -> list[tuple[int, ...]]:
    """Ordered tuples of m inner degrees whose sum lies in targets."""
    max_t = max(targets)
    min_d = w_degrees[0]
    out: list[tuple[int, ...]] = []

    def rec(i: int, partial: int, acc: list[int]):
        if i == m:
            if partial in targets:
                out.append(tuple(acc))
            return
        rem = m - i
        for d in w_degrees:
            if partial + d + (rem - 1) * min_d > max_t:
                break
            acc.append(d)
            rec(i + 1, partial + d, acc)
            acc.pop()

    rec(0, 0, [])
    return out


def compose(x: SModClass, w: SModClass, degrees: Iterable[int]) -> SModClass:
    """Plug rooted generators of w into the slots of x, quotienting slot order.

    Produces the parts of the composite in the requested degrees.  Slot i of
    an outer degree-m generator accepts inner generators whose root
    attachment equals the outer i-th evaluation.  For each choice, every
    shuffle distributes the outer labels; the accumulated weights are then
    divided, exactly, by m!.
    """
    if w.part(0):
        raise NonEmptyDegreeZero("inner module must have empty degree-0 part")
    w_by: dict[tuple[int, int], list[Atom]] = {}
    for a in w.atoms():
        if len(a.attach) != 1:
            raise MissingEvaluations(
                f"inner generator at degree {a.degree} lacks a root attachment"
            )
        w_by.setdefault((a.degree, a.attach[0]), []).append(a)
    w_degrees = w.degrees()
    targets = set(degrees)
    if not targets or not w_degrees:
        return SModClass()

    out_atoms: list[Atom] = []
    for m in x.degrees():
        if m == 0:
            # No slots to fill: the generator passes through untouched.
            for xa in x.part(0):
                if 0 in targets:
                    out_atoms.append(xa)
            continue
        if m > max(targets):
            continue
        acc: dict[tuple[tuple[int, ...], tuple[int, ...], MotivePoly], int] = {}
        for kvec in _slot_degree_vectors(m, w_degrees, targets):
            blocks_list = shuffle_blocks(kvec)
            for blocks in blocks_list:
                _check_rigid(blocks)
            n = sum(kvec)
            for xa in x.part(m):
                pools = []
                for i in range(m):
                    lst = w_by.get((kvec[i], xa.evals[i]))
                    if not lst:
                        pools = None
                        break
                    pools.append(lst)
                if pools is None:
                    continue
                for ws in itertools.product(*pools):
                    cls = xa.cls
                    weight = xa.weight
                    for wa in ws:
                        cls = cls * wa.cls
                        weight *= wa.weight
                    if cls.is_zero or weight == 0:
                        continue
                    for blocks in blocks_list:
                        evals = [0] * n
                        for i, block in enumerate(blocks):
                            we = ws[i].evals
                            for pos, lbl in enumerate(block):
                                evals[lbl] = we[pos]
                        key = (tuple(evals), xa.attach, cls)
                        acc[key] = acc.get(key, 0) + weight
        fact = factorial(m)
        for (evals, attach, cls), weight in acc.items():
            q, r = divmod(weight, fact)
            if r != 0:
                raise InexactDivision(
                    f"slot quotient at outer degree {m} is not exact: "
                    f"{weight} not divisible by {fact} (is the input closed under "
                    f"permuting evaluations?)"
                )
            if q:
                out_atoms.append(Atom(evals, attach, cls, q))
    return SModClass(out_atoms)
