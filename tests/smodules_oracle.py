"""Tuple-level oracle for the composition calculus of covermotive.smodules.

This is the engine the recursion route used before it moved onto class
types.  It is slow, and it shares no arithmetic with the type engine, so the
tests compare the two on random modules and on the recursion terms.

A generator of degree n carries an evaluation tuple in B^n, B the set of
conjugacy classes (one class per marked point), an optional root attachment
datum in B, an exact class polynomial, and an integer weight.

* unit_i1 / unit_i2: the one- and two-slot units.  The degree-2 unit pairs a
  class with its inverse class.
* shift_root: drop the last evaluation of each generator and re-expose it,
  through the inversion involution, as the root attachment.
* day_convolve: graded product; a degree-k generator of the product routes
  the k outer labels to the two factors through a two-block shuffle.
* compose: plug rooted generators into the slots of outer generators.  Slot
  i accepts inner generators whose root attachment equals the outer i-th
  evaluation.  The outer labels are distributed by shuffles (ordered
  partitions into blocks, read increasingly within each block), and the
  result is the quotient by the symmetric group permuting the slots.

The blocks of a shuffle are disjoint and nonempty, so the slot permutations
act freely on shuffles, and the quotient takes one shuffle per orbit: a set
partition of the outer labels, blocks ordered by least label.  That
representative stands for its whole orbit only if the outer generators are
closed under permuting their evaluations; compose checks that closure on
each adjacent swap and raises InexactDivision where it fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from covermotive.errors import InexactDivision
from covermotive.groups import FiniteGroup
from covermotive.motives import ONE, MotivePoly


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


def unit_i1(group: FiniteGroup) -> SModClass:
    """Degree-1 unit: one generator per class, attached at that class."""
    conj = group.conj
    return SModClass(Atom((c,), (c,), ONE) for c in range(conj.count))


def unit_i2(group: FiniteGroup) -> SModClass:
    """Degree-2 unit: per class c, evaluations (c, iota(c)), trivial class.

    Its slot swap acts by exchanging the evaluations and applying the
    inversion involution, which permutes these generators among themselves.
    """
    iota = group.conj.involution
    return SModClass(Atom((c, iota[c]), (), ONE) for c in range(len(iota)))


def shift_root(x: SModClass, group: FiniteGroup) -> SModClass:
    """Drop the last evaluation, re-exposing it through inversion as the root."""
    iota = group.conj.involution
    out = []
    for a in x.atoms():
        if a.degree == 0:
            raise ValueError("degree-0 generator has no evaluation to re-expose")
        if a.attach:
            raise ValueError("generator already carries a root attachment")
        out.append(Atom(a.evals[:-1], (iota[a.evals[-1]],), a.cls, a.weight))
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


def tuples_of(classes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every evaluation tuple of a type (a sorted class tuple), each once, in
    increasing order: the distinct permutations of the type, which is how a
    module on types reads as a module on tuples."""
    if not classes:
        return [()]
    return [
        (c,) + t
        for i, c in enumerate(classes)
        if i == 0 or classes[i - 1] != c
        for t in tuples_of(classes[:i] + classes[i + 1 :])
    ]


def set_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every partition of {0..n-1} into nonempty blocks, each exactly once.

    Blocks are read increasingly and ordered by least label: one shuffle per
    orbit of the slot permutations.  Labels join in increasing order, either
    to an existing block or as a new last block, which keeps both orders.
    """
    parts: list[tuple[tuple[int, ...], ...]] = [()]
    for label in range(n):
        parts = [
            p[:i] + (p[i] + (label,),) + p[i + 1 :] if i < len(p) else p + ((label,),)
            for p in parts
            for i in range(len(p) + 1)
        ]
    return parts


def _check_symmetric(atoms: Sequence[Atom]) -> None:
    """The atoms are closed under permuting evaluations (adjacent swaps generate)."""
    weights = {(a.evals, a.attach, a.cls): a.weight for a in atoms}
    for (evals, attach, cls), weight in weights.items():
        for i in range(len(evals) - 1):
            swapped = evals[:i] + (evals[i + 1], evals[i]) + evals[i + 2 :]
            if weights.get((swapped, attach, cls)) != weight:
                raise InexactDivision(
                    f"outer generator {evals} has no partner {swapped} of equal class "
                    f"and weight, so one shuffle per slot orbit does not give the quotient"
                )


def compose(x: SModClass, w: SModClass, degrees: Iterable[int]) -> SModClass:
    """Plug rooted generators of w into the slots of x, quotienting slot order.

    Produces the parts of the composite in the requested degrees.  Slot i of
    an outer degree-m generator accepts inner generators whose root
    attachment equals the outer i-th evaluation.  Each orbit of shuffles
    under the slot permutations is taken once, as a set partition of the
    outer labels into m blocks (block i goes to slot i), so the weights are
    already the quotient; this needs the degree-m part of x to be closed
    under permuting evaluations, which is checked.  A degree-0 generator of
    x has the empty partition only and passes through.
    """
    if w.part(0):
        raise ValueError("inner module must have empty degree-0 part")
    w_by: dict[tuple[int, int], list[Atom]] = {}
    for a in w.atoms():
        if len(a.attach) != 1:
            raise ValueError(f"inner generator at degree {a.degree} lacks a root attachment")
        w_by.setdefault((a.degree, a.attach[0]), []).append(a)

    # Orbit representatives by slot count, then by block-size vector, so that
    # each (sizes, outer atom, inner choice) multiplies its classes once.
    shapes: dict[int, dict[tuple[int, ...], list[tuple[tuple[int, ...], ...]]]] = {}
    for n in set(degrees):
        for blocks in set_partitions(n):
            sizes = tuple(len(b) for b in blocks)
            shapes.setdefault(len(blocks), {}).setdefault(sizes, []).append(blocks)

    acc: dict[tuple[tuple[int, ...], tuple[int, ...], MotivePoly], int] = {}
    for m, by_sizes in shapes.items():
        outer = x.part(m)
        _check_symmetric(outer)
        for sizes, reps in by_sizes.items():
            n = sum(sizes)
            for xa in outer:
                pools = [w_by.get(slot, ()) for slot in zip(sizes, xa.evals)]
                for ws in itertools.product(*pools):
                    cls = xa.cls
                    weight = xa.weight
                    for wa in ws:
                        cls = cls * wa.cls
                        weight *= wa.weight
                    for blocks in reps:
                        evals = [0] * n
                        for i, block in enumerate(blocks):
                            we = ws[i].evals
                            for pos, lbl in enumerate(block):
                                evals[lbl] = we[pos]
                        key = (tuple(evals), xa.attach, cls)
                        acc[key] = acc.get(key, 0) + weight
    return SModClass(Atom(evals, attach, cls, weight) for (evals, attach, cls), weight in acc.items())


def oracle_terms(calc, n: int) -> tuple[MotivePoly, MotivePoly, MotivePoly]:
    """The three recursion terms of calc at degree n, computed tuple by tuple.

    The open part is enumerated over all |B|^m tuples, the tails carry the
    lower-degree sweep class on each marking of calc.per_marking, and the terms
    are summed over the atoms of compose and day_convolve above.
    """
    from covermotive.hurwitz import nielsen_count
    from covermotive.motives import ZERO, class_m0n

    group, count = calc.group, calc.conj.count
    open_part = SModClass(
        Atom(cvec, (), class_m0n(m), 1)
        for m in range(3, n + 1)
        for cvec in itertools.product(range(count), repeat=m)
        if nielsen_count(group, cvec) == 1
    )
    bbar = SModClass(
        Atom(cvec, (), calc.sweep(k).strata, 1)
        for k in range(3, n)
        for cvec in calc.per_marking(k)
    )
    dbar = shift_root(bbar, group)
    iota = group.conj.involution
    tails: dict[tuple[int, ...], list[Atom]] = {}
    for a in dbar.atoms():
        tails.setdefault(a.attach, []).append(a)
    pairs = [
        atom
        for c in range(count)
        for atom in day_convolve(
            SModClass(tails.get((c,), ())), SModClass(tails.get((iota[c],), ())), {n}
        ).part(n)
    ]
    terms = (
        compose(open_part, unit_i1(group).union(dbar), {n}).part(n),
        compose(unit_i2(group), dbar, {n}).part(n),
        pairs,
    )
    return tuple(sum((a.cls.scale(a.weight) for a in atoms), ZERO) for atoms in terms)
