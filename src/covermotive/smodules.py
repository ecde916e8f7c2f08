"""Graded modules of typed generators and their composition calculus.

A generator of degree n over the set B of conjugacy classes carries an
evaluation tuple in B^n (one class per marked point), an optional root
attachment in B and a class in Z[q].  Every module of the recursion is
symmetric under permuting evaluations, so it is stored on types: an atom
holds, per multiplicity vector u in N^B and attachment, the class carried by
each of the n!/u! tuples of that type.  Read as the multisort exponential
generating function sum_u c_u x^u/u! (Bergeron-Labelle-Leroux 1998; Getzler
1995 for composition as plethysm):

* unit_i1 / unit_i2: the one- and two-slot units; the degree-2 unit pairs a
  class with its inverse class.
* shift_root: drop the last evaluation and re-expose it, through the
  inversion involution, as the root attachment.
* day_convolve: the EGF product.  A tuple of type w splits between factors
  of types u and w - u in prod_b C(w_b, u_b) ways.
* compose: plug inner generators rooted at the outer i-th evaluation into
  slot i and quotient by the slot permutations: EGF substitution
  sum_u c_u prod_b Y_b^(u_b)/u_b!, with Y_b the inner generators rooted at b
  and Y^k/k! = (Y * Y^(k-1)/(k-1)!) / k.

Products are truncated at the wanted degree and bucketed by degree, in
integers: each division by k must be exact, or it raises InexactDivision.
No tuple-indexed data enters: the stratification classes arrive per type.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod
from operator import add
from typing import Container, Iterable

from .errors import InexactDivision
from .groups import FiniteGroup, class_involution, conjugacy_classes
from .motives import ONE, MotivePoly

Series = dict[int, dict[tuple[int, ...], MotivePoly]]  # degree -> type -> class per tuple


class EngineStats:
    """Counts the exact divisions that take the slot quotient.

    Y * Y^(k-1)/(k-1)! counts each k-set of inner generators once per choice
    of the one in the first slot, and the k choices differ because the slot
    permutations act freely (the blocks of labels are disjoint and nonempty).
    So every coefficient divides by k exactly; each one divided is counted.
    """

    def __init__(self):
        self.freeness_checks = 0


stats = EngineStats()


def type_of(evals: Iterable[int], classes: int) -> tuple[int, ...]:
    """Multiplicity vector of an evaluation tuple over `classes` classes."""
    mults = [0] * classes
    for c in evals:
        mults[c] += 1
    return tuple(mults)


def _less_one(mults: tuple[int, ...], c: int) -> tuple[int, ...]:
    """The type with one evaluation of class c taken away."""
    return mults[:c] + (mults[c] - 1,) + mults[c + 1 :]


@dataclass(frozen=True)
class Atom:
    """The generators of one type and root attachment, each of class cls."""

    mults: tuple[int, ...]
    attach: tuple[int, ...]
    cls: MotivePoly

    @property
    def degree(self) -> int:
        return sum(self.mults)

    @property
    def tuple_count(self) -> int:
        """Number of evaluation tuples of this type: degree!/prod mults!."""
        return factorial(self.degree) // prod(map(factorial, self.mults))


def _add(acc: dict, key, c: MotivePoly) -> None:
    acc[key] = acc[key] + c if key in acc else c


def _atoms(by_attach: dict[tuple[int, ...], Series]) -> list[Atom]:
    return [
        Atom(t, attach, c)
        for attach, series in by_attach.items()
        for part in series.values()
        for t, c in part.items()
    ]


class SModClass:
    """A graded set of atoms, kept as attachment -> degree -> type -> class;
    classes of equal keys are added and zero classes dropped."""

    def __init__(self, atoms: Iterable[Atom] = ()):
        merged: dict[tuple[int, ...], Series] = {}
        for a in atoms:
            _add(merged.setdefault(a.attach, {}).setdefault(a.degree, {}), a.mults, a.cls)
        self._by_attach: dict[tuple[int, ...], Series] = {}
        for attach, series in merged.items():
            for d, part in series.items():
                kept = {t: c for t, c in part.items() if not c.is_zero}
                if kept:
                    self._by_attach.setdefault(attach, {})[d] = kept

    def degrees(self) -> list[int]:
        return sorted({d for series in self._by_attach.values() for d in series})

    def part(self, n: int) -> tuple[Atom, ...]:
        return tuple(a for a in self.atoms() if a.degree == n)

    def atoms(self) -> list[Atom]:
        return sorted(_atoms(self._by_attach), key=lambda a: (a.degree, a.mults, a.attach))

    def union(self, other: "SModClass") -> "SModClass":
        return SModClass(self.atoms() + other.atoms())

    def __eq__(self, other) -> bool:
        return isinstance(other, SModClass) and self._by_attach == other._by_attach

    def __repr__(self) -> str:
        return f"SModClass({self.atoms()!r})"


def unit_i1(group: FiniteGroup) -> SModClass:
    """Degree-1 unit: one generator per class, attached at that class."""
    count = conjugacy_classes(group).count
    return SModClass(Atom(type_of((c,), count), (c,), ONE) for c in range(count))


def unit_i2(group: FiniteGroup) -> SModClass:
    """Degree-2 unit: per class c, evaluations (c, iota(c)), trivial class.

    Its slot swap acts by exchanging the evaluations and applying the
    inversion involution, which permutes these generators among themselves.
    (iota(c), c) is of the same type, so each type is taken once, at c <= iota(c).
    """
    count = conjugacy_classes(group).count
    iota = class_involution(group)
    return SModClass(
        Atom(type_of((c, iota(c)), count), (), ONE) for c in range(count) if c <= iota(c)
    )


def shift_root(x: SModClass, group: FiniteGroup) -> SModClass:
    """Drop the last evaluation, re-exposing it through inversion as the root:
    the tuples of type w ending in b become type w - e_b rooted at iota(b)."""
    iota = class_involution(group)
    out = []
    for a in x.atoms():
        if a.degree == 0:
            raise ValueError("degree-0 generator has no evaluation to re-expose")
        if a.attach:
            raise ValueError("generator already carries a root attachment")
        drops = [b for b, k in enumerate(a.mults) if k]
        out.extend(Atom(_less_one(a.mults, b), (iota(b),), a.cls) for b in drops)
    return SModClass(out)


def _product(x: Series, y: Series, keep: Container[int], out: Series) -> Series:
    """Add the EGF product of x and y, in the degrees keep contains, into out."""
    for dx, px in x.items():
        for dy, py in y.items():
            if dx + dy in keep:
                acc = out.setdefault(dx + dy, {})
                for u, cu in px.items():
                    for v, cv in py.items():
                        w = tuple(map(add, u, v))
                        _add(acc, w, (cu * cv).scale(prod(map(comb, w, u))))
    return out


def _divided(x: Series, k: int) -> Series:
    """x / k, with every coefficient checked to divide exactly."""
    out: Series = {}
    for d, part in x.items():
        out[d] = {}
        for w, c in part.items():
            stats.freeness_checks += 1
            if any(coeff % k for coeff in c.coeffs):
                raise InexactDivision(f"class {c} of type {w} is not divisible by {k}")
            out[d][w] = MotivePoly(tuple(coeff // k for coeff in c.coeffs))
    return out


def day_convolve(x: SModClass, y: SModClass, degrees: Iterable[int]) -> SModClass:
    """Graded product in the given degrees: labels split between the factors,
    attachments joined."""
    keep = set(degrees)
    out: dict[tuple[int, ...], Series] = {}
    for ax, sx in x._by_attach.items():
        for ay, sy in y._by_attach.items():
            _product(sx, sy, keep, out.setdefault(ax + ay, {}))
    return SModClass(_atoms(out))


def compose(x: SModClass, w: SModClass, degrees: Iterable[int]) -> SModClass:
    """Plug rooted generators of w into the slots of x, quotienting slot order.

    Produces the parts of the composite in the requested degrees.  The sum
    over outer types u of c_u prod_b Y_b^(u_b)/u_b! runs by Horner's rule
    from the last class b to the first: the partial sums that share u's
    entries before b are multiplied by Y_b's divided power once, truncated at
    the degree those entries leave room for (each slot takes a label or
    more).  A degree-0 generator of x passes through.
    """
    if w.part(0):
        raise ValueError("inner module must have empty degree-0 part")
    for attach, series in w._by_attach.items():
        if len(attach) != 1:
            raise ValueError(f"inner generators at degrees {sorted(series)} lack a root attachment")
    wanted = set(degrees)
    top = max(wanted, default=-1)
    outer = [a for a in x.atoms() if a.degree <= top]
    if not outer:
        return SModClass()
    classes = len(outer[0].mults)
    unit: Series = {0: {(0,) * classes: ONE}}
    powers = []
    for b in range(classes):
        y = w._by_attach.get((b,), {})
        powers.append([unit, y])
        for k in range(2, max(a.mults[b] for a in outer) + 1):
            powers[b].append(_divided(_product(y, powers[b][-1], range(top + 1), {}), k))
    out: dict[tuple[int, ...], Series] = {}
    for attach in {a.attach for a in outer}:
        partial = {a.mults: {0: {(0,) * classes: a.cls}} for a in outer if a.attach == attach}
        for b in reversed(range(classes)):
            summed: dict[tuple[int, ...], Series] = {}
            for mults, s in partial.items():
                room = wanted if b == 0 else range(top - sum(mults[:b]) + 1)
                _product(powers[b][mults[b]], s, room, summed.setdefault(mults[:b], {}))
            partial = summed
        out[attach] = partial[()]
    return SModClass(_atoms(out))
