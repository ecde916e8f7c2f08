"""Graded modules of typed generators and their composition calculus.

A generator of degree n over the set B of conjugacy classes carries an
evaluation tuple in B^n (one class per marked point), an optional root
attachment in B and a class in Z[q].  Every module of the recursion is
symmetric under permuting evaluations, so it is stored on types: an atom
holds, per type (the sorted tuple of its evaluations' classes, a multiset u
of sorts in B) and attachment, the class carried by each of the n!/u! tuples
of that type.  Read as the multisort exponential generating function
sum_u c_u x^u/u! (Bergeron-Labelle-Leroux 1998; Getzler 1995 for
composition as plethysm):

* unit_i1 / unit_i2: the one- and two-slot units, from the class count and
  the class involution iota; the degree-2 unit pairs c with iota[c].
* shift_root: drop the last evaluation and re-expose it, through iota, as
  the root attachment.
* day_convolve: the EGF product.  A tuple of type w splits between factors
  of types u and w - u in prod_b C(w_b, u_b) ways, where w_b counts the
  entries b of w; only the classes b that both factors hold give a factor
  other than 1.
* compose: plug inner generators rooted at the outer i-th evaluation into
  slot i and quotient by the slot permutations: EGF substitution
  sum_u c_u prod_b Y_b^(u_b)/u_b!, with Y_b the inner generators rooted at b
  and Y^k/k! = (Y * Y^(k-1)/(k-1)!) / k.

Products are truncated at the wanted degree and bucketed by degree, in
integers: each division by k must be exact, or it raises InexactDivision.
No group and no tuple-indexed data enter: the class data arrive as the class
count and iota (a tuple, iota[c] the class of the inverses of class c), and
the stratification classes per type.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial, prod
from typing import Container, Iterable, NamedTuple

from .errors import InexactDivision
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


class Atom(NamedTuple):
    """The generators of one type and root attachment, each of class cls."""

    classes: tuple[int, ...]
    attach: tuple[int, ...]
    cls: MotivePoly

    @property
    def degree(self) -> int:
        return len(self.classes)

    @property
    def tuple_count(self) -> int:
        """Number of evaluation tuples of this type: degree!/prod (run length)!."""
        runs = Counter(self.classes).values()
        return factorial(self.degree) // prod(map(factorial, runs))


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
            _add(merged.setdefault(a.attach, {}).setdefault(a.degree, {}), a.classes, a.cls)
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
        return sorted(_atoms(self._by_attach), key=lambda a: (a.degree, a.classes, a.attach))

    def union(self, other: "SModClass") -> "SModClass":
        return SModClass(self.atoms() + other.atoms())

    def __eq__(self, other) -> bool:
        return isinstance(other, SModClass) and self._by_attach == other._by_attach

    def __repr__(self) -> str:
        return f"SModClass({self.atoms()!r})"


def unit_i1(count: int) -> SModClass:
    """Degree-1 unit: one generator per class, attached at that class."""
    return SModClass(Atom((c,), (c,), ONE) for c in range(count))


def unit_i2(iota: tuple[int, ...]) -> SModClass:
    """Degree-2 unit: per class c, evaluations (c, iota[c]), trivial class.

    Its slot swap acts by exchanging the evaluations and applying the
    inversion involution, which permutes these generators among themselves.
    (iota[c], c) is of the same type, so each type is taken once, at c <= iota[c].
    """
    return SModClass(Atom((c, i), (), ONE) for c, i in enumerate(iota) if c <= i)


def shift_root(x: SModClass, iota: tuple[int, ...]) -> SModClass:
    """Drop the last evaluation, re-exposing it through inversion as the root:
    the tuples of type w ending in b become w less one b, rooted at iota[b]."""
    out = []
    for a in x.atoms():
        if a.degree == 0:
            raise ValueError("degree-0 generator has no evaluation to re-expose")
        if a.attach:
            raise ValueError("generator already carries a root attachment")
        t = a.classes
        out.extend(
            Atom(t[:i] + t[i + 1 :], (iota[b],), a.cls)
            for i, b in enumerate(t)
            if i == 0 or t[i - 1] != b
        )
    return SModClass(out)


def _product(x: Series, y: Series, keep: Container[int], out: Series) -> Series:
    """Add the EGF product of x and y, in the degrees keep contains, into out."""
    for dx, px in x.items():
        for dy, py in y.items():
            if dx + dy in keep:
                acc = out.setdefault(dx + dy, {})
                for u, cu in px.items():
                    held = set(u)
                    for v, cv in py.items():
                        splits = prod(
                            comb(u.count(b) + v.count(b), u.count(b)) for b in held.intersection(v)
                        )
                        _add(acc, tuple(sorted(u + v)), (cu * cv).scale(splits))
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
    over the classes that occur in the outer types, from the last to the
    first.  The partial sums are keyed by sorted class tuples, at first the
    outer types.  At class b, each key that ends in a run of k entries b is
    multiplied by Y_b^k/k!, truncated at the degree that the prefix before
    that run leaves room for (each slot takes a label or more), and added
    into the prefix's key.  A degree-0 generator of x passes through.
    """
    if w.part(0):
        raise ValueError("inner module must have empty degree-0 part")
    for attach, series in w._by_attach.items():
        if len(attach) != 1:
            raise ValueError(f"inner generators at degrees {sorted(series)} lack a root attachment")
    wanted = set(degrees)
    top = max(wanted, default=-1)
    outer = [a for a in x.atoms() if a.degree <= top]
    runs: dict[int, int] = {}  # each class's longest run in an outer type
    for a in outer:
        for b, k in Counter(a.classes).items():
            runs[b] = max(runs.get(b, 0), k)
    powers: dict[int, list[Series]] = {}
    for b, most in runs.items():
        y = w._by_attach.get((b,), {})
        powers[b] = [y]  # powers[b][k - 1] is Y_b^k/k!
        for k in range(2, most + 1):
            powers[b].append(_divided(_product(y, powers[b][-1], range(top + 1), {}), k))
    out: dict[tuple[int, ...], Series] = {}
    for attach in {a.attach for a in outer}:
        partial = {a.classes: {0: {(): a.cls}} for a in outer if a.attach == attach}
        for b in sorted(runs, reverse=True):
            for t in [t for t in partial if t and t[-1] == b]:
                head = t.index(b)
                room = range(top - head + 1) if head else wanted
                into = partial.setdefault(t[:head], {})
                _product(powers[b][len(t) - head - 1], partial.pop(t), room, into)
        out[attach] = {d: part for d, part in partial.get((), {}).items() if d in wanted}
    return SModClass(_atoms(out))
