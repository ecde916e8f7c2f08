"""Two independent routes to the class of compactified cover moduli.

Route one stratifies: over stable marked trees, keep the admissible
markings and sum one moduli factor per vertex.  Route two recurses: express
the degree-n class through the composition calculus applied to the open part
and to lower-degree tail classes.  The headline check is that the two routes
agree, type by type and group by group; the three stratification
identities (vertex, edge, inner-flag counts against the three recursion
terms) refine that agreement.

Everything is specific to abelian groups: there the smooth cover moduli over
a marking tuple is a product of the marked-point moduli with a finite set of
monodromy tuples, and vertex admissibility needs no ordering of the flags.
Nonabelian input is rejected up front.

Abelian monodromy also makes the stratification sum collapse.  Once the leaf
classes are chosen, each edge mark is forced to the product of the leaf marks
below it, and every vertex away from the root then multiplies to the identity
by construction.  Only the root condition can fail: the leaf marks must
multiply to the identity.  So every product-one marking carries one class,
the strata summed over valence profiles, weighted by trees.profile_counts,
without building a tree; each class is one element and the last mark is
forced, so the sweep counts order^(n-1) such markings and lists none.  The
brute-force sweep in tests/test_calculator.py enumerates the trees, marks
every edge freely and checks every vertex (trees.gerby_markings,
trees.is_admissible); it is the oracle for both shortcuts.

The recursion works on class types (smodules).  Its open part multiplies
out every sorted class tuple and, unlike Calculator.types, forces no entry.
Its tails enter through dbar_module, on the open walk's types of degrees
below n, each carrying the sweep class of its degree: the one crossing
between the routes, so each level of the ladder tests the recursion
against independently computed lower levels.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple

from .errors import MalformedSpec, UnsupportedNonabelian
from .groups import FiniteGroup
from .motives import ZERO, MotivePoly, class_m0n
from .smodules import (
    Atom,
    SModClass,
    compose,
    day_convolve,
    shift_root,
    unit_i1,
    unit_i2,
)
from .trees import NTree, enumerate_stable_trees, profile_counts, stratum_class_of_topology


class StrataSweep(NamedTuple):
    """Everything one pass over the valence profiles of degree n yields.

    Every product-one marking carries the one class strata, and every other
    marking none; total and the weighted sums count the order^(n-1)
    product-one markings.
    """

    n: int
    strata: MotivePoly
    total: MotivePoly
    vertex_weighted: MotivePoly
    edge_weighted: MotivePoly
    topology_count: int
    admissible_count: int


class VerificationReport(NamedTuple):
    """first_difference is the first type, in sorted order, whose classes
    differ, with the sweep's class and the recursion's; None if none does."""

    lhs: MotivePoly
    rhs: MotivePoly
    terms: tuple[tuple[str, MotivePoly], ...]
    first_difference: tuple[tuple[int, ...], MotivePoly, MotivePoly] | None

    @property
    def equal(self) -> bool:
        return self.first_difference is None


class Calculator:
    """Shared tables for one abelian group: sweeps, tails, recursion terms.

    It computes any degree it is asked; the command line checks the marking
    and stable tree caps before it builds a Calculator.
    """

    def __init__(self, group: FiniteGroup):
        if not group.is_abelian():
            raise UnsupportedNonabelian(
                f"group {group.name} is nonabelian; the cover moduli here "
                f"trivialize only over abelian monodromy"
            )
        self.group = group
        self.conj = group.conj
        self.iota = self.conj.involution.__getitem__
        self._sweeps: dict[int, StrataSweep] = {}
        self._terms: dict[int, tuple] = {}

    # ---- stratification route ----

    def topologies(self, n: int) -> list[NTree]:
        """The stable n-trees, built one by one.  No route calls this; it stays
        only as a binding that perfbench/trace_child.py wraps, as it wraps
        enumerate_stable_trees, gerby_markings and is_admissible."""
        return enumerate_stable_trees(n)

    def _closed(self, prefixes: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
        """Each prefix, then the class of the inverse of its product."""
        group, conj = self.group, self.conj
        table, reps = group.table, conj.representatives
        for prefix in prefixes:
            acc = group.identity
            for c in prefix:
                acc = table[acc][reps[c]]
            yield prefix + (conj.class_of[group.inverse[acc]],)

    def sweep(self, n: int) -> StrataSweep:
        """Sum stratum classes over every admissible marking of every topology.

        With the edge marks forced by the leaf marks below them, only the
        root condition can fail, so every topology admits exactly the leaf
        tuples whose marks multiply to the identity, and each such tuple
        gets the same class: the sum of the strata over all topologies.
        Each class of the abelian group is one element and the first n - 1
        marks force the last, so there are order^(n-1) such tuples, none
        listed.  test_sweep_matches_brute_force is the oracle for this.
        """
        if n in self._sweeps:
            return self._sweeps[n]
        profiles = profile_counts(n)
        strata = v_w = e_w = ZERO
        for valences, count in profiles.items():
            contrib = stratum_class_of_topology(valences).scale(count)
            strata = strata + contrib
            v_w = v_w + contrib.scale(len(valences))
            e_w = e_w + contrib.scale(len(valences) - 1)

        hits = self.group.order ** (n - 1)
        topology_count = sum(profiles.values())
        sweep = StrataSweep(
            n=n,
            strata=strata,
            total=strata.scale(hits),
            vertex_weighted=v_w.scale(hits),
            edge_weighted=e_w.scale(hits),
            topology_count=topology_count,
            admissible_count=hits * topology_count,
        )
        self._sweeps[n] = sweep
        return sweep

    def types(self, n: int) -> list[tuple[int, ...]]:
        """Each product-one type of degree n once, as a sorted class tuple: each
        sorted prefix of n - 1 classes closed by the class of its inverse
        product, kept if that class sorts last.  Not kept between calls: only
        verify_main_theorem reads it; the recursion walks its own (open_module)."""
        prefixes = itertools.combinations_with_replacement(range(self.conj.count), n - 1)
        return [t for t in self._closed(prefixes) if t[-2] <= t[-1]]

    def per_marking(self, n: int) -> Iterator[tuple[int, ...]]:
        """Every product-one marking of degree n, each carrying sweep(n).strata:
        each prefix of n - 1 classes closed by the class of its inverse product."""
        return self._closed(itertools.product(range(self.conj.count), repeat=n - 1))

    def class_bbar(self, n: int) -> MotivePoly:
        return self.sweep(n).total

    def class_bbar_marked(self, marking: tuple[int, ...]) -> MotivePoly:
        last = self.conj.count - 1
        for c in marking:
            if not 0 <= c <= last:
                raise MalformedSpec(f"marking names class {c}; class ids run 0..{last}")
        strata = self.sweep(len(marking)).strata
        return strata if next(self._closed([marking[:-1]])) == marking else ZERO

    # ---- recursion route ----

    def open_module(self, n: int) -> SModClass:
        """Open part, degrees 3..n: class_m0n(m) on each type of degree m whose marks
        multiply to the identity, by one depth-first walk over sorted class tuples."""
        table, identity = self.group.table, self.group.identity
        reps, count = self.conj.representatives, self.conj.count
        m0n = {m: class_m0n(m) for m in range(3, n + 1)}
        atoms = []

        def walk(prefix: tuple[int, ...], acc: int) -> None:
            for c in range(prefix[-1] if prefix else 0, count):
                t, product = prefix + (c,), table[acc][reps[c]]
                if product == identity and len(t) >= 3:
                    atoms.append(Atom(t, (), m0n[len(t)]))
                if len(t) < n:
                    walk(t, product)

        walk((), identity)
        return SModClass(atoms)

    def dbar_module(self, n: int) -> SModClass:
        """Rooted tails, degree k <= n-2: the open walk's types of degree k+1, each
        carrying the sweep class of its degree, rooted by shift_root at one evaluation."""
        strata = {k: self.sweep(k).strata for k in range(3, n)}
        tails = SModClass(a._replace(cls=strata[a.degree]) for a in self.open_module(n - 1).atoms())
        return shift_root(tails, self.conj.involution)

    def _term_atoms(self, n: int) -> tuple[tuple[Atom, ...], tuple[Atom, ...], list[Atom]]:
        """Degree-n atoms of the three recursion terms: slots, edge unit, ordered pairs.

        The ordered pairs are tails attached at a unit pair (c, iota(c)), so
        the c-tails are convolved with the iota(c)-tails, one class c at a time.
        """
        dbar = self.dbar_module(n)
        count, atoms = self.conj.count, dbar.atoms()
        tails = [SModClass(a for a in atoms if a.attach == (c,)) for c in range(count)]
        pairs = [
            atom
            for c in range(count)
            for atom in day_convolve(tails[c], tails[self.iota(c)], {n}).part(n)
        ]
        return (
            compose(self.open_module(n), unit_i1(count).union(dbar), {n}).part(n),
            compose(unit_i2(self.conj.involution), dbar, {n}).part(n),
            pairs,
        )

    def terms(self, n: int) -> tuple[tuple[MotivePoly, ...], dict[tuple[int, ...], MotivePoly]]:
        """The three recursion terms at degree n (third enters negatively), and
        their signed sum per type: the class of each marking of a type, keyed
        by the type's sorted class tuple, as types(n) lists it."""
        if n not in self._terms:
            term_atoms = self._term_atoms(n)
            totals = tuple(sum((a.cls.scale(a.tuple_count) for a in t), ZERO) for t in term_atoms)
            signed = SModClass(
                Atom(a.classes, (), a.cls.scale(sign))
                for sign, atoms in zip((1, 1, -1), term_atoms)
                for a in atoms
            )
            self._terms[n] = totals, {a.classes: a.cls for a in signed.atoms()}
        return self._terms[n]

    # ---- verification ----

    def verify_main_theorem(self, n: int) -> VerificationReport:
        """Both routes type by type.  Each total weights every type's class by
        its tuple count, so types that agree give totals that agree."""
        (t1, t2, t3), recursion = self.terms(n)
        strata = dict.fromkeys(self.types(n), self.sweep(n).strata)
        types = sorted({*strata, *recursion})
        sides = ((t, strata.get(t, ZERO), recursion.get(t, ZERO)) for t in types)
        return VerificationReport(
            lhs=self.class_bbar(n),
            rhs=t1 + t2 - t3,
            terms=(("slots", t1), ("edge_unit", t2), ("ordered_pairs", t3)),
            first_difference=next((s for s in sides if s[1] != s[2]), None),
        )

    def verify_mainprop(self, n: int) -> tuple[tuple[str, MotivePoly, MotivePoly], ...]:
        """Vertex-, edge- and inner-flag-weighted strata against the three
        terms, as (name, strata, term) triples.

        The third identity is twice the second on both sides, so it is no
        independent check: flags minus leaves is 2E on a tree with E edges,
        and the ordered pairs sum_c D_c D_iota(c) are twice the edge unit.
        """
        sweep = self.sweep(n)
        t1, t2, t3 = self.terms(n)[0]
        flags = sweep.edge_weighted.scale(2)  # flags minus leaves: two per edge
        return (
            ("vertex-weighted strata equal slot term", sweep.vertex_weighted, t1),
            ("edge-weighted strata equal edge-unit term", sweep.edge_weighted, t2),
            ("inner-flag-weighted strata equal ordered-pair term", flags, t3),
        )

    def euler_identity_check(self, n: int) -> bool:
        """Per valence profile: 1 + (#flags - #leaves) = #vertices + #edges.

        A profile lists the valences of a tree's V vertices, so its sum is
        the flag count and V - 1 is the edge count.  This holds by
        construction and cannot fail: profile_counts adds each leaf either
        as one flag on a vertex or on a new trivalent vertex, which brings
        one new edge, so every profile it yields has n + 2E flags and both
        sides equal 2E + 1.  Its line stays in the `verify --all-props`
        output as a consistency report, not as an independent check.
        """
        return all(1 + (sum(p) - n) == len(p) + (len(p) - 1) for p in profile_counts(n))
