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
without building a tree, and the sweep lists only the product-one class
types (sorted class tuples).  The brute-force sweep in
tests/test_calculator.py enumerates the trees, marks every edge freely and
checks every vertex (trees.gerby_markings, trees.is_admissible); it is the
oracle for both shortcuts.

The recursion works on class types (smodules).  Its open part multiplies
out every sorted class tuple and, unlike the sweep, forces no entry.  Its
tails are the sweep classes of degrees below n, which enter through
bbar_module, the one crossing between the routes, as one generator per
product-one type; so each level of the ladder tests the recursion against
independently computed lower levels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, prod
from typing import Iterable, Iterator

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


@dataclass
class StrataSweep:
    """Everything one pass over the product-one types of degree n yields.

    types lists each product-one type once, as a sorted class tuple; every
    marking of such a type carries the one class strata, and every other
    marking none.
    """

    n: int
    types: tuple[tuple[int, ...], ...]
    strata: MotivePoly
    total: MotivePoly
    vertex_weighted: MotivePoly
    edge_weighted: MotivePoly
    topology_count: int
    admissible_count: int


@dataclass(frozen=True)
class VerificationReport:
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
        Each sorted prefix of n - 1 classes is closed by the class of its
        inverse product, and kept if that class sorts last, which lists each
        product-one type once.  test_sweep_matches_brute_force is the oracle
        for this.
        """
        if n in self._sweeps:
            return self._sweeps[n]
        profiles = profile_counts(n)
        prefixes = itertools.combinations_with_replacement(range(self.conj.count), n - 1)
        types = tuple(t for t in self._closed(prefixes) if t[-2] <= t[-1])

        strata = v_w = e_w = ZERO
        for valences, count in profiles.items():
            contrib = stratum_class_of_topology(valences).scale(count)
            strata = strata + contrib
            v_w = v_w + contrib.scale(len(valences))
            e_w = e_w + contrib.scale(len(valences) - 1)

        hits = sum(factorial(n) // prod(factorial(t.count(c)) for c in set(t)) for t in types)
        topology_count = sum(profiles.values())
        sweep = StrataSweep(
            n=n,
            types=types,
            strata=strata,
            total=strata.scale(hits),
            vertex_weighted=v_w.scale(hits),
            edge_weighted=e_w.scale(hits),
            topology_count=topology_count,
            admissible_count=hits * topology_count,
        )
        self._sweeps[n] = sweep
        return sweep

    def per_marking(self, n: int) -> dict[tuple[int, ...], MotivePoly]:
        """Every product-one marking of degree n with its class: each prefix
        of n - 1 classes closed by the class of its inverse product."""
        strata = self.sweep(n).strata
        prefixes = itertools.product(range(self.conj.count), repeat=n - 1)
        return dict.fromkeys(self._closed(prefixes), strata)

    def class_bbar(self, n: int) -> MotivePoly:
        return self.sweep(n).total

    def class_bbar_marked(self, marking: tuple[int, ...]) -> MotivePoly:
        last = self.conj.count - 1
        for c in marking:
            if not 0 <= c <= last:
                raise MalformedSpec(f"marking names class {c}; class ids run 0..{last}")
        sweep = self.sweep(len(marking))
        return sweep.strata if tuple(sorted(marking)) in sweep.types else ZERO

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

    def bbar_module(self, up_to: int) -> SModClass:
        """Stratification classes as generators, degrees 3..up_to, by type."""
        sweeps = [self.sweep(k) for k in range(3, up_to + 1)]
        return SModClass(Atom(t, (), s.strata) for s in sweeps for t in s.types)

    def dbar_module(self, n: int) -> SModClass:
        """Rooted tails: degree-k generators from degree-(k+1) classes, k <= n-2."""
        return shift_root(self.bbar_module(n - 1), self.conj.involution)

    def _term_atoms(self, n: int) -> tuple[tuple[Atom, ...], tuple[Atom, ...], list[Atom]]:
        """Degree-n atoms of the three recursion terms: slots, edge unit, ordered pairs.

        The ordered pairs are tails attached at a unit pair (c, iota(c)), so
        the c-tails are convolved with the iota(c)-tails, one class c at a time.
        """
        dbar = self.dbar_module(n)
        count = self.conj.count
        tails = [SModClass(a for a in dbar.atoms() if a.attach == (c,)) for c in range(count)]
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
        by the type's sorted class tuple, as sweep(n).types lists it."""
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
        sweep = self.sweep(n)
        strata = dict.fromkeys(sweep.types, sweep.strata)
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
