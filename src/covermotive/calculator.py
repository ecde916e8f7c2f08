"""Two independent routes to the class of compactified cover moduli.

Route one stratifies: over stable marked trees, keep the admissible
markings and sum one moduli factor per vertex.  Route two recurses: express
the degree-n class through the composition calculus applied to the open part
and to lower-degree tail classes.  The headline check is that the two routes
agree, degree by degree and group by group; the three stratification
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
multiply to the identity.  So the sweep lists the product-one leaf tuples
once and sums the strata over valence profiles, weighted by
trees.profile_counts, without building a tree.  The brute-force sweep in
tests/test_calculator.py enumerates the trees, marks every edge freely and
checks every vertex (trees.gerby_markings, trees.is_admissible); it is the
oracle for both shortcuts.

The recursion works on class types (smodules).  Its open part tests product
one per type with hurwitz.nielsen_count, not the sweep's multiplication.  Its
tails are the sweep classes of degrees below n, which enter through
bbar_module, the one crossing between the routes, where each type's tuples
must carry one class; so each level of the ladder tests the recursion
against independently computed lower levels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NegativeCoefficient, UnsupportedNonabelian
from .groups import FiniteGroup, class_involution, conjugacy_classes
from .hurwitz import nielsen_count
from .motives import ZERO, MotivePoly, class_m0n, format_poly, monomial, to_poincare
from .smodules import (
    Atom,
    SModClass,
    compose,
    day_convolve,
    shift_root,
    tuples_of,
    type_of,
    unit_i1,
    unit_i2,
)
from .trees import (
    STABLE_TREE_CAP,
    NTree,
    enumerate_stable_trees,
    profile_counts,
    stratum_class_of_topology,
)


@dataclass
class StrataSweep:
    """Everything one pass over the admissible markings of degree n yields."""

    n: int
    per_marking: dict[tuple[int, ...], MotivePoly]
    total: MotivePoly
    vertex_weighted: MotivePoly
    edge_weighted: MotivePoly
    inner_flag_weighted: MotivePoly
    topology_count: int
    admissible_count: int


@dataclass(frozen=True)
class VerificationReport:
    name: str
    group_name: str
    n: int
    lhs: MotivePoly
    rhs: MotivePoly
    terms: tuple[tuple[str, MotivePoly], ...]

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


class Calculator:
    """Shared tables for one abelian group: sweeps, tails, recursion terms."""

    def __init__(self, group: FiniteGroup, tree_cap: int = STABLE_TREE_CAP):
        if not group.is_abelian():
            raise UnsupportedNonabelian(
                f"group {group.name} is nonabelian; the cover moduli here "
                f"trivialize only over abelian monodromy"
            )
        self.group = group
        self.conj = conjugacy_classes(group)
        self.iota = class_involution(group)
        self.tree_cap = tree_cap
        self._sweeps: dict[int, StrataSweep] = {}
        self._terms: dict[int, tuple[MotivePoly, MotivePoly, MotivePoly]] = {}

    # ---- stratification route ----

    def topologies(self, n: int) -> list[NTree]:
        """The stable n-trees, built one by one.  No route calls this; it stays
        only as a binding that perfbench/trace_child.py wraps, as GerbyTree does."""
        return enumerate_stable_trees(n, self.tree_cap)

    def sweep(self, n: int) -> StrataSweep:
        """Sum stratum classes over every admissible marking of every topology.

        With the edge marks forced by the leaf marks below them, only the
        root condition can fail, so every topology admits exactly the leaf
        tuples whose marks multiply to the identity, and each such tuple
        gets the same class: the sum of the strata over all topologies.
        Each prefix of n - 1 classes is closed by the class of its inverse
        product.  test_sweep_matches_brute_force is the oracle for this.
        """
        if n in self._sweeps:
            return self._sweeps[n]
        group, conj = self.group, self.conj
        markings = []
        for prefix in itertools.product(range(conj.count), repeat=n - 1):
            acc = group.identity
            for c in prefix:
                acc = group.mul(acc, conj.representatives[c])
            markings.append(prefix + (conj.class_of[group.inv(acc)],))

        profiles = profile_counts(n, self.tree_cap)
        strata = v_w = e_w = ZERO
        for valences, count in profiles.items():
            contrib = stratum_class_of_topology(valences).scale(count)
            strata = strata + contrib
            v_w = v_w + contrib.scale(len(valences))
            e_w = e_w + contrib.scale(len(valences) - 1)

        hits = len(markings)
        topology_count = sum(profiles.values())
        sweep = StrataSweep(
            n=n,
            per_marking=dict.fromkeys(markings, strata),
            total=strata.scale(hits),
            vertex_weighted=v_w.scale(hits),
            edge_weighted=e_w.scale(hits),
            inner_flag_weighted=e_w.scale(2 * hits),  # flags minus leaves
            topology_count=topology_count,
            admissible_count=hits * topology_count,
        )
        self._sweeps[n] = sweep
        return sweep

    def class_bbar(self, n: int) -> MotivePoly:
        return self.sweep(n).total

    def class_bbar_marked(self, marking: tuple[int, ...]) -> MotivePoly:
        for c in marking:
            if not 0 <= c < self.conj.count:
                raise ValueError(f"no conjugacy class {c}")
        return self.sweep(len(marking)).per_marking.get(tuple(marking), ZERO)

    # ---- recursion route ----

    def open_module(self, n: int) -> SModClass:
        """Open part, degrees 3..n: class_m0n(m) on each type that carries a cover."""
        count = self.conj.count
        atoms = []
        for m in range(3, n + 1):
            cls = class_m0n(m)
            for cvec in itertools.combinations_with_replacement(range(count), m):
                if nielsen_count(self.group, cvec) == 1:
                    atoms.append(Atom(type_of(cvec, count), (), cls))
        return SModClass(atoms)

    def bbar_module(self, up_to: int) -> SModClass:
        """Stratification classes as generators, degrees 3..up_to, by type."""
        per_marking = {}
        for k in range(3, up_to + 1):
            per_marking.update(((cvec, ()), cls) for cvec, cls in self.sweep(k).per_marking.items())
        return SModClass.from_tuples(per_marking, self.conj.count)

    def dbar_module(self, n: int) -> SModClass:
        """Rooted tails: degree-k generators from degree-(k+1) classes, k <= n-2."""
        return shift_root(self.bbar_module(n - 1), self.group)

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
            compose(self.open_module(n), unit_i1(self.group).union(dbar), {n}).part(n),
            compose(unit_i2(self.group), dbar, {n}).part(n),
            pairs,
        )

    def terms(self, n: int) -> tuple[MotivePoly, MotivePoly, MotivePoly]:
        """The three recursion terms at degree n (third enters negatively)."""
        if n not in self._terms:
            counted = [[a.cls.scale(a.tuple_count) for a in atoms] for atoms in self._term_atoms(n)]
            self._terms[n] = tuple(sum(classes, ZERO) for classes in counted)
        return self._terms[n]

    def recursion_refinement(self, n: int) -> dict[tuple[int, ...], MotivePoly]:
        """Per-marking breakdown of the recursion side, for diagnostics."""
        signed = SModClass(
            Atom(a.mults, (), a.cls.scale(sign))
            for sign, atoms in zip((1, 1, -1), self._term_atoms(n))
            for a in atoms
        )
        return {cvec: a.cls for a in signed.atoms() for cvec in tuples_of(a.mults)}

    # ---- verification ----

    def verify_main_theorem(self, n: int) -> VerificationReport:
        t1, t2, t3 = self.terms(n)
        return VerificationReport(
            name="stratification equals recursion",
            group_name=self.group.name,
            n=n,
            lhs=self.class_bbar(n),
            rhs=t1 + t2 - t3,
            terms=(("slots", t1), ("edge_unit", t2), ("ordered_pairs", t3)),
        )

    def verify_mainprop(self, n: int) -> tuple[VerificationReport, ...]:
        """Vertex-, edge- and inner-flag-weighted strata against the three terms.

        The third identity is twice the second on both sides, so it is no
        independent check: flags minus leaves is 2E on a tree with E edges,
        and the ordered pairs sum_c D_c D_iota(c) are twice the edge unit.
        """
        sweep = self.sweep(n)
        t1, t2, t3 = self.terms(n)
        mk = lambda name, lhs, rhs, tag: VerificationReport(
            name=name,
            group_name=self.group.name,
            n=n,
            lhs=lhs,
            rhs=rhs,
            terms=((tag, rhs),),
        )
        return (
            mk("vertex-weighted strata equal slot term", sweep.vertex_weighted, t1, "slots"),
            mk("edge-weighted strata equal edge-unit term", sweep.edge_weighted, t2, "edge_unit"),
            mk(
                "inner-flag-weighted strata equal ordered-pair term",
                sweep.inner_flag_weighted,
                t3,
                "ordered_pairs",
            ),
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
        return all(
            1 + (sum(p) - n) == len(p) + (len(p) - 1) for p in profile_counts(n, self.tree_cap)
        )


@dataclass
class ClassReport:
    """Everything the report command serializes for one (group, n)."""

    group_name: str
    n: int
    cls: MotivePoly
    hodge_euler: str
    poincare: tuple[int, ...] | None
    per_marking: dict[tuple[int, ...], MotivePoly] | None
    census: dict[str, int]
    verification: VerificationReport | None


def build_report(
    calc: Calculator,
    n: int,
    marking: tuple[int, ...] | None = None,
    with_per_marking: bool = False,
    with_verification: bool = False,
) -> ClassReport:
    if marking is not None:
        cls = calc.class_bbar_marked(marking)
    else:
        cls = calc.class_bbar(n)
    try:
        poincare = to_poincare(cls)
    except NegativeCoefficient:
        poincare = None
    sweep = calc.sweep(n)
    # A tree with E edges (E + 1 vertices) carries classes^(n + E) markings.
    gerby_total = sum(
        count * calc.conj.count ** (n + len(profile) - 1)
        for profile, count in profile_counts(n, calc.tree_cap).items()
    )
    census = {
        "topologies": sweep.topology_count,
        "gerby_trees": gerby_total,
        "admissible_strata": sweep.admissible_count,
    }
    return ClassReport(
        group_name=calc.group.name,
        n=n,
        cls=cls,
        hodge_euler=format_poly(cls.coeffs, monomial("u", "v")),
        poincare=poincare,
        per_marking=dict(sorted(sweep.per_marking.items())) if with_per_marking else None,
        census=census,
        verification=calc.verify_main_theorem(n) if with_verification else None,
    )
