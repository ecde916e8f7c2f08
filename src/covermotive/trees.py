"""Stable trees with labeled leaves, and conjugacy-class markings on them.

A tree is a finite set of flags (half-edges), an involution j pairing flags
into edges (fixed flags are leaves), and a map sending each flag to its
vertex.  Stability means every vertex carries at least three flags.  A tree
with leaves labeled 1..n indexes a boundary stratum of the compactified
moduli of covers, with one moduli factor per vertex.

Stable trees with labeled leaves have no nontrivial automorphisms, which is
what lets strata be enumerated by plain isomorphism-class representatives.
Up to isomorphism they correspond to laminar families over {2, ..., n}: root
the tree at the vertex holding leaf 1, and record for every edge the set of
leaf labels behind it.  Members have size between 2 and n - 2 and are
pairwise nested or disjoint, and every such family arises.  That bijection
drives the enumerator; tests/oracles.py holds an independent brute-force
count.

An NTree is the canonical encoding of that rooted picture.  Vertex 0 holds
leaf 1, and vertex v > 0 is the far end of edge v - 1, the one behind which
lie the labels of the v-th member of the family; the edge's near end is
vertex up[v - 1], and home[l - 1] is the vertex of leaf l.  The flags are
then implicit: one per leaf at its home, and per edge one at each end.  No
command builds a tree.  The enumerator, gerby_markings and is_admissible
serve the brute-force references in tests/ and the bindings that
perfbench/trace_child.py wraps; they move into tests/ once that tracer no
longer wraps them.

Every number printed about the strata depends only on how many trees have
each valence profile, and profile_counts finds those without building a
tree.  Forgetting leaf n sends an n-tree to an (n-1)-tree plus the site the
leaf sat at: a vertex of valence v, which had v + 1, or one of the V - 1
internal and n - 1 leaf edges, which a trivalent vertex holding the leaf
subdivided.  Each (tree, site) pair arises once.

A marking assigns a conjugacy class to every flag.  The two flags of an edge
carry classes exchanged by the inversion involution: the local monodromies
at the two branches of a node are inverse to each other.  So a marking is
one class per leaf and one per edge, the class at the edge's far end; its
near end carries the inverse class.  At each vertex the admissibility
convention is that the product of the marks on its flags is the identity
class; with the edge pairing above, this makes the marks of an admissible
tree propagate uniquely from its leaves.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import NamedTuple

from .errors import UnsupportedNonabelian
from .groups import FiniteGroup
from .motives import MotivePoly, class_m0n


class NTree(NamedTuple):
    """Stable tree with leaves labeled 1..n, rooted at leaf 1's vertex 0.

    home[l - 1] is the vertex of leaf l; vertex v > 0 is the far end of edge
    v - 1, whose near end is up[v - 1].
    """

    home: tuple[int, ...]
    up: tuple[int, ...]

    def valences(self) -> list[int]:
        """The flag count of each vertex: its leaves, its far end, its near ends."""
        counts = [0] + [1] * len(self.up)
        for v in self.home + self.up:
            counts[v] += 1
        return counts


def _laminar_families(n: int):
    """Yield every laminar family of subsets of {2..n} with sizes in [2, n-2]."""
    universe = list(range(2, n + 1))
    candidates = []
    for size in range(2, n - 1):
        for combo in itertools.combinations(universe, size):
            candidates.append(frozenset(combo))
    candidates.sort(key=lambda s: (len(s), tuple(sorted(s))))

    def compatible(a: frozenset, b: frozenset) -> bool:
        return a <= b or b <= a or not (a & b)

    def extend(start: int, chosen: list[frozenset]):
        yield tuple(chosen)
        for i in range(start, len(candidates)):
            c = candidates[i]
            if all(compatible(c, s) for s in chosen):
                chosen.append(c)
                yield from extend(i + 1, chosen)
                chosen.pop()

    yield from extend(0, [])


def _tree_from_family(n: int, family: tuple[frozenset, ...]) -> NTree:
    """Build the canonical representative tree for a laminar family: each leaf
    and each member sits at the smallest member strictly containing it."""
    sets = sorted(family, key=lambda s: (min(s), len(s), tuple(sorted(s))))

    def parent(inner: frozenset) -> int:
        over = [v for v, s in enumerate(sets, 1) if inner < s]
        return min(over, key=lambda v: len(sets[v - 1]), default=0)

    return NTree(
        tuple(parent(frozenset({label})) for label in range(1, n + 1)),
        tuple(parent(s) for s in sets),
    )


def enumerate_stable_trees(n: int) -> list[NTree]:
    """One representative per isomorphism class of stable n-trees, in a fixed order."""
    if n < 3:
        raise ValueError(f"need at least 3 leaves, got {n}")
    families = sorted(
        _laminar_families(n),
        key=lambda fam: (len(fam), tuple(sorted(tuple(sorted(s)) for s in fam))),
    )
    return [_tree_from_family(n, fam) for fam in families]


def profile_counts(n: int) -> Counter[tuple[int, ...]]:
    """How many stable n-trees have each sorted valence profile, built leaf by
    leaf through the forgetful map (module docstring); the totals are A000311."""
    if n < 3:
        raise ValueError(f"need at least 3 leaves, got {n}")
    counts = Counter({(3,): 1})
    for leaves in range(3, n):  # add leaf number leaves + 1
        grown: Counter[tuple[int, ...]] = Counter()
        for profile, count in counts.items():
            for i, valence in enumerate(profile):
                grown[tuple(sorted(profile[:i] + (valence + 1,) + profile[i + 1 :]))] += count
            grown[(3,) + profile] += count * (len(profile) - 1 + leaves)  # edges
        counts = grown
    return counts


def gerby_markings(nt: NTree, group: FiniteGroup) -> list[tuple[int, ...]]:
    """Every marking of the tree by conjugacy classes, in a fixed order: one
    class per leaf by label, then one per edge, the class at its far end."""
    return list(itertools.product(range(group.conj.count), repeat=len(nt.home) + len(nt.up)))


def is_admissible(group: FiniteGroup, nt: NTree, marks: tuple[int, ...]) -> bool:
    """Whether the marks at every vertex multiply to the identity: its leaf
    marks, the mark at its far end and the inverse class at each near end.

    Only defined here for abelian groups, where the product needs no order.
    """
    if not group.is_abelian():
        raise UnsupportedNonabelian("vertex admissibility needs an unordered product; abelian only")
    table, reps, iota = group.table, group.conj.representatives, group.conj.involution
    edges = len(nt.up)
    vertices = (*nt.home, *range(1, edges + 1), *nt.up)
    classes = (*marks, *(iota[c] for c in marks[len(nt.home) :]))
    acc = [group.identity] * (edges + 1)
    for v, c in zip(vertices, classes):
        acc[v] = table[acc[v]][reps[c]]
    return all(x == group.identity for x in acc)


def stratum_class_of_topology(n_valences: tuple[int, ...]) -> MotivePoly:
    """Product over vertices of the marked-point moduli class, keyed by the
    valence profile."""
    acc = MotivePoly((1,))
    for val in n_valences:
        acc = acc * class_m0n(val)
    return acc
