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
count.  No command builds a tree.  The enumerator, the tree types,
gerby_markings and is_admissible serve the brute-force references in tests/
and the bindings that perfbench/trace_child.py wraps; they move into tests/
once that tracer no longer wraps them.

Every number printed about the strata depends only on how many trees have
each valence profile, and profile_counts finds those without building a
tree.  Forgetting leaf n sends an n-tree to an (n-1)-tree plus the site the
leaf sat at: a vertex of valence v, which had v + 1, or one of the V - 1
internal and n - 1 leaf edges, which a trivalent vertex holding the leaf
subdivided.  Each (tree, site) pair arises once.

A marking assigns a conjugacy class to every flag.  The two flags of an edge
carry classes exchanged by the inversion involution: the local monodromies
at the two branches of a node are inverse to each other.  At each vertex the
admissibility convention is that the product of the marks on its flags is
the identity class; with the edge pairing above, this makes the marks of an
admissible tree propagate uniquely from its leaves.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import UnsupportedNonabelian
from .groups import FiniteGroup
from .motives import MotivePoly, class_m0n


@dataclass(frozen=True)
class Tree:
    """Flag structure: involution j and flag-to-vertex map."""

    j: tuple[int, ...]
    vertex_of: tuple[int, ...]

    def __post_init__(self):
        f = len(self.j)
        if len(self.vertex_of) != f:
            raise ValueError("j and vertex_of must have the same length")
        for i in range(f):
            if not 0 <= self.j[i] < f or self.j[self.j[i]] != i:
                raise ValueError("j is not an involution")
        v = self.vertex_count
        if sorted(set(self.vertex_of)) != list(range(v)):
            raise ValueError("vertex ids must be dense 0..V-1")
        edges = self.edges()
        for a, b in edges:
            if self.vertex_of[a] == self.vertex_of[b]:
                raise ValueError("edge loops at a single vertex")
        if len(edges) != v - 1:
            raise ValueError("flag structure is not a tree: wrong edge count")
        # Connectivity: V = E + 1 plus connected is equivalent to being a tree.
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for a, b in edges:
                    for x, y in ((a, b), (b, a)):
                        if self.vertex_of[x] == u and self.vertex_of[y] not in seen:
                            seen.add(self.vertex_of[y])
                            nxt.append(self.vertex_of[y])
            frontier = nxt
        if len(seen) != v:
            raise ValueError("flag structure is not connected")

    @property
    def flag_count(self) -> int:
        return len(self.j)

    @property
    def vertex_count(self) -> int:
        return max(self.vertex_of) + 1 if self.vertex_of else 0

    def leaves(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.flag_count) if self.j[i] == i)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, self.j[i]) for i in range(self.flag_count) if i < self.j[i])

    def flags_at(self, v: int) -> tuple[int, ...]:
        return tuple(i for i in range(self.flag_count) if self.vertex_of[i] == v)

    def valence(self, v: int) -> int:
        return sum(1 for x in self.vertex_of if x == v)


@dataclass(frozen=True)
class NTree:
    """Stable tree with leaves labeled bijectively by 1..n.

    labels[f] is the label of leaf flag f, and 0 on non-leaf flags.
    """

    tree: Tree
    labels: tuple[int, ...]

    def __post_init__(self):
        leaves = self.tree.leaves()
        n = len(leaves)
        if len(self.labels) != self.tree.flag_count:
            raise ValueError("labels must cover every flag")
        got = sorted(self.labels[f] for f in leaves)
        if got != list(range(1, n + 1)):
            raise ValueError(f"leaf labels must be a bijection onto 1..{n}")
        for f in range(self.tree.flag_count):
            if self.tree.j[f] != f and self.labels[f] != 0:
                raise ValueError("non-leaf flags must carry label 0")
        for v in range(self.tree.vertex_count):
            if self.tree.valence(v) < 3:
                raise ValueError(f"vertex {v} has valence {self.tree.valence(v)} < 3")

    @property
    def n(self) -> int:
        return len(self.tree.leaves())


@dataclass(frozen=True)
class GerbyTree:
    """Stable labeled tree with a conjugacy class attached to every flag.

    With gerby_markings and is_admissible, the brute-force reference of
    test_sweep_matches_brute_force; perfbench/trace_child.py wraps them too.
    """

    ntree: NTree
    marks: tuple[int, ...]

    def __post_init__(self):
        if len(self.marks) != self.ntree.tree.flag_count:
            raise ValueError("marks must cover every flag")


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
    """Build the canonical representative tree for a laminar family."""
    sets = sorted(family, key=lambda s: (min(s), len(s), tuple(sorted(s))))

    def vertex_of_set(s: frozenset | None) -> int:
        return 0 if s is None else 1 + sets.index(s)

    def parent_set(s: frozenset) -> frozenset | None:
        supersets = [t for t in sets if s < t]
        if not supersets:
            return None
        return min(supersets, key=len)

    def home_of_label(label: int) -> frozenset | None:
        containing = [t for t in sets if label in t]
        if not containing:
            return None
        return min(containing, key=len)

    flag_count = n + 2 * len(sets)
    j = list(range(flag_count))
    vertex_of = [0] * flag_count
    labels = [0] * flag_count
    vertex_of[0] = 0  # leaf 1 always sits at the root
    labels[0] = 1
    for label in range(2, n + 1):
        vertex_of[label - 1] = vertex_of_set(home_of_label(label))
        labels[label - 1] = label
    for t, s in enumerate(sets):
        up, down = n + 2 * t, n + 2 * t + 1
        j[up], j[down] = down, up
        vertex_of[up] = vertex_of_set(parent_set(s))
        vertex_of[down] = vertex_of_set(s)
    return NTree(Tree(tuple(j), tuple(vertex_of)), tuple(labels))


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


def gerby_markings(nt: NTree, group: FiniteGroup) -> list[GerbyTree]:
    """Every marking of the tree by conjugacy classes, in a fixed order.

    Free choices are one class per leaf and one class per edge; the partner
    flag of an edge is forced through the inversion involution.
    """
    leaves = nt.tree.leaves()
    edges = nt.tree.edges()
    out = []
    for choice in itertools.product(range(group.conj.count), repeat=len(leaves) + len(edges)):
        marks = [0] * nt.tree.flag_count
        for f, c in zip(leaves, choice):
            marks[f] = c
        for (a, b), c in zip(edges, choice[len(leaves) :]):
            marks[a] = c
            marks[b] = group.conj.involution[c]
        out.append(GerbyTree(nt, tuple(marks)))
    return out


def is_admissible(group: FiniteGroup, gt: GerbyTree) -> bool:
    """Whether the marks at every vertex multiply to the identity.

    Only defined here for abelian groups, where the product needs no order.
    """
    if not group.is_abelian():
        raise UnsupportedNonabelian("vertex admissibility needs an unordered product; abelian only")
    tree, table, reps = gt.ntree.tree, group.table, group.conj.representatives
    for v in range(tree.vertex_count):
        acc = group.identity
        for f in tree.flags_at(v):
            acc = table[acc][reps[gt.marks[f]]]
        if acc != group.identity:
            return False
    return True


def stratum_class_of_topology(n_valences: tuple[int, ...]) -> MotivePoly:
    """Product over vertices of the marked-point moduli class, keyed by the
    valence profile."""
    acc = MotivePoly((1,))
    for val in n_valences:
        acc = acc * class_m0n(val)
    return acc
