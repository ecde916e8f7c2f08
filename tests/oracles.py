"""Independent brute-force oracles used to pin expected values in tests.

Nothing here shares code with the production enumerators: point counts run
over an explicit prime field, and tree counts are produced by generating raw
labeled-tree structures and discarding isomorphic duplicates by exhaustive
bijection search.  Slow on purpose; capped on purpose.  The valence-profile
counts also have a closed form, by Lagrange inversion, that reaches the
degrees brute force cannot.  The helpers at the end read single strata and
polynomials the way the brute-force sweep in test_calculator.py needs them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial

from covermotive.errors import CoverMotiveError
from covermotive.groups import FiniteGroup
from covermotive.motives import ZERO, MotivePoly, class_m0n
from covermotive.trees import GerbyTree, NTree, is_admissible

DEFAULT_POINT_CAP = 10**8
DEFAULT_TREE_CAP = 6


class CapExceeded(CoverMotiveError):
    """A brute-force oracle was asked for more work than its cap allows."""


@dataclass(frozen=True)
class PrimeField:
    """The field with p elements, p checked prime by trial division."""

    p: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"{self.p} is not prime")
        d = 2
        while d * d <= self.p:
            if self.p % d == 0:
                raise ValueError(f"{self.p} is not prime: divisible by {d}")
            d += 1

    def elements(self) -> range:
        return range(self.p)


def brute_force_m0n_count(n: int, p: int, cap: int = DEFAULT_POINT_CAP) -> int:
    """Count configurations of n distinct marked points on a line over F_p.

    Three points are pinned to 0, 1 and infinity; the remaining n - 3
    coordinates are counted directly: pairwise distinct field elements
    avoiding 0 and 1.
    """
    if n < 3:
        raise ValueError(f"need at least 3 marked points, got {n}")
    field = PrimeField(p)
    if p ** (n - 3) > cap:
        raise CapExceeded(f"{p}^{n - 3} exceeds cap {cap}")
    allowed = [x for x in field.elements() if x not in (0, 1)]
    return sum(1 for _ in itertools.permutations(allowed, n - 3))


def _labeled_trees(v: int) -> list[frozenset[tuple[int, int]]]:
    """All trees on vertices 0..v-1 as edge sets, decoded from Prufer sequences."""
    if v == 1:
        return [frozenset()]
    out = []
    for seq in itertools.product(range(v), repeat=v - 2):
        degree = [1] * v
        for x in seq:
            degree[x] += 1
        edges = set()
        for x in seq:
            leaf = min(u for u in range(v) if degree[u] == 1)
            edges.add((min(leaf, x), max(leaf, x)))
            degree[leaf] -= 1
            degree[x] -= 1
        a, b = (u for u in range(v) if degree[u] == 1)
        edges.add((min(a, b), max(a, b)))
        out.append(frozenset(edges))
    return out


def brute_force_tree_count(n: int, cap: int = DEFAULT_TREE_CAP) -> int:
    """Count stable trees with leaves labeled 1..n up to isomorphism.

    Generates every (tree on v vertices, assignment of leaf labels to
    vertices) pair within the structural bounds, keeps the stable ones, and
    discards duplicates by trying all vertex bijections.
    """
    if n < 3:
        raise ValueError(f"need at least 3 leaves, got {n}")
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds tree oracle cap {cap}")

    retained: list[tuple[int, frozenset[tuple[int, int]], tuple[int, ...]]] = []
    for v in range(1, n - 1):
        for edges in _labeled_trees(v):
            degree = [0] * v
            for a, b in edges:
                degree[a] += 1
                degree[b] += 1
            for assignment in itertools.product(range(v), repeat=n):
                leaf_count = [0] * v
                for vert in assignment:
                    leaf_count[vert] += 1
                if any(degree[w] + leaf_count[w] < 3 for w in range(v)):
                    continue
                cand = (v, edges, assignment)
                if not any(_isomorphic(cand, old) for old in retained):
                    retained.append(cand)
    return len(retained)


def _isomorphic(t1, t2) -> bool:
    v1, edges1, assign1 = t1
    v2, edges2, assign2 = t2
    if v1 != v2 or len(edges1) != len(edges2):
        return False
    for phi in itertools.permutations(range(v1)):
        if any(phi[assign1[i]] != assign2[i] for i in range(len(assign1))):
            continue
        mapped = frozenset((min(phi[a], phi[b]), max(phi[a], phi[b])) for a, b in edges1)
        if mapped == edges2:
            return True
    return False


def _partitions(total: int, largest: int):
    """The partitions of total into parts of at most largest, largest first."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def closed_form_profile_counts(n: int) -> Counter[tuple[int, ...]]:
    """How many stable n-trees have each sorted valence profile, in closed form:

        (n + V - 2)! / prod_v (m_v! ((v - 1)!)^m_v)

    for the profile with m_v vertices of valence v, V = sum_v m_v vertices in
    all.  A tree with V vertices has V - 1 edges, so its valences sum to
    n + 2(V - 1): the profiles are the partitions of n - 2 into the parts
    v - 2.  The totals over the profiles are OEIS A000311.

    Derivation, by Lagrange inversion (Bergeron-Labelle-Leroux 1998).  Seen
    from leaf 1, a tree is a planted tree on the other n - 1 leaves: a single
    leaf, or a vertex of valence k + 1 carrying a set of k >= 2 planted
    trees.  With w_k marking each such vertex, the exponential generating
    function y(x) of planted trees solves y = x + sum_k w_k y^k / k!, so y is
    the compositional inverse of t - sum_k w_k t^k / k!, and for m >= 1

        [x^m] y = (1/m) [t^(m-1)] (1 - sum_k w_k t^(k-1) / k!)^(-m).

    The V-th term of the binomial series, C(m + V - 1, V) u^V, expands by
    the multinomial theorem into V! / prod_k m_k! times prod_k (w_k / k!)^m_k,
    at the power t^(sum_k m_k (k - 1)), which must be t^(m - 1).  Taking
    m = n - 1 and multiplying by m! for the labels gives
    (n - 2)! C(n + V - 2, V) V! / prod_k (m_k! (k!)^m_k), which is the
    count above with v = k + 1.  It builds no tree and shares nothing with
    the forgetful-map recursion of trees.profile_counts.
    """
    if n < 3:
        raise ValueError(f"need at least 3 leaves, got {n}")
    counts = Counter()
    for parts in _partitions(n - 2, n - 2):
        profile = tuple(sorted(p + 2 for p in parts))
        denominator = 1
        for v, m_v in Counter(profile).items():
            denominator *= factorial(m_v) * factorial(v - 1) ** m_v
        count, rest = divmod(factorial(n + len(profile) - 2), denominator)
        if rest:
            raise ValueError(f"closed form not integral at profile {profile}")
        counts[profile] = count
    return counts


def stratum_class(group: FiniteGroup, gt: GerbyTree) -> MotivePoly:
    """Product over vertices of the marked-point moduli class, or zero."""
    if not is_admissible(group, gt):
        return ZERO
    tree = gt.ntree.tree
    acc = MotivePoly((1,))
    for v in range(tree.vertex_count):
        acc = acc * class_m0n(tree.valence(v))
    return acc


def leaf_of_label(nt: NTree, label: int) -> int:
    """The leaf flag of nt that carries label."""
    for f in nt.tree.leaves():
        if nt.labels[f] == label:
            return f
    raise ValueError(f"no leaf labeled {label}")


def eval_at(poly: MotivePoly, x: int) -> int:
    """Evaluate at an integer, exactly (Horner)."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def keel_class(n: int) -> MotivePoly:
    """Class of the compactified moduli of n marked points on a line, by
    Keel's recursion (Trans. AMS 330, 1992):

        P_3 = 1,  P_{n+1} = (1 + q) P_n + (q/2) sum_{j=2}^{n-2} C(n, j) P_{j+1} P_{n-j+1}.

    It builds no tree and no marking, so it shares nothing with either route.
    """
    if n < 3:
        raise ValueError(f"need at least 3 marked points, got {n}")
    one_plus_q = MotivePoly.of([1, 1])
    classes = {3: MotivePoly.of([1])}
    for m in range(3, n):
        pairs = ZERO
        for j in range(2, m - 1):
            pairs = pairs + (classes[j + 1] * classes[m - j + 1]).scale(comb(m, j))
        if any(c % 2 for c in pairs.coeffs):
            raise ValueError(f"odd coefficient in the pair sum at {m + 1} points")
        half = MotivePoly.of([0] + [c // 2 for c in pairs.coeffs])
        classes[m + 1] = one_plus_q * classes[m] + half
    return classes[n]
