"""Polynomials in the Lefschetz class q, with exact integer coefficients.

Every class handled by this package lives in Z[q], where q stands for the
class of the affine line.  The open moduli space of n distinct marked points
on a line has class prod_{k=2}^{n-2} (q - k): normalise three of the points
to 0, 1, infinity and the remaining n - 3 coordinates avoid 0, 1 and each
other.

Specialisations: q -> uv gives the Hodge-Euler polynomial, and reading the
coefficient of q^k as the Betti number b_{2k} gives the Poincare polynomial
(only legitimate when every coefficient is non-negative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NegativeCoefficient


@dataclass(frozen=True)
class MotivePoly:
    """Element of Z[q] stored as ascending coefficients with no trailing zeros."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use MotivePoly.of")

    @staticmethod
    def of(coeffs: Iterable[int]) -> "MotivePoly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return MotivePoly(tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def __add__(self, other: "MotivePoly") -> "MotivePoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return MotivePoly.of(out)

    def __neg__(self) -> "MotivePoly":
        return MotivePoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "MotivePoly") -> "MotivePoly":
        return self + (-other)

    def __mul__(self, other: "MotivePoly") -> "MotivePoly":
        if self.is_zero or other.is_zero:
            return ZERO
        if self.is_one:
            return other
        if other.is_one:
            return self
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return MotivePoly.of(out)

    def scale(self, k: int) -> "MotivePoly":
        return MotivePoly.of(c * k for c in self.coeffs)

    def eval_at(self, x: int) -> int:
        """Evaluate at an integer, exactly (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return format_poly(self.coeffs, "q")


ZERO = MotivePoly(())
ONE = MotivePoly((1,))
Q = MotivePoly((0, 1))


def format_poly(coeffs: tuple[int, ...], var: str) -> str:
    """Render ascending coefficients as a human-readable polynomial string."""
    if not coeffs:
        return "0"
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            term = str(abs(c))
        else:
            head = var if k == 1 else f"{var}^{k}"
            term = head if abs(c) == 1 else f"{abs(c)}*{head}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


def class_m0n(n: int) -> MotivePoly:
    """Class of the open moduli of n distinct marked points on a line.

    Equals prod_{k=2}^{n-2} (q - k); the empty product for n = 3.
    """
    if n < 3:
        raise ValueError(f"need at least 3 marked points, got {n}")
    acc = ONE
    for k in range(2, n - 1):
        acc = acc * MotivePoly((-k, 1))
    return acc


@dataclass(frozen=True)
class EPoly:
    """Polynomial in two variables u, v: the Hodge-Euler specialisation.

    Terms are stored as a sorted tuple of ((p, q), coefficient) with nonzero
    coefficients only.
    """

    terms: tuple[tuple[tuple[int, int], int], ...] = ()

    @staticmethod
    def of(terms: dict[tuple[int, int], int]) -> "EPoly":
        kept = {pq: c for pq, c in terms.items() if c != 0}
        return EPoly(tuple(sorted(kept.items())))

    def __add__(self, other: "EPoly") -> "EPoly":
        acc = dict(self.terms)
        for pq, c in other.terms:
            acc[pq] = acc.get(pq, 0) + c
        return EPoly.of(acc)

    def __mul__(self, other: "EPoly") -> "EPoly":
        acc: dict[tuple[int, int], int] = {}
        for (p1, q1), c1 in self.terms:
            for (p2, q2), c2 in other.terms:
                key = (p1 + p2, q1 + q2)
                acc[key] = acc.get(key, 0) + c1 * c2
        return EPoly.of(acc)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        # Highest total weight first, then higher p first.
        for (p, qexp), c in sorted(self.terms, key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0])):
            factors = []
            if p:
                factors.append("u" if p == 1 else f"u^{p}")
            if qexp:
                factors.append("v" if qexp == 1 else f"v^{qexp}")
            body = "*".join(factors) if factors else ""
            if body:
                term = body if abs(c) == 1 else f"{abs(c)}*{body}"
            else:
                term = str(abs(c))
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def to_hodge_euler(p: MotivePoly) -> EPoly:
    """Substitute q -> uv.  Multiplicative by construction."""
    return EPoly.of({(k, k): c for k, c in enumerate(p.coeffs)})


def to_poincare(p: MotivePoly) -> tuple[int, ...]:
    """Read coefficients as even Betti numbers: b_{2k} = coeff of q^k.

    Returns ascending coefficients in t, so q + 1 becomes (1, 0, 1).
    Refuses polynomials with a negative coefficient, where the reading is
    meaningless.
    """
    for k, c in enumerate(p.coeffs):
        if c < 0:
            raise NegativeCoefficient(f"coefficient {c} of q^{k} is negative")
    if p.is_zero:
        return ()
    out = [0] * (2 * len(p.coeffs) - 1)
    for k, c in enumerate(p.coeffs):
        out[2 * k] = c
    return tuple(out)
