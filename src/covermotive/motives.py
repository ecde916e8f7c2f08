"""Polynomials in the Lefschetz class q, with exact integer coefficients.

Every class handled by this package lives in Z[q], where q stands for the
class of the affine line.  The open moduli space of n distinct marked points
on a line has class prod_{k=2}^{n-2} (q - k): normalise three of the points
to 0, 1, infinity and the remaining n - 3 coordinates avoid 0, 1 and each
other.

Specialisations: q -> uv gives the Hodge-Euler polynomial, and reading the
coefficient of q^k as the Betti number b_{2k} gives the Poincare polynomial
(only legitimate when every coefficient is non-negative).  A MotivePoly
compares and hashes by its coefficients.
"""

from __future__ import annotations

from typing import Callable, Iterable


class MotivePoly:
    """Element of Z[q] stored as ascending coefficients with no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] = ()):
        if coeffs and coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use MotivePoly.of")
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return self.coeffs == other.coeffs if isinstance(other, MotivePoly) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"MotivePoly(coeffs={self.coeffs!r})"

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

    def __str__(self) -> str:
        return format_poly(self.coeffs, monomial("q"))


ZERO = MotivePoly(())
ONE = MotivePoly((1,))


def monomial(*variables: str) -> Callable[[int], str]:
    """Head for format_poly: the k-th power of q written as the product of
    the k-th powers of the variables, so ("u", "v") reads q -> uv."""
    return lambda k: "*".join(v if k == 1 else f"{v}^{k}" for v in variables)


def format_poly(coeffs: tuple[int, ...], head: Callable[[int], str]) -> str:
    """Render ascending coefficients as a human-readable polynomial string,
    highest power first, with head(k) naming the k-th power."""
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
            term = head(k) if abs(c) == 1 else f"{abs(c)}*{head(k)}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


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


def to_poincare(p: MotivePoly) -> tuple[int, ...] | None:
    """Read coefficients as even Betti numbers: b_{2k} = coeff of q^k.

    Returns ascending coefficients in t, so q + 1 becomes (1, 0, 1), or None
    if a coefficient is negative, where the reading is meaningless.
    """
    if any(c < 0 for c in p.coeffs):
        return None
    out = [0] * (2 * len(p.coeffs) - 1)
    for k, c in enumerate(p.coeffs):
        out[2 * k] = c
    return tuple(out)
