"""Exception types shared across the package.

Every guard that can reject an input raises one of these, so callers (and the
command line driver) can map failure modes to exit codes without string
matching.
"""

from __future__ import annotations


class CoverMotiveError(Exception):
    """Base class for all package errors."""


class MalformedSpec(CoverMotiveError):
    """Group specification is structurally invalid (shape, range, size cap)."""


class NotAGroup(CoverMotiveError):
    """A multiplication table fails a group axiom.

    The message names a concrete witness (a triple for associativity, an
    element without an inverse, and so on).
    """


class SizeLimit(CoverMotiveError):
    """A tree, marking or tuple enumeration would exceed its configured cap."""


class UnsupportedNonabelian(CoverMotiveError):
    """An operation that is only implemented for abelian groups was asked to
    work on a nonabelian one."""


class NegativeCoefficient(CoverMotiveError):
    """A class polynomial has a negative coefficient where a non-negative
    one is required (Betti number extraction)."""


class NonEmptyDegreeZero(CoverMotiveError):
    """Composition requires the inner module to have empty degree-0 part."""


class MissingEvaluations(CoverMotiveError):
    """An operation needs evaluation data that a generator does not carry."""


class InexactDivision(CoverMotiveError):
    """An integer or coefficient division that must be exact is not."""
