"""The failures a command reports.

A CoverMotiveError is a failure a command reports, and a ValueError is a
caller's mistake: every class here is a key of cli.EXIT_CODES, so the command
line driver maps it to an exit code and one `error:` line without string
matching.
"""

from __future__ import annotations


class CoverMotiveError(Exception):
    """Base class for all package errors."""


class MalformedSpec(CoverMotiveError):
    """An outside input is malformed or out of range: a group spec, a degree,
    a marking or a flag combination."""


class NotAGroup(CoverMotiveError):
    """A multiplication table fails a group axiom.

    The message names a concrete witness (a triple for associativity, an
    element without an inverse, and so on).
    """


class SizeLimit(CoverMotiveError):
    """A tree, marking or tuple count exceeds a cap that only the command line checks."""


class UnsupportedNonabelian(CoverMotiveError):
    """An operation that is only implemented for abelian groups was asked to
    work on a nonabelian one."""


class InexactDivision(CoverMotiveError):
    """An integer or coefficient division that must be exact is not."""
