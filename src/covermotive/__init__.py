"""Exact Grothendieck-ring classes for compactified moduli of abelian covers
of marked genus-zero curves, computed two independent ways and compared.

The entry point is Calculator; the layers below it (groups, trees, hurwitz,
smodules, motives) are imported from their own modules."""

from .calculator import Calculator

__version__ = "0.1.0"
