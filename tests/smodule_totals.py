"""Total class of one degree of an S-module, for tests that compare modules
against stratification classes."""

from __future__ import annotations

from covermotive.motives import ZERO, MotivePoly
from covermotive.smodules import SModClass


def forget_class(x: SModClass, n: int) -> MotivePoly:
    """Total class of the degree-n part: each type's class once per tuple."""
    acc = ZERO
    for a in x.part(n):
        acc = acc + a.cls.scale(a.tuple_count)
    return acc
