"""Exact Grothendieck-ring classes for compactified moduli of abelian covers
of marked genus-zero curves, computed two independent ways and compared."""

from .calculator import Calculator, VerificationReport, build_report
from .groups import (
    ClassInvolution,
    ConjugacyTable,
    FiniteGroup,
    build_group,
    class_involution,
    class_order,
    conjugacy_classes,
)
from .hurwitz import braid_generator, braid_orbits, enumerate_hurwitz, nielsen_count
from .motives import MotivePoly, class_m0n, to_poincare
from .smodules import (
    Atom,
    SModClass,
    compose,
    day_convolve,
    shift_root,
    unit_i1,
    unit_i2,
)
from .trees import (
    GerbyTree,
    NTree,
    Tree,
    enumerate_stable_trees,
    export_dot,
    gerby_markings,
    is_admissible,
    profile_counts,
)

__version__ = "0.1.0"
