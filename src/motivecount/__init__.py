"""Exact calculator for classes in Z[L], the polynomial part of the
Grothendieck ring of varieties, built around the moduli spaces of
one-dimensional semistable plane sheaves of degree up to five.

Three layers:

* :mod:`motivecount.motive` / :mod:`motivecount.atoms` /
  :mod:`motivecount.dsl` -- arithmetic in Z[L], the standard variety
  classes, and a small expression language;
* :mod:`motivecount.strata` -- the registered stratum formulas, their
  assembly into the moduli classes, and verification reports;
* :mod:`motivecount.oracle` -- independent brute-force certification of
  the polynomial atoms by point and ideal counting over small finite
  fields.
"""

from .atoms import (
    Unsupported,
    affine,
    grassmannian,
    hilb_p2,
    linear_system,
    omega_locus,
    projective,
    universal_curve,
)
from .dsl import ArityError, ParseError, VarietyExpr, eval_expr, evaluate, format_expr, parse
from .motive import L, ONE, ZERO, DivisionNotExact, MotiveClass, NotEffective
from .strata import (
    ConsistencyReport,
    VerificationReport,
    assemble,
    omega26_assembled,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "ArityError", "ConsistencyReport", "DivisionNotExact", "L", "MotiveClass",
    "NotEffective", "ONE", "ParseError", "Unsupported", "VarietyExpr",
    "VerificationReport", "ZERO", "affine", "assemble", "eval_expr", "evaluate",
    "format_expr", "grassmannian", "hilb_p2", "linear_system", "omega26_assembled",
    "omega_locus", "parse", "projective", "universal_curve", "verify_all",
]
