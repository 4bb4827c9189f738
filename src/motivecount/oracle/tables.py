"""Stratification data for punctual ideals on the two curve germs.

:data:`ROWS` maps each germ to its rows in table order.  A row is a tuple
``(colength, ideal, params)`` describing one family of ideals: its
generators in the local coordinates of the germ, and the class of its
parameter space in the expression language, where a projective parameter
modulo scaling contributes P1, a free parameter contributes A1, and an
excluded-origin constraint contributes A1-1 (or A2-1 for a pair).
The expected ideal count of a colength at q is the row-sum class evaluated
at L = q.

The rows are data, transcribed verbatim from the source stratification and
never adjusted to the enumeration: a count mismatch indicts either the
enumeration or the row, and the report names the colength.  One such
mismatch is real and documented (double line, colength 5): the family
``(x^2, xy + k y^2 + k' y^3) + m^4 with k != 0`` listed there actually has
colength 4 and duplicates a colength-4 family, which the search of all
multiplication-closed subspaces finds.
"""

from __future__ import annotations

from functools import lru_cache

from ..dsl import evaluate
from ..motive import ZERO, MotiveClass
from .algebra import NODE, RIBBON

ROWS = {
    RIBBON: (
        (1, "m", "1"),
        (2, "m2 + (k x + k' y), (k,k') != 0", "P1"),
        (3, "m2", "1"),
        (3, "(x + k y2) + m3", "A1"),
        (4, "(x2, k y2 + k' xy) + m3, (k,k') != 0", "P1"),
        (4, "(x + k y2 + k' y3) + m4, k != 0", "(A1-1)*A1"),
        (4, "(x + k' y3) + m4", "A1"),
        (5, "(x2) + m3", "1"),
        (5, "(x2, xy + k y2 + k' y3) + m4, k != 0", "(A1-1)*A1"),
        (5, "(x2, xy + k' y3) + m4", "A1"),
        (5, "(x + k y3 + k' y4) + m5, k != 0", "(A1-1)*A1"),
        (5, "(x + k' y4) + m5", "A1"),
        (6, "(x2, k xy2 + k' y3) + m4, (k,k') != 0", "P1"),
        (6, "(x2, xy + k y3 + k' y4) + m5, k != 0", "(A1-1)*A1"),
        (6, "(x2, xy + k' y4) + m5", "A1"),
        (6, "(x + k y3 + k' y4 + k'' y5) + m6, (k,k'') != 0", "(A2-1)*A1"),
        (6, "(x + k'' y5) + m6", "A1"),
    ),
    NODE: (
        (1, "m", "1"),
        (2, "m2 + (k x + k' y), (k,k') != 0", "P1"),
        (3, "m2", "1"),
        (3, "(x + k y2) + m3", "A1"),
        (3, "(y + k x2) + m3", "A1"),
        (4, "(xy, k x2 + k' y2) + m3, (k,k') != 0", "P1"),
        (4, "(x + k y3) + m4", "A1"),
        (4, "(y + k x3) + m4", "A1"),
        (5, "(xy) + m3", "1"),
        (5, "(xy, x2 + k y3) + m4, k != 0", "A1-1"),
        (5, "(xy, x2) + m4", "1"),
        (5, "(xy, y2 + k x3) + m4, k != 0", "A1-1"),
        (5, "(xy, y2) + m4", "1"),
        (5, "(x + k y4) + m5", "A1"),
        (5, "(y + k x4) + m5", "A1"),
        (6, "(xy, k x3 + k' y3) + m4, (k,k') != 0", "P1"),
        (6, "(xy, x2 + k y4) + m5, k != 0", "A1-1"),
        (6, "(xy, x2) + m5", "1"),
        (6, "(xy, y2 + k x4) + m5, k != 0", "A1-1"),
        (6, "(xy, y2) + m5", "1"),
        (6, "(x + k y5) + m6", "A1"),
        (6, "(y + k x5) + m6", "A1"),
    ),
}

MAX_COLENGTH = 6


def expected_class(curve: str, colength: int) -> MotiveClass:
    """Row-sum class of a colength: the tabulated count as a polynomial in L."""
    params = [p for c, _, p in ROWS.get(curve, ()) if c == colength]
    if not params:
        raise ValueError(f"no rows for {curve} colength {colength}")
    return sum(map(_param_class, params), ZERO)


@lru_cache(maxsize=None)
def _param_class(text: str) -> MotiveClass:
    """The class of a row's parameter space; the rows repeat a few texts."""
    return evaluate(text)
