"""Truncated local algebras of the two plane curve germs.

The two germs are the double line (x^2 = 0, "ribbon") and the pair of
crossing lines (xy = 0, "node").  For counting ideals of colength c the
relevant algebra is k[[x, y]] modulo the germ equation and the (c+1)-st
power of the maximal ideal; any ideal of colength c contains that power,
so nothing is lost by truncating.  Both algebras have dimension 2c + 1.

The monomial basis ordering is part of the module contract (canonical
echelon forms depend on it):

* ribbon: 1, y, y^2, ..., y^c, then x, xy, ..., x y^(c-1)
* node:   1, x, x^2, ..., x^c, then y, y^2, ..., y^c

Multiplication by x and by y is stored once, as the packed image of each
basis vector (see :mod:`motivecount.oracle.ideals`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from ..atoms import Unsupported

RIBBON = "ribbon"
NODE = "node"
CURVES = (RIBBON, NODE)


class LocalAlgebra(NamedTuple):
    """The truncated algebra of the germ ``curve`` at one colength.
    ``monomials``: the basis, x^a y^b as (a, b), in the module's order.
    ``x``, ``y``: the packed product of each basis vector by x and by y,
    ``1 << 8*k`` if it is basis monomial k, 0 if it vanishes.
    ``dim``: len(monomials), stored because the oracle's inner loops read it."""

    curve: str
    monomials: tuple[tuple[int, int], ...]
    x: tuple[int, ...]
    y: tuple[int, ...]
    dim: int


@lru_cache(maxsize=None)
def truncated_algebra(curve: str, colength: int) -> LocalAlgebra:
    if curve not in CURVES:
        raise Unsupported(f"curve must be one of {CURVES}, got {curve!r}")
    if colength < 1:
        raise Unsupported("colength must be >= 1")
    c = colength
    if curve == RIBBON:
        monomials = [(0, j) for j in range(c + 1)] + [(1, j) for j in range(c)]
    else:
        monomials = [(j, 0) for j in range(c + 1)] + [(0, j) for j in range(1, c + 1)]
    # a product outside the basis is zero: a multiple of x^2 (ribbon) or xy
    # (node), or of degree over c
    unit = {m: 1 << 8 * i for i, m in enumerate(monomials)}

    return LocalAlgebra(
        curve=curve,
        monomials=tuple(monomials),
        x=tuple(unit.get((a + 1, b), 0) for a, b in monomials),
        y=tuple(unit.get((a, b + 1), 0) for a, b in monomials),
        dim=len(monomials),
    )
