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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

RIBBON = "ribbon"
NODE = "node"
CURVES = (RIBBON, NODE)


@dataclass(frozen=True)
class LocalAlgebra:
    curve: str
    colength: int
    monomials: tuple[tuple[int, int], ...]
    mul_x: tuple[int, ...]  # basis index of x * monomial, or -1 if it vanishes
    mul_y: tuple[int, ...]
    dim: int  # len(monomials), stored: the oracle's inner loops read it


@lru_cache(maxsize=None)
def truncated_algebra(curve: str, colength: int) -> LocalAlgebra:
    if curve not in CURVES:
        raise ValueError(f"curve must be one of {CURVES}, got {curve!r}")
    if colength < 1:
        raise ValueError("colength must be >= 1")
    c = colength
    if curve == RIBBON:
        monomials = [(0, j) for j in range(c + 1)] + [(1, j) for j in range(c)]
    else:
        monomials = [(j, 0) for j in range(c + 1)] + [(0, j) for j in range(1, c + 1)]
    # a product outside the basis is zero: a multiple of x^2 (ribbon) or xy
    # (node), or of degree over c
    index = {m: i for i, m in enumerate(monomials)}

    return LocalAlgebra(
        curve=curve,
        colength=c,
        monomials=tuple(monomials),
        mul_x=tuple(index.get((a + 1, b), -1) for a, b in monomials),
        mul_y=tuple(index.get((a, b + 1), -1) for a, b in monomials),
        dim=len(monomials),
    )
