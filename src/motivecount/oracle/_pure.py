"""The punctual-ideal enumeration engine.

The engine finds the ideals generated by at most two elements.  Rather than
walk the q^(2 dim) generator pairs, it uses the identity (f, g) = (f) + (g):
the ideal generated by a pair is the subspace sum of the two principal
ideals.  It sweeps one element per scalar class, since f and cf generate
the same ideal for every nonzero scalar c: zero, then each element whose
first nonzero coefficient is 1, which at q = 2 is all q^dim elements.  It
records the distinct principal ideals and then forms the sum of each
unordered pair of them, skipping every principal ideal of colength below
the target: (f) + (g) lies in (f), so no such ideal is in a sum of the
target colength.  The swept elements with a nonzero constant term are
units, whose closure returns the whole algebra's basis at once
(:func:`.ideals.close_under_multiplication`).  Every basis is in reduced
echelon form, so it is its own canonical key: a closure back-substitutes
its echelon basis once at the end, and each pair sum extends a reduced
basis row by row (:func:`.ideals.insert_reduced`).  That two generators
reach every ideal is certified in the tests against the exhaustive sweep of
multiplication-closed subspaces in :mod:`.ideals`.
"""

from __future__ import annotations

from itertools import product

from .algebra import LocalAlgebra
from .ideals import Row, Vector, close_under_multiplication, insert_reduced, pack, unpack


def scalar_representatives(dim: int, q: int):
    """One vector per class v ~ cv, c a nonzero scalar: zero, then each
    vector whose first nonzero coefficient is 1; 1 + (q^dim - 1)/(q - 1)
    vectors in all."""
    yield (0,) * dim
    for lead in range(dim):
        head = (0,) * lead + (1,)
        for tail in product(range(q), repeat=dim - lead - 1):
            yield head + tail


def principal_closures(alg: LocalAlgebra, q: int) -> dict[tuple[int, ...], list[Row]]:
    """Reduced echelon bases of the principal ideals (f), one f per scalar
    class, keyed by the packed basis vectors."""
    out: dict[tuple[int, ...], list[Row]] = {}
    for f in scalar_representatives(alg.dim, q):
        rows = close_under_multiplication([pack(f)], alg, q)
        out.setdefault(tuple(v for _, v in rows), rows)
    return out


def enumerate_ideals(alg: LocalAlgebra, q: int, colength: int) -> list[tuple[Vector, ...]]:
    """Canonical bases of all two-generated ideals of the given colength,
    sorted."""
    # (f) + (g) lies in (f), so its colength is at most that of (f): a
    # principal ideal of smaller colength than the target is in no sum
    principals = [rows for rows in principal_closures(alg, q).values()
                  if alg.dim - len(rows) >= colength]
    found: set[tuple[int, ...]] = set()
    # each unordered pair once; the pair (f), (f) gives the principal ideal
    for i, rows_f in enumerate(principals):
        for rows_g in principals[i:]:
            merged = list(rows_f)
            for _, v in rows_g:
                insert_reduced(merged, v, q, alg.dim)
            if alg.dim - len(merged) == colength:
                found.add(tuple(v for _, v in merged))
    return sorted(tuple(unpack(v, alg.dim) for v in basis) for basis in found)
