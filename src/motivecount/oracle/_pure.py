"""The punctual-ideal enumeration engine.

The engine finds the ideals generated by at most two elements.  Rather than
walk the q^(2 dim) generator pairs, it uses the identity (f, g) = (f) + (g):
the ideal generated by a pair is the subspace sum of the two principal
ideals.  It sweeps every element once, records the distinct principal
ideals, and then forms the sum of each unordered pair of them.  The sweep
visits all q^dim elements; the (q - 1)/q of them with a nonzero constant
term are units, whose closure returns the whole algebra's basis at once
(:func:`.ideals.close_under_multiplication`).  That two generators reach
every ideal is certified in the tests against the exhaustive sweep of
multiplication-closed subspaces in :mod:`.ideals`.
"""

from __future__ import annotations

from itertools import product

from .algebra import LocalAlgebra
from .ideals import Row, Vector, close_under_multiplication, echelon_reduce, rref


def principal_closures(alg: LocalAlgebra, q: int) -> dict[tuple[Vector, ...], list[Row]]:
    """Echelon bases of the principal ideals (f) for every element f,
    keyed by canonical form."""
    out: dict[tuple[Vector, ...], list[Row]] = {}
    for f in product(range(q), repeat=alg.dim):
        rows = close_under_multiplication([f], alg, q)
        out.setdefault(rref(rows, q), rows)
    return out


def enumerate_ideals(alg: LocalAlgebra, q: int, colength: int) -> list[tuple[Vector, ...]]:
    """Canonical bases of all two-generated ideals of the given colength,
    sorted."""
    principals = list(principal_closures(alg, q).values())
    found: set[tuple[Vector, ...]] = set()
    # each unordered pair once; the pair (f), (f) gives the principal ideal
    for i, rows_f in enumerate(principals):
        for rows_g in principals[i:]:
            merged = list(rows_f)
            for _, v in rows_g:
                new = echelon_reduce(merged, v, q)
                if new is not None:
                    merged.append(new)
                    merged.sort()
            if alg.dim - len(merged) == colength:
                found.add(rref(merged, q))
    return sorted(found)
