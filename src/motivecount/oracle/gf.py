"""Point counts of the projective plane over small finite fields.

Supports exactly the orders the oracles need: the prime fields F2, F3 and
their quadratic extensions F4, F9.  Elements are encoded as integers
0..q-1 with 0 and 1 the field's zero and one; counting projective points
needs no other arithmetic.
"""

from __future__ import annotations

from itertools import product

from ..atoms import Unsupported


def projective_plane_count(q: int) -> int:
    """Number of points of the projective plane over F_q, counted by
    enumerating coordinate triples and keeping the scaled representative
    whose first nonzero coordinate is 1."""
    if q not in (2, 3, 4, 9):
        raise Unsupported(f"field order {q} not supported (need one of [2, 3, 4, 9])")
    return sum(1 for v in product(range(q), repeat=3)
               if next((c for c in v if c), None) == 1)
