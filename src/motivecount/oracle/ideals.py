"""Canonical ideal records and the echelon linear algebra behind them.

Vectors are coefficient tuples over the prime field F_q, indexed by the
monomial basis of a :class:`~motivecount.oracle.algebra.LocalAlgebra`.  An
ideal is stored as the reduced row echelon basis of the subspace it spans,
which is a canonical form: two ideals are equal iff their records are equal.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .algebra import LocalAlgebra

Vector = tuple[int, ...]
Row = tuple[int, Vector]  # (pivot index, normalized row)


def vec_mul_monomial(v: Vector, mul_map: tuple[int, ...], dim: int) -> Vector:
    """Multiply a vector by x or y; the monomial maps are injective where
    nonzero, so coefficients move without colliding."""
    out = [0] * dim
    for i, c in enumerate(v):
        if c and mul_map[i] >= 0:
            out[mul_map[i]] = c
    return tuple(out)


def echelon_reduce(rows: list[Row], v: Vector, q: int) -> Row | None:
    """Reduce v against an echelon basis; return the normalized new row, or
    None if v lies in the span.  A row is zero before its pivot, so each
    step rewrites only the columns from the pivot on."""
    v = list(v)
    for piv, row in rows:
        c = v[piv]
        if c:
            v[piv:] = [(a - c * b) % q for a, b in zip(v[piv:], row[piv:])]
    for i, c in enumerate(v):
        if c:
            inv = pow(c, q - 2, q)
            v[i:] = [(x * inv) % q for x in v[i:]]
            return i, tuple(v)
    return None


def insert_reduced(rows: list[Row], v: Vector, q: int) -> Row | None:
    """Extend a reduced echelon basis, rows sorted by pivot, by v in place:
    reduce v, clear its pivot column from the rows above it and insert it in
    pivot order, so the rows stay a reduced echelon basis.  Return the new
    row, or None if v lies in the span."""
    new = echelon_reduce(rows, v, q)
    if new is None:
        return None
    p, w = new
    for k, (piv, row) in enumerate(rows):
        if piv > p:
            break
        c = row[p]
        if c:
            r = list(row)
            r[p:] = [(a - c * b) % q for a, b in zip(row[p:], w[p:])]
            rows[k] = (piv, tuple(r))
    insort(rows, new)
    return new


@lru_cache(maxsize=None)
def _identity_rows(dim: int) -> tuple[Row, ...]:
    return tuple((i, tuple(int(j == i) for j in range(dim))) for i in range(dim))


def close_under_multiplication(generators, alg: LocalAlgebra, q: int) -> list[Row]:
    """Reduced echelon basis, rows sorted by pivot, of the ideal generated
    by the given vectors: the span of all monomial multiples, built with a
    worklist.  The basis is its own canonical form.

    Index 0 is the monomial 1, so a generator with a nonzero constant term
    is a unit of the local algebra and the ideal is the whole algebra; its
    basis, the identity rows, is returned without a worklist."""
    work = list(generators)
    if any(v[0] for v in work):
        return list(_identity_rows(alg.dim))
    rows: list[Row] = []
    while work:
        new = insert_reduced(rows, work.pop(), q)
        if new is not None:
            work.append(vec_mul_monomial(new[1], alg.mul_x, alg.dim))
            work.append(vec_mul_monomial(new[1], alg.mul_y, alg.dim))
    return rows


def is_closed(rows: list[Row], alg: LocalAlgebra, q: int) -> bool:
    """Whether the span of an echelon basis, rows sorted by pivot, is closed
    under multiplication by x and by y, i.e. is an ideal."""
    return all(echelon_reduce(rows, vec_mul_monomial(v, mul_map, alg.dim), q) is None
               for _, v in rows for mul_map in (alg.mul_x, alg.mul_y))


def reduced_echelon_forms(k: int, n: int, q: int, columns: Sequence[int] | None = None):
    """Yield every reduced echelon form of a k x n matrix of rank k over
    F_q, one per k-dimensional subspace.  Given ``columns``, sorted indices
    into vectors of length n, yield instead the forms of the subspaces of
    the coordinate subspace on those columns: the rows are zero elsewhere.

    For a fixed pivot set each row varies independently over its free
    cells, so the forms are the product of per-row choices, built once per
    pivot set; row 0 varies slowest and the last free cell fastest."""
    cols = range(n) if columns is None else columns
    for pivots in combinations(range(len(cols)), k):
        choices = []
        for p in pivots:
            free = [cols[j] for j in range(p + 1, len(cols)) if j not in pivots]
            options = []
            for values in product(range(q), repeat=len(free)):
                row = [0] * n
                row[cols[p]] = 1
                for j, c in zip(free, values):
                    row[j] = c
                options.append(tuple(row))
            choices.append(options)
        yield from product(*choices)


@dataclass(frozen=True)
class IdealRecord:
    """Canonical form of an ideal: reduced echelon basis plus colength."""

    basis: tuple[Vector, ...]
    colength: int

    @classmethod
    def from_rows(cls, basis: tuple[Vector, ...], alg: LocalAlgebra, q: int) -> "IdealRecord":
        """Wrap an enumerated basis, checking that it is a reduced echelon
        basis and that its span is closed under multiplication by x and y."""
        pivots = [next((i for i, c in enumerate(v) if c), -1) for v in basis]
        # each pivot column is the unit column of its row, pivots ascending
        if pivots != sorted(set(pivots)) or not all(
                p >= 0 and [w[p] for w in basis] == [int(s == r) for s in range(len(basis))]
                for r, p in enumerate(pivots)):
            raise ValueError(f"basis not in reduced echelon form: {basis}")
        if not is_closed(list(zip(pivots, basis)), alg, q):
            raise ValueError(f"basis not closed under multiplication: {basis}")
        return cls(basis=basis, colength=alg.dim - len(basis))

    @classmethod
    def from_generators(cls, generators, alg: LocalAlgebra, q: int) -> "IdealRecord":
        rows = close_under_multiplication(list(generators), alg, q)
        return cls(basis=tuple(v for _, v in rows), colength=alg.dim - len(rows))

    def reclosed(self, alg: LocalAlgebra, q: int) -> "IdealRecord":
        """Closing an ideal again must be the identity (idempotence)."""
        return IdealRecord.from_generators(self.basis, alg, q)


def enumerate_closed_subspaces(alg: LocalAlgebra, q: int, colength: int) -> set[tuple[Vector, ...]]:
    """All subspaces of the algebra closed under multiplication by x and y,
    of the given colength, with no generator-count assumption.

    Exhaustive reference used to certify that two generators reach every
    ideal.  A colength-c ideal contains every monomial of degree >= c and
    lies inside the maximal ideal, so only the middle degrees vary; their
    subspaces are swept in reduced-echelon-form order, each form already
    placed in the middle-degree columns.  The x- and y-multiples of a
    forced monomial have degree > c, so they are forced too: only the
    form's rows are tested for closure.  Feasible for small cases only:
    colength 5 at q = 2 sweeps 200,787 forms in about 2 s, while colength 6
    sweeps 1.1 x 10^8 and still takes minutes.
    """
    deg = [a + b for a, b in alg.monomials]
    forced = [i for i, d in enumerate(deg) if d >= colength]
    free_region = [i for i, d in enumerate(deg) if 0 < d < colength]
    extra_dim = (alg.dim - colength) - len(forced)
    found: set[tuple[Vector, ...]] = set()
    if extra_dim < 0:
        return found
    units = [_identity_rows(alg.dim)[i] for i in forced]
    maps = (alg.mul_x, alg.mul_y)
    for form in reduced_echelon_forms(extra_dim, alg.dim, q, free_region):
        # the form's rows and the forced unit rows have disjoint supports,
        # so together they are already a reduced echelon basis, which
        # reduces a vector the same in any row order
        rows = units + [(v.index(1), v) for v in form]
        if all(echelon_reduce(rows, vec_mul_monomial(v, m, alg.dim), q) is None
               for v in form for m in maps):
            found.add(tuple(v for _, v in sorted(rows)))
    return found
