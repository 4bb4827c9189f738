"""Canonical ideal records and the echelon linear algebra behind them.

Vectors are coefficient tuples over the prime field F_q, indexed by the
monomial basis of a :class:`~motivecount.oracle.algebra.LocalAlgebra`.  An
ideal is stored as the reduced row echelon basis of the subspace it spans,
which is a canonical form: two ideals are equal iff their records are equal.
"""

from __future__ import annotations

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
    None if v lies in the span."""
    v = list(v)
    for piv, row in rows:
        c = v[piv]
        if c:
            v = [(a - c * b) % q for a, b in zip(v, row)]
    for i, c in enumerate(v):
        if c:
            inv = pow(c, q - 2, q)
            return i, tuple((x * inv) % q for x in v)
    return None


@lru_cache(maxsize=None)
def _identity_rows(dim: int) -> tuple[Row, ...]:
    return tuple((i, tuple(int(j == i) for j in range(dim))) for i in range(dim))


def close_under_multiplication(generators, alg: LocalAlgebra, q: int) -> list[Row]:
    """Echelon basis of the ideal generated by the given vectors: the span
    of all monomial multiples, built with a worklist.

    Index 0 is the monomial 1, so a generator with a nonzero constant term
    is a unit of the local algebra and the ideal is the whole algebra; its
    basis, the identity rows, is returned without a worklist."""
    work = list(generators)
    if any(v[0] for v in work):
        return list(_identity_rows(alg.dim))
    rows: list[Row] = []
    while work:
        v = work.pop()
        new = echelon_reduce(rows, v, q)
        if new is None:
            continue
        rows.append(new)
        rows.sort()
        work.append(vec_mul_monomial(new[1], alg.mul_x, alg.dim))
        work.append(vec_mul_monomial(new[1], alg.mul_y, alg.dim))
    return rows


def rref(rows: list[Row], q: int) -> tuple[Vector, ...]:
    """Full reduced echelon form, rows sorted by pivot: the canonical form."""
    rows = sorted(rows)
    mat = [list(v) for _, v in rows]
    pivots = [p for p, _ in rows]
    for j, pj in enumerate(pivots):
        for i in range(len(mat)):
            if i != j and mat[i][pj]:
                c = mat[i][pj]
                mat[i] = [(a - c * b) % q for a, b in zip(mat[i], mat[j])]
    return tuple(tuple(r) for r in mat)


def is_closed(rows: list[Row], alg: LocalAlgebra, q: int) -> bool:
    """Whether the span of an echelon basis, rows sorted by pivot, is closed
    under multiplication by x and by y, i.e. is an ideal."""
    return all(echelon_reduce(rows, vec_mul_monomial(v, mul_map, alg.dim), q) is None
               for _, v in rows for mul_map in (alg.mul_x, alg.mul_y))


def reduced_echelon_forms(k: int, n: int, q: int):
    """Yield every reduced echelon form of a k x n matrix of rank k over
    F_q, one per k-dimensional subspace."""
    for pivots in combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n)
                if j not in pivots]
        base = [[0] * n for _ in range(k)]
        for i, p in enumerate(pivots):
            base[i][p] = 1
        for assign in product(range(q), repeat=len(free)):
            mat = [row[:] for row in base]
            for (i, j), val in zip(free, assign):
                mat[i][j] = val
            yield tuple(tuple(row) for row in mat)


@dataclass(frozen=True)
class IdealRecord:
    """Canonical form of an ideal: reduced echelon basis plus colength."""

    basis: tuple[Vector, ...]
    colength: int

    @classmethod
    def from_rows(cls, basis: tuple[Vector, ...], alg: LocalAlgebra, q: int) -> "IdealRecord":
        """Wrap an enumerated echelon basis, checking the ideal property: the
        spanned subspace must be closed under multiplication by x and by y."""
        rows = [(next(i for i, c in enumerate(v) if c), v) for v in basis]
        if not is_closed(rows, alg, q):
            raise ValueError(f"basis not closed under multiplication: {basis}")
        return cls(basis=rref(rows, q), colength=alg.dim - len(basis))

    @classmethod
    def from_generators(cls, generators, alg: LocalAlgebra, q: int) -> "IdealRecord":
        rows = close_under_multiplication(list(generators), alg, q)
        return cls(basis=rref(rows, q), colength=alg.dim - len(rows))

    def reclosed(self, alg: LocalAlgebra, q: int) -> "IdealRecord":
        """Closing an ideal again must be the identity (idempotence)."""
        return IdealRecord.from_generators(self.basis, alg, q)


def enumerate_closed_subspaces(alg: LocalAlgebra, q: int, colength: int) -> set[tuple[Vector, ...]]:
    """All subspaces of the algebra closed under multiplication by x and y,
    of the given colength, with no generator-count assumption.

    Exhaustive reference used to certify that two generators reach every
    ideal.  A colength-c ideal contains every monomial of degree >= c and
    lies inside the maximal ideal, so only the middle degrees vary; their
    subspaces are swept in reduced-echelon-form order.  Feasible for small
    cases only (colength <= 3 at q = 2 is instant).
    """
    deg = [a + b for a, b in alg.monomials]
    forced = [i for i, d in enumerate(deg) if d >= colength]
    free_region = [i for i, d in enumerate(deg) if 0 < d < colength]
    extra_dim = (alg.dim - colength) - len(forced)
    found: set[tuple[Vector, ...]] = set()
    if extra_dim < 0:
        return found
    units = [_identity_rows(alg.dim)[i] for i in forced]
    for form in reduced_echelon_forms(extra_dim, len(free_region), q):
        # the form's rows and the forced unit rows have disjoint supports,
        # so together they are already a reduced echelon basis
        rows = list(units)
        for row in form:
            v = [0] * alg.dim
            for col, c in zip(free_region, row):
                v[col] = c
            rows.append((free_region[row.index(1)], tuple(v)))
        rows.sort()
        if is_closed(rows, alg, q):
            found.add(rref(rows, q))
    return found
