"""Canonical ideal records and the echelon linear algebra behind them.

A vector over the prime field F_q, indexed by the monomial basis of a
:class:`~motivecount.oracle.algebra.LocalAlgebra`, is packed into one
``int``: coefficient i is byte i, little-endian (:func:`pack`,
:func:`unpack`).  The row operation v - c*r is then the big-int
multiply-add v + (q - c)*r followed by one ``bytes.translate`` through a
table taking each byte value to its residue mod q.  For every prime
q <= 13 a byte holds at most (q - 1) + (q - 1)^2 <= 156 before that
translate, so no coefficient carries into the next; those primes are the
kernel's domain.  Tuples appear only at the public edges: record bases
and the results of the two enumerators, :func:`reduced_echelon_forms` and
:func:`enumerate_closed_subspaces`.

An ideal is stored as the reduced row echelon basis of the subspace it
spans, which is a canonical form: two ideals are equal iff their records
are equal.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

from ..atoms import Unsupported
from .algebra import LocalAlgebra

Vector = tuple[int, ...]
Row = tuple[int, int]  # (pivot index, normalized packed row)

#: the field sizes the packed kernel computes over
PRIMES = (2, 3, 5, 7, 11, 13)


def require_field(what: str, q: int, sizes: tuple[int, ...]) -> None:
    """Decline, as :class:`~motivecount.atoms.Unsupported`, a q not in sizes."""
    if q not in sizes:
        raise Unsupported(f"{what} at q={q}: counting supports q in {sizes}")


def pack(v: Vector) -> int:
    """The packed form of a coefficient tuple: coefficient i in byte i."""
    return int.from_bytes(bytes(v), "little")


def unpack(x: int, dim: int) -> Vector:
    """The coefficient tuple, of length dim, of a packed vector."""
    return tuple(x.to_bytes(dim, "little"))


def pivot(x: int) -> int:
    """Index of the first nonzero coefficient of a nonzero packed vector."""
    return ((x & -x).bit_length() - 1) >> 3


@lru_cache(maxsize=None)
def _residues(q: int) -> bytes:
    """Translate table taking each byte value to its residue mod q."""
    return bytes(i % q for i in range(256))


def _mod(x: int, table: bytes, dim: int) -> int:
    """x with each of its dim coefficients, all below 256, replaced by its
    residue under the :func:`_residues` table."""
    return int.from_bytes(x.to_bytes(dim, "little").translate(table), "little")


@lru_cache(maxsize=None)
def monomial_shifts(mul_map: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Multiplication by x or y as (mask, bit shift) pairs, one per distinct
    offset mul_map[i] - i: the product of v is the OR of (v & mask) << shift.
    The monomial maps are injective where nonzero, so the parts never
    overlap."""
    masks: dict[int, int] = {}
    for i, j in enumerate(mul_map):
        if j >= 0:
            masks[j - i] = masks.get(j - i, 0) | 255 << 8 * i
    return tuple((mask, 8 * offset) for offset, mask in masks.items())


def vec_mul_monomial(v: int, shifts: tuple[tuple[int, int], ...]) -> int:
    """Multiply a packed vector by x or y, given as :func:`monomial_shifts`."""
    out = 0
    for mask, shift in shifts:
        out |= (v & mask) << shift
    return out


def echelon_reduce(rows: list[Row], v: int, q: int, dim: int) -> Row | None:
    """Reduce v, of dim coefficients, against an echelon basis; return the
    normalized new row, or None if v lies in the span."""
    table = _residues(q)
    for piv, row in rows:
        c = v >> 8 * piv & 255
        if c:
            v = _mod(v + (q - c) * row, table, dim)
    if not v:
        return None
    p = pivot(v)
    c = v >> 8 * p & 255
    if c != 1:
        v = _mod(v * pow(c, q - 2, q), table, dim)
    return p, v


def close_under_multiplication(generators, alg: LocalAlgebra, q: int) -> list[Row]:
    """Reduced echelon basis, rows sorted by pivot, of the ideal generated
    by the given packed vectors: the span of all monomial multiples, built
    with a worklist.  The basis is its own canonical form.

    Each worklist vector is reduced by :func:`echelon_reduce` against the
    rows found so far; a vector that keeps a new row adds it, in pivot
    order, and its x- and y-multiples join the worklist.  One
    back-substitution at the end, from the last row up, reduces each row
    against the rows below it.  No count runs through it; it closes given
    generators, a reference independent of the search."""
    work = list(generators)
    dim = alg.dim
    maps = (monomial_shifts(alg.mul_x), monomial_shifts(alg.mul_y))
    basis: list[Row] = []
    while work:
        row = echelon_reduce(basis, work.pop(), q, dim)
        if row:
            insort(basis, row)
            work += [vec_mul_monomial(row[1], m) for m in maps]
    for k in reversed(range(len(basis))):
        basis[k] = echelon_reduce(basis[k + 1:], basis[k][1], q, dim)
    return basis


def is_closed(rows: list[Row], alg: LocalAlgebra, q: int) -> bool:
    """Whether the span of an echelon basis, rows sorted by pivot, is closed
    under multiplication by x and by y, i.e. is an ideal."""
    maps = (monomial_shifts(alg.mul_x), monomial_shifts(alg.mul_y))
    return all(echelon_reduce(rows, vec_mul_monomial(v, m), q, alg.dim) is None
               for _, v in rows for m in maps)


def row_choices(p: int, pivots, n: int, q: int) -> list[int]:
    """Every packed row at pivot p of a reduced echelon form of n columns
    over F_q: e_p plus every assignment of the columns after p that are not
    in pivots.  Only the pivots after p matter; the last free cell varies
    fastest."""
    options = [1 << 8 * p]
    for j in range(p + 1, n):
        if j not in pivots:
            options = [x + (c << 8 * j) for x in options for c in range(q)]
    return options


def reduced_echelon_forms(k: int, n: int, q: int):
    """Yield every reduced echelon form of a k x n matrix of rank k over
    F_q, one per k-dimensional subspace, as a tuple of k packed rows.

    For a fixed pivot set each row varies independently over its
    :func:`row_choices`, so the forms are their product; pivot sets come
    in :func:`itertools.combinations` order, row 0 varies slowest and the
    last free cell fastest."""
    for pivots in combinations(range(n), k):
        yield from product(*(row_choices(p, pivots, n, q) for p in pivots))


class IdealRecord(NamedTuple):
    """Canonical form of an ideal: reduced echelon basis plus colength."""

    basis: tuple[Vector, ...]
    colength: int

    @classmethod
    def from_rows(cls, basis: tuple[Vector, ...], alg: LocalAlgebra, q: int) -> "IdealRecord":
        """Wrap an enumerated basis, checking that it is a reduced echelon
        basis and that its span is closed under multiplication by x and y."""
        pivots = [next((i for i, c in enumerate(v) if c), -1) for v in basis]
        in_field = all(0 <= c < q for v in basis for c in v)
        # each pivot column is the unit column of its row, pivots ascending
        if not in_field or pivots != sorted(set(pivots)) or not all(
                p >= 0 and [w[p] for w in basis] == [int(s == r) for s in range(len(basis))]
                for r, p in enumerate(pivots)):
            raise ValueError(f"basis not in reduced echelon form: {basis}")
        if not is_closed([(p, pack(v)) for p, v in zip(pivots, basis)], alg, q):
            raise ValueError(f"basis not closed under multiplication: {basis}")
        return cls(basis=basis, colength=alg.dim - len(basis))


def enumerate_closed_subspaces(alg: LocalAlgebra, q: int, colength: int) -> set[tuple[Vector, ...]]:
    """All subspaces of the algebra closed under multiplication by x and y,
    of the given colength: its ideals, with no assumption on how many
    generators they need; q must be a prime in :data:`PRIMES`.

    The punctual counts are the sizes of these sets.  A colength-c ideal
    contains every monomial of degree >= c and lies inside the maximal
    ideal, so its basis holds those forced unit rows and only the middle
    degrees, the free region, vary.  From the forced rows the search
    chooses each further pivot p, largest first, and with it every
    admissible row: e_p + sum a_j e_j over the free columns j after p that
    are not pivots, whose x- and y-multiples reduce to zero against the
    rows held, the test :func:`is_closed` applies to each row.
    Multiplication by x or y sends each index to a larger one, never to
    index 0, so the multiples of a row at pivot p are zero at every column
    up to p: they reduce only against the forced rows and the rows of
    larger pivot, and a partial form with no admissible row cannot be
    completed to a closed subspace.

    The held rows span a fixed space, so the test is linear in the a_j and
    the admissible rows are solved for, not tried.  Each column j, then p,
    is packed as x e_j | y e_j | e_j, three blocks of dim bytes, and
    reduced by :func:`echelon_reduce` against the held rows, lifted into
    both product blocks, and the columns already kept.  A column that keeps
    a pivot in a product block is kept; one that reduces to its last block,
    the tag, is a combination of the a_j whose multiples lie in the span.
    If p's column reduces to its tag, that tag is one admissible row, and
    the others add every F_q-combination of the earlier tags; otherwise no
    row at pivot p is admissible.
    """
    require_field("closed subspaces", q, PRIMES)
    dim = alg.dim
    deg = [a + b for a, b in alg.monomials]
    forced = [i for i, d in enumerate(deg) if d >= colength]
    free_region = [i for i, d in enumerate(deg) if 0 < d < colength]
    extra_dim = (dim - colength) - len(forced)
    found: set[tuple[Vector, ...]] = set()
    x_shifts, y_shifts = monomial_shifts(alg.mul_x), monomial_shifts(alg.mul_y)
    table = _residues(q)

    def closed_rows(rows: list[Row], pivots: tuple[int, ...], p: int) -> list[int]:
        # every admissible row at pivot p, given the rows held
        basis = sorted(rows + [(i + dim, v << 8 * dim) for i, v in rows])
        kernel: list[int] = []
        for j in [j for j in free_region if j > p and j not in pivots] + [p]:
            e = 1 << 8 * j
            column = (vec_mul_monomial(e, x_shifts) | vec_mul_monomial(e, y_shifts) << 8 * dim
                      | e << 16 * dim)
            piv, v = echelon_reduce(basis, column, q, 3 * dim)
            if piv < 2 * dim:
                insort(basis, (piv, v))
            elif j != p:
                kernel.append(v >> 16 * dim)
            else:
                solutions = [v >> 16 * dim]
                for w in kernel:
                    solutions = [_mod(s + c * w, table, dim) for s in solutions for c in range(q)]
                return solutions
        return []

    def extend(rows: list[Row], pivots: tuple[int, ...], k: int, top: int) -> None:
        # rows holds the forced rows and the rows chosen at pivots, a reduced
        # echelon basis; choose k more rows, pivots from free_region[:top]
        if not k:
            found.add(tuple(unpack(v, dim) for _, v in sorted(rows)))
            return
        for t, p in enumerate(free_region[k - 1:top], k - 1):
            for v in closed_rows(rows, pivots, p):
                extend(rows + [(p, v)], pivots + (p,), k - 1, t)

    if extra_dim >= 0:
        extend([(i, 1 << 8 * i) for i in forced], (), extra_dim, len(free_region))
    return found
