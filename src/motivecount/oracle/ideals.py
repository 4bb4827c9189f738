"""The echelon linear algebra of the oracle and the searches built on it.

A vector over the prime field F_q, indexed by the monomial basis of a
:class:`~motivecount.oracle.algebra.LocalAlgebra`, is packed into one
``int``: coefficient i is byte i, little-endian (:func:`pack`,
:func:`unpack`).  The row operation v - c*r is then the big-int
multiply-add v + (q - c)*r followed by one ``bytes.translate`` through a
table taking each byte value to its residue mod q.  For every prime
q <= 13 a byte holds at most (q - 1) + (q - 1)^2 <= 156 before that
translate, so no coefficient carries into the next; those primes are the
kernel's domain.  An echelon basis being built is held as a
``{pivot: packed row}`` dict with its mask, an int with byte value 255 at
every pivot, so :func:`echelon_reduce` visits only the pivots a vector
meets.  Multiplication by x or y is :func:`multiply`, over the packed
images of the basis vectors that the algebra holds.  Coefficient tuples
appear only at the edges, through :func:`pack` and :func:`unpack`.

A subspace is stored as the reduced row echelon basis of its span, which
is a canonical form: two subspaces are equal iff their bases are equal.
A basis is returned as a tuple of packed rows in ascending pivot order,
both by :func:`enumerate_closed_subspaces` and by
:func:`reduced_echelon_forms`, which chains ``itertools.product`` over the
pivot sets, so its forms are built in C.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product
from operator import mul

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


def multiply(images: tuple[int, ...], v: int, dim: int) -> int:
    """The product of a packed vector of dim coefficients by x or y, given
    as the images of the basis vectors (``LocalAlgebra.x`` or ``.y``): the
    sum of v's coefficients times their images.  The images are distinct
    unit vectors or 0, so no two terms share a byte and none is reduced."""
    return sum(map(mul, v.to_bytes(dim, "little"), images))


def echelon_reduce(rows: dict[int, int], mask: int, v: int, q: int, dim: int) -> Row | None:
    """Reduce v, of dim coefficients, against an echelon basis held as a
    {pivot: packed row} dict with its mask, an int with byte value 255 at
    every pivot; return the normalized new row, or None if v lies in the
    span.

    Only the pivots v meets are visited: while hit = v & mask is nonzero, v
    is reduced at the lowest pivot it hits.  A row is zero below its pivot,
    so that clears the pivot's byte and changes only larger ones; the
    pivots reduced at, and the result, are those of reducing by every row
    in pivot order.  The rows need not be reduced against each other."""
    table = _residues(q)
    hit = v & mask
    while hit:
        p = pivot(hit)
        v = _mod(v + (q - (v >> 8 * p & 255)) * rows[p], table, dim)
        hit = v & mask
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
    rows found so far; a vector that keeps a new row adds it at its pivot,
    and its x- and y-multiples, by :func:`multiply`, join the worklist.
    One back-substitution at the end, from the last pivot down, reduces
    each row against the rows after it.  No count runs through it; it
    closes given generators, a reference independent of the search."""
    work = list(generators)
    dim = alg.dim
    basis: dict[int, int] = {}
    mask = 0
    while work:
        row = echelon_reduce(basis, mask, work.pop(), q, dim)
        if row:
            p, v = row
            basis[p] = v
            mask |= 255 << 8 * p
            work += [multiply(alg.x, v, dim), multiply(alg.y, v, dim)]
    reduced: dict[int, int] = {}
    mask = 0
    for p in sorted(basis, reverse=True):
        reduced[p] = echelon_reduce(reduced, mask, basis[p], q, dim)[1]
        mask |= 255 << 8 * p
    return sorted(reduced.items())


def is_closed(rows: list[Row], alg: LocalAlgebra, q: int) -> bool:
    """Whether the span of an echelon basis, given as (pivot, row) pairs, is
    closed under multiplication by x and by y, i.e. is an ideal."""
    basis = dict(rows)
    mask = sum(255 << 8 * p for p in basis)
    return all(echelon_reduce(basis, mask, multiply(m, v, alg.dim), q, alg.dim) is None
               for v in basis.values() for m in (alg.x, alg.y))


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
    """An iterator over every reduced echelon form of a k x n matrix of rank
    k over F_q, one per k-dimensional subspace, as a tuple of k packed rows.

    For a fixed pivot set each row varies independently over its
    :func:`row_choices`, so the forms are their :func:`itertools.product`;
    one :func:`itertools.chain` joins the pivot sets, in
    :func:`itertools.combinations` order, so no Python frame runs per form.
    Row 0 varies slowest and the last free cell fastest."""
    return chain.from_iterable(product(*(row_choices(p, pivots, n, q) for p in pivots))
                               for pivots in combinations(range(n), k))


def enumerate_closed_subspaces(alg: LocalAlgebra, q: int, colength: int) -> set[tuple[int, ...]]:
    """All subspaces of the algebra closed under multiplication by x and y,
    of the given colength: its ideals, with no assumption on how many
    generators they need; q must be a prime in :data:`PRIMES`.  Each is
    its reduced echelon basis, a tuple of packed rows in ascending pivot
    order, the layout of :func:`reduced_echelon_forms`' forms.

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
    the admissible rows are solved for, not tried.  Each free column j is
    packed once per cell from the algebra's images as x e_j | y e_j | e_j,
    three blocks of dim bytes.
    At each search node one sweep walks the free region from its last
    column down to the smallest candidate pivot, skipping the pivots
    chosen, and reduces each column once by :func:`echelon_reduce` against
    the held rows, lifted into both product blocks, and the columns kept so
    far: one basis dict per node, which a kept column joins with one insert
    and one ``mask |=``.  A column that keeps a pivot in a product block is
    kept; one that reduces to its last block, the tag, joins the kernel: a
    combination of the a_j whose multiples lie in the span.  Every chosen
    pivot is larger than every candidate, so the columns reduced before
    candidate p are exactly the free columns after p that are not pivots.
    If p's column reduces to its tag, that tag, whose e_p coefficient stays
    1, is one admissible row, and the others add every F_q-combination of
    the kernel tags found before it; otherwise no row at pivot p is
    admissible.  The admissible rows form an affine space, so the order of
    the columns does not change them.  The held rows are kept in pivot
    order, a row at pivot p going after the forced rows below p, so the
    last row chosen completes a basis in one tuple concatenation.
    """
    require_field("closed subspaces", q, PRIMES)
    dim = alg.dim
    deg = [a + b for a, b in alg.monomials]
    forced = [i for i, d in enumerate(deg) if d >= colength]
    free_region = [i for i, d in enumerate(deg) if 0 < d < colength]
    extra_dim = (dim - colength) - len(forced)
    found: set[tuple[int, ...]] = set()
    columns = [alg.x[j] | alg.y[j] << 8 * dim | 1 << 8 * (j + 2 * dim) for j in free_region]
    # where a row at pivot free_region[t] goes in the held rows: after the
    # forced rows before it, and before every chosen row, all at larger pivots
    slots = [sum(i < p for i in forced) for p in free_region]
    table = _residues(q)

    def closed_rows(held: dict[int, int], mask: int, k: int,
                    top: int) -> list[tuple[int, int, list[int]]]:
        # (t, p, every admissible row at pivot p = free_region[t]) for each
        # candidate k - 1 <= t < top with one, given the held rows at their
        # pivots in both product blocks; held's keys below dim are the pivots
        basis = dict(held)
        kernel: list[int] = []
        choices = []
        for t in range(len(free_region) - 1, k - 2, -1):
            p = free_region[t]
            if p in held:
                continue
            piv, v = echelon_reduce(basis, mask, columns[t], q, 3 * dim)
            if piv < 2 * dim:
                basis[piv] = v
                mask |= 255 << 8 * piv
                continue
            tag = v >> 16 * dim
            if t < top:
                solutions = [tag]
                for w in kernel:
                    solutions = [_mod(s + c * w, table, dim) for s in solutions for c in range(q)]
                choices.append((t, p, solutions))
            kernel.append(tag)
        return choices

    def extend(rows: tuple[int, ...], held: dict[int, int], mask: int, k: int, top: int) -> None:
        # rows holds the forced rows and the rows chosen so far, a reduced
        # echelon basis in pivot order, and held and mask the same rows at
        # their pivots in both product blocks; choose k >= 1 more rows,
        # pivots from free_region[:top]
        for t, p, solutions in closed_rows(held, mask, k, top):
            before, after = rows[:slots[t]], rows[slots[t]:]
            if k == 1:
                found.update([before + (v,) + after for v in solutions])
                continue
            lifted = mask | 255 << 8 * p | 255 << 8 * (p + dim)
            for v in solutions:
                extend(before + (v,) + after, {**held, p: v, p + dim: v << 8 * dim},
                       lifted, k - 1, t)

    rows = tuple(1 << 8 * i for i in forced)
    if extra_dim == 0:
        found.add(rows)
    elif extra_dim > 0:
        held = {i + b * dim: 1 << 8 * (i + b * dim) for i in forced for b in (0, 1)}
        extend(rows, held, sum(255 << 8 * i for i in held), extra_dim, len(free_region))
    return found
