"""Finite-field counting: plane points, Grassmannians, ideal enumeration, bridges."""

import hashlib
import itertools
import random

import pytest

from motivecount.atoms import Unsupported, grassmannian, hilb_p2, projective
from motivecount.cli import result_fields, results_to_csv
from motivecount.oracle import (
    BRIDGES,
    CURVES,
    ROWS,
    FqCountResult,
    IdealRecord,
    bridge_check_all,
    count_grassmannian,
    count_hilb2_p2,
    count_punctual_ideals,
    count_punctual_total_vs_table,
    count_sym2_p2,
    enumerate_closed_subspaces,
    expected_class,
    projective_plane_count,
    punctual_ideal_records,
    reduced_echelon_forms,
    run_bridge,
    truncated_algebra,
)
from motivecount.oracle import _pure
from motivecount.oracle.counting import MAX_SWEEP
from motivecount.oracle.ideals import (
    PRIMES,
    close_under_multiplication,
    insert_reduced,
    is_closed,
    pack,
    pivot,
    unpack,
)


def _basis(rows, dim):
    """The coefficient tuples of packed (pivot, row) pairs."""
    return tuple(unpack(v, dim) for _, v in rows)


def _unpacked_forms(k, n, q, columns=None):
    """reduced_echelon_forms with each packed row read back as a tuple."""
    return [tuple(unpack(row, n) for row in form)
            for form in reduced_echelon_forms(k, n, q, columns)]


def _closed_record(generators, alg, q) -> IdealRecord:
    """The record of the ideal spanned by the generators and their multiples."""
    rows = close_under_multiplication([pack(v) for v in generators], alg, q)
    return IdealRecord(basis=_basis(rows, alg.dim), colength=alg.dim - len(rows))


# -- plane point counts ---------------------------------------------------------

def test_projective_plane_counts():
    assert projective_plane_count(2) == 7
    assert projective_plane_count(3) == 13
    assert projective_plane_count(4) == 21
    assert projective_plane_count(9) == 91
    for q in (1, 5, 8):
        with pytest.raises(Unsupported, match=rf"^field order {q} not supported"):
            projective_plane_count(q)


# -- grassmannians -------------------------------------------------------------

def test_reduced_echelon_forms_are_distinct():
    forms = _unpacked_forms(2, 4, 2)
    assert len(forms) == len(set(forms)) == 35
    for mat in forms:
        assert len(mat) == 2 and all(len(row) == 4 for row in mat)


@pytest.mark.parametrize("q", [2, 3])
def test_reduced_echelon_forms_are_the_spans(q):
    """The forms are exactly the reduced spans of all k-tuples of vectors of
    rank k, built up one vector at a time and each reduced by Gauss-Jordan
    elimination."""
    for n in range(5):
        vectors = list(itertools.product(range(q), repeat=n))
        spans = {()}
        for k in range(n + 1):
            forms = _unpacked_forms(k, n, q)
            assert len(forms) == len(set(forms)) == grassmannian(k, n).evaluate(q), (k, n)
            assert set(forms) == spans, (k, n)
            spans = {_span_rref(span + (v,), q) for span in spans for v in vectors}
            spans = {span for span in spans if len(span) == k + 1}


def _nested_loop_forms(k, n, q):
    """The enumeration order of the forms: pivot sets in lexicographic
    order, then the free cells, row by row, with the last cell fastest."""
    for pivots in itertools.combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n)
                if j not in pivots]
        for assign in itertools.product(range(q), repeat=len(free)):
            mat = [[int(j == p) for j in range(n)] for p in pivots]
            for (i, j), val in zip(free, assign):
                mat[i][j] = val
            yield tuple(tuple(row) for row in mat)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_reduced_echelon_forms_order(q):
    for n in range(6 if q < 4 else 5):
        for k in range(n + 1):
            assert _unpacked_forms(k, n, q) == list(_nested_loop_forms(k, n, q))


@pytest.mark.parametrize("columns,width", [((0, 2, 3), 5), ((1, 2, 4, 6), 7), ((), 2)])
def test_reduced_echelon_forms_placed_in_columns(columns, width):
    def embed(row):
        out = [0] * width
        for col, c in zip(columns, row):
            out[col] = c
        return tuple(out)

    for q in (2, 3):
        for k in range(len(columns) + 1):
            placed = _unpacked_forms(k, width, q, columns)
            assert placed == [tuple(embed(row) for row in form)
                              for form in _unpacked_forms(k, len(columns), q)]


def test_count_grassmannian_values():
    assert count_grassmannian(2, 4, 2) == 35
    assert count_grassmannian(2, 6, 2) == 651
    assert count_grassmannian(2, 4, 3) == 130
    assert count_grassmannian(2, 6, 4) == 93093
    assert count_grassmannian(0, 5, 2) == 1
    assert count_grassmannian(3, 3, 3) == 1
    # closed-form cross-check
    assert count_grassmannian(2, 6, 2) == (2**6 - 1) * (2**6 - 2) // ((2**2 - 1) * (2**2 - 2))
    assert count_grassmannian(2, 4, 3) == (3**4 - 1) * (3**4 - 3) // ((3**2 - 1) * (3**2 - 3))


def test_count_grassmannian_errors():
    with pytest.raises(Unsupported):
        count_grassmannian(2, 4, 5)
    with pytest.raises(ValueError):
        count_grassmannian(3, 2, 2)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 4), (2, 5), (2, 6)])
def test_grassmannian_bridge(k, n, q):
    assert count_grassmannian(k, n, q) == grassmannian(k, n).evaluate(q)


# -- plane point configurations -------------------------------------------------

def test_count_hilb2():
    # 21 rational pairs + 7 conjugate pairs + 21 tangent directions
    assert count_hilb2_p2(2) == 21 + 7 + 21 == 49
    # 78 + 39 + 52
    assert count_hilb2_p2(3) == 78 + 39 + 52 == 169
    assert count_hilb2_p2(2) == hilb_p2(2).evaluate(2)
    assert count_hilb2_p2(3) == hilb_p2(2).evaluate(3)
    with pytest.raises(Unsupported):
        count_hilb2_p2(4)


def test_count_sym2():
    assert count_sym2_p2(2) == (49 + 21) // 2 == 35
    assert count_sym2_p2(3) == (169 + 91) // 2 == 130
    assert count_sym2_p2(2) == projective(2).sym_power(2).evaluate(2)
    with pytest.raises(Unsupported):
        count_sym2_p2(4)


# -- punctual ideal enumeration --------------------------------------------------

RIBBON_TABLE_Q2 = [1, 3, 3, 7, 9, 15]
NODE_TABLE_Q2 = [1, 3, 5, 7, 9, 11]
RIBBON_TABLE_Q3 = [1, 4, 4, 13, 19, 40]
NODE_TABLE_Q3 = [1, 4, 7, 10, 13, 16]


@pytest.mark.parametrize("curve", CURVES)
def test_multiplication_follows_the_monomial_order(curve):
    """The basis order is a monomial order: multiplying by x or y sends
    index i to a larger index or to -1 (the product vanishes), and keeps
    the order of any two indices whose products are both nonzero."""
    for c in range(1, 11):
        alg = truncated_algebra(curve, c)
        for mul_map in (alg.mul_x, alg.mul_y):
            assert all(j == -1 or j > i for i, j in enumerate(mul_map)), (c, mul_map)
            images = [j for j in mul_map if j != -1]
            assert all(a < b for a, b in zip(images, images[1:])), (c, mul_map)
        # each entry follows the germ's equations: x^a y^b is zero exactly
        # when x^2 = 0 (ribbon) or xy = 0 (node) kills it, or a + b > c
        for i, (a, b) in enumerate(alg.monomials):
            assert not _vanishes(curve, c, a, b), (c, a, b)
            for j, image in ((alg.mul_x[i], (a + 1, b)), (alg.mul_y[i], (a, b + 1))):
                assert (j == -1) == _vanishes(curve, c, *image), (c, image, j)
                assert j == -1 or alg.monomials[j] == image, (c, image, j)


def _vanishes(curve, c, a, b):
    """Whether x^a y^b is zero in the truncated algebra of the germ."""
    germ = a >= 2 if curve == "ribbon" else a >= 1 and b >= 1
    return germ or a + b > c


def test_table_row_sums():
    assert [expected_class("ribbon", c).evaluate(2) for c in range(1, 7)] == RIBBON_TABLE_Q2
    assert [expected_class("node", c).evaluate(2) for c in range(1, 7)] == NODE_TABLE_Q2
    assert [expected_class("ribbon", c).evaluate(3) for c in range(1, 7)] == RIBBON_TABLE_Q3
    assert [expected_class("node", c).evaluate(3) for c in range(1, 7)] == NODE_TABLE_Q3
    assert expected_class("node", 3).coeffs == (1, 2)  # 1 + 2L
    assert expected_class("ribbon", 4).coeffs == (1, 1, 1)  # (q+1) + (q-1)q + q
    assert sum(1 for c, _, _ in ROWS["node"] if c == 5) == 7


#: sha256 of the table rows as text, one line per row: curve, colength,
#: ideal and params, tab-separated, in table order, ribbon first
ROWS_SHA256 = "2e00eaf40684250ebf3bdd3bca03c134c31a103f6a767565f893036d40688bea"


def test_table_rows_verbatim():
    assert list(ROWS) == ["ribbon", "node"]
    text = "".join(f"{curve}\t{c}\t{ideal}\t{params}\n"
                   for curve, rows in ROWS.items() for c, ideal, params in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == ROWS_SHA256


@pytest.mark.parametrize("curve,colength", [("cusp", 2), ("node", 7)])
def test_expected_class_without_rows(curve, colength):
    with pytest.raises(ValueError, match=rf"^no rows for {curve} colength {colength}$"):
        expected_class(curve, colength)


@pytest.mark.parametrize("curve", CURVES)
@pytest.mark.parametrize("q,maxc", [(2, 4), (3, 4)])
def test_punctual_counts_match_tables_small(curve, q, maxc):
    for c in range(1, maxc + 1):
        expected = expected_class(curve, c).evaluate(q)
        assert count_punctual_ideals(curve, c, q) == expected, (curve, c, q)


def test_punctual_node_colength5():
    assert count_punctual_ideals("node", 5, 2) == expected_class("node", 5).evaluate(2) == 9


def test_punctual_ribbon_colength5_known_row_defect():
    """The tabulated colength-5 rows for the double line over-count: the
    family (x^2, xy + k y^2 + k' y^3) + m^4 with k != 0 actually has
    colength 4 (x times the generator yields x y^2, then y times it yields
    y^3), so it duplicates the colength-4 family (x^2, k y^2 + k' xy) + m^3.
    The enumeration finds 7 ideals; the row sum predicts 2q^2 + 1 = 9."""
    assert count_punctual_ideals("ribbon", 5, 2) == 7
    assert expected_class("ribbon", 5).evaluate(2) == 9
    # the suspect family, closed in the colength-5 ambient algebra
    alg = truncated_algebra("ribbon", 5)
    idx = {m: i for i, m in enumerate(alg.monomials)}
    m4 = [tuple(1 if j == i else 0 for j in range(alg.dim))
          for i, mon in enumerate(alg.monomials) if sum(mon) >= 4]
    for kp in (0, 1):
        gen = [0] * alg.dim
        gen[idx[(1, 1)]] = 1   # xy
        gen[idx[(0, 2)]] = 1   # k y^2 with k = 1
        gen[idx[(0, 3)]] = kp  # k' y^3
        rec = _closed_record([tuple(gen)] + m4, alg, 2)
        assert rec.colength == 4


def test_two_generator_assumption_exhaustive():
    """Every multiplication-closed subspace is reachable from a generator
    pair: the engine's records are certified against a sweep with no
    generator assumption, at both field sizes, and for the defect-critical
    cell."""
    cells = {
        2: [(curve, c) for curve in CURVES for c in (1, 2, 3, 4, 5)],
        3: [(curve, c) for curve in CURVES for c in (1, 2, 3, 4)],
    }
    for q, q_cells in cells.items():
        for curve, c in q_cells:
            alg = truncated_algebra(curve, c)
            exhaustive = enumerate_closed_subspaces(alg, q, c)
            reachable = {r.basis for r in punctual_ideal_records(curve, c, q)}
            assert exhaustive == reachable, (curve, c, q)


@pytest.mark.parametrize("q,maxc", [(2, 3), (3, 2)])
def test_closed_subspaces_match_every_subspace_tested(q, maxc):
    """The sweep, which varies only the middle degrees and tests only their
    rows, finds the same subspaces as testing every subspace of the right
    dimension for closure."""
    for curve in CURVES:
        for c in range(1, maxc + 1):
            alg = truncated_algebra(curve, c)
            reference = {tuple(unpack(v, alg.dim) for v in form)
                         for form in reduced_echelon_forms(alg.dim - c, alg.dim, q)
                         if is_closed([(pivot(v), v) for v in form], alg, q)}
            assert enumerate_closed_subspaces(alg, q, c) == reference, (curve, c)


@pytest.mark.parametrize("q", [4, 17])
def test_closed_subspaces_need_a_prime_the_kernel_supports(q):
    """Z/4 is not a field, and 17 overflows a packed coefficient."""
    with pytest.raises(Unsupported, match=rf"^closed subspaces at q={q}: q must be a prime in "
                                          r"\(2, 3, 5, 7, 11, 13\)$"):
        enumerate_closed_subspaces(truncated_algebra("node", 2), q, 2)


def test_ideal_records_are_canonical_and_idempotent():
    for curve in CURVES:
        alg = truncated_algebra(curve, 3)
        records = punctual_ideal_records(curve, 3, 2)
        assert len({r.basis for r in records}) == len(records)
        for rec in records:
            assert rec.colength == 3
            # closing an ideal again is the identity
            assert _closed_record(rec.basis, alg, 2) == rec


def test_from_rows_rejects_non_ideals():
    alg = truncated_algebra("node", 2)
    # span of the single vector "x" is not an ideal (x*x = x^2 escapes)
    x_vec = tuple(1 if alg.monomials[i] == (1, 0) else 0 for i in range(alg.dim))
    with pytest.raises(ValueError, match="^basis not closed under multiplication"):
        IdealRecord.from_rows((x_vec,), alg, 2)


@pytest.mark.parametrize("curve", CURVES)
def test_from_rows_rejects_bases_not_in_reduced_echelon_form(curve):
    """A record's basis is its canonical key, so from_rows takes only a
    reduced echelon basis and never reduces one itself."""
    alg = truncated_algebra(curve, 3)
    for q in (2, 3):
        for basis in _pure.enumerate_ideals(alg, q, 3):
            assert _span_rref(basis, q) == basis
            assert IdealRecord.from_rows(basis, alg, q).basis == basis
            first, second, *rest = basis
            bad = [
                tuple(reversed(basis)),  # same span, pivots descending
                # same span, a pivot column not cleared
                (tuple((a + b) % q for a, b in zip(first, second)), second, *rest),
                (first,) + basis,  # a repeated row
                ((0,) * alg.dim,) + basis,  # a zero row
            ]
            if q == 3:  # same span, a pivot 2
                bad.append((tuple(2 * a % q for a in first), second, *rest))
            for rows in bad:
                with pytest.raises(ValueError, match="^basis not in reduced echelon form"):
                    IdealRecord.from_rows(rows, alg, q)


def test_from_rows_rejects_coefficients_outside_the_field():
    """(x + y, x^2, y^2) in the node's colength-2 algebra, with y's
    coefficient written 3 or 5: the same ideal mod 2, but not its canonical
    basis, and 3 or 5 is not a coefficient the packed kernel reads."""
    alg = truncated_algebra("node", 2)
    assert alg.monomials == ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2))
    basis = ((0, 1, 0, 1, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1))
    assert IdealRecord.from_rows(basis, alg, 2).colength == 2
    for c in (3, 5):
        with pytest.raises(ValueError, match="^basis not in reduced echelon form"):
            IdealRecord.from_rows(((0, 1, 0, c, 0),) + basis[1:], alg, 2)


def _monomial_multiple(f, monomial, alg, q):
    """f times the basis monomial x^a y^b, each coefficient shifted a times
    along mul_x and b times along mul_y (-1: the product vanishes)."""
    out = [0] * alg.dim
    for i, c in enumerate(f):
        k = i
        for mul_map, times in ((alg.mul_x, monomial[0]), (alg.mul_y, monomial[1])):
            for _ in range(times):
                k = mul_map[k] if k >= 0 else -1
        if k >= 0:
            out[k] = (out[k] + c) % q
    return out


def _span_rref(vectors, q):
    """Reduced row echelon basis of the span, rows sorted by pivot, by
    Gauss-Jordan elimination."""
    rows = []
    for v in vectors:
        for r in rows:
            c = v[r.index(1)]
            v = [(a - c * b) % q for a, b in zip(v, r)]
        if any(v):
            p = next(i for i, c in enumerate(v) if c)
            inv = pow(v[p], q - 2, q)
            v = [(a * inv) % q for a in v]
            rows = [[(a - r[p] * b) % q for a, b in zip(r, v)] for r in rows] + [v]
    return tuple(tuple(r) for r in sorted(rows, key=lambda r: r.index(1)))


def _check_principal_closures(curve, c, q):
    alg = truncated_algebra(curve, c)
    for f in itertools.product(range(q), repeat=alg.dim):
        expected = _span_rref([_monomial_multiple(f, m, alg, q) for m in alg.monomials], q)
        rows = close_under_multiplication([pack(f)], alg, q)
        # the back-substituted rows, sorted by pivot, are the canonical form;
        # every f at q = 3, not one per scalar class, so a leading 2 is normalized
        assert _basis(rows, alg.dim) == expected, (curve, c, q, f)


@pytest.mark.parametrize("curve", CURVES)
@pytest.mark.parametrize("q,maxc", [(2, 3), (3, 2)])
def test_principal_closure_is_span_of_monomial_multiples(curve, q, maxc):
    """(f) is spanned by f times every basis monomial; units included."""
    for c in range(1, maxc + 1):
        _check_principal_closures(curve, c, q)


@pytest.mark.parametrize("curve", CURVES)
@pytest.mark.parametrize("q,c", [(2, 4), (3, 3)])
def test_principal_closure_is_span_at_the_next_colength(curve, q, c):
    """The same check one colength further, where the reduction has more
    worklist vectors to absorb."""
    _check_principal_closures(curve, c, q)


@pytest.mark.parametrize("curve", CURVES)
def test_a_unit_generates_the_whole_algebra(curve):
    alg = truncated_algebra(curve, 3)
    idx = {m: i for i, m in enumerate(alg.monomials)}

    def element(*terms):
        v = [0] * alg.dim
        for mon, c in terms:
            v[idx[mon]] = c
        return tuple(v)

    x, y2 = element(((1, 0), 1)), element(((0, 2), 2))
    unit = element(((0, 0), 2), ((0, 1), 1))  # 2 + y
    identity = tuple(tuple(int(i == j) for j in range(alg.dim)) for i in range(alg.dim))
    rows = close_under_multiplication([pack(x), pack(unit), pack(y2)], alg, 3)
    assert _basis(rows, alg.dim) == identity
    assert _closed_record([unit], alg, 3).colength == 0


@pytest.mark.parametrize("q", [2, 3])
def test_scalar_representatives_cover_each_class_once(q):
    """One representative per class v ~ cv (c a nonzero scalar); at q = 2
    that is every vector."""
    for dim in range(1, 6):
        reps = list(_pure.scalar_representatives(dim, q))
        assert len(reps) == len(set(reps)) == 1 + (q ** dim - 1) // (q - 1)
        for v in itertools.product(range(q), repeat=dim):
            scaled = {tuple((c * a) % q for a in v) for c in range(1, q)}
            assert len(scaled.intersection(reps)) == 1, (dim, v)


@pytest.mark.parametrize("curve", CURVES)
def test_principal_closures_match_a_sweep_of_every_element(curve):
    """Sweeping one element per scalar class finds every principal ideal
    that a sweep of all q^dim elements finds, at q = 3."""
    for c in range(1, 4):
        alg = truncated_algebra(curve, c)
        every = {_basis(close_under_multiplication([pack(f)], alg, 3), alg.dim)
                 for f in itertools.product(range(3), repeat=alg.dim)}
        closures = _pure.principal_closures(alg, 3)
        assert {tuple(unpack(v, alg.dim) for v in key) for key in closures} == every, (curve, c)
        assert all(key == tuple(v for _, v in rows) for key, rows in closures.items())


def test_insert_reduced_keeps_reduced_echelon_form():
    rng = random.Random(7)
    for trial in range(200):
        q, dim = rng.choice((2, 3)), rng.randint(1, 8)
        rows, inserted = [], []
        for _ in range(rng.randint(1, dim + 2)):
            v = tuple(rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(dim))
            before = len(rows)
            new = insert_reduced(rows, pack(v), q, dim)
            inserted.append(v)
            assert (new is None) == (len(rows) == before), (trial, v)
            assert [p for p, _ in rows] == sorted({p for p, _ in rows}), trial
            assert all(next(i for i, c in enumerate(r) if c) == p and r[p] == 1
                       for p, r in zip((p for p, _ in rows), _basis(rows, dim))), trial
            assert _basis(rows, dim) == _span_rref(inserted, q), trial


# -- the packed kernel against tuple elimination ----------------------------------

def test_pack_round_trip():
    """Coefficient i is byte i; trailing zeros are restored by the length."""
    for v in [(), (0,), (0, 0, 0), (1,), (1, 0, 0), (0, 0, 5, 0), (12,) * 13,
              (0, 3, 0, 0, 0), tuple(range(13))]:
        assert unpack(pack(v), len(v)) == v
    assert pack((1, 2, 0, 0)) == pack((1, 2)) == 0x0201
    vectors = [(1,), (0, 2), (0, 0, 0, 7, 1), (0,) * 12 + (1,)]
    assert [pivot(pack(v)) for v in vectors] == [0, 1, 3, 12]


def _tuple_is_closed(basis, alg, q):
    """Whether adding every x- and y-multiple leaves the span's dimension."""
    multiples = [_monomial_multiple(v, m, alg, q) for v in basis for m in ((1, 0), (0, 1))]
    return len(_span_rref(list(basis) + multiples, q)) == len(basis)


@pytest.mark.parametrize("q", PRIMES)
def test_kernel_matches_tuple_elimination(q):
    """close_under_multiplication, insert_reduced and is_closed on packed
    vectors agree with Gauss-Jordan elimination on coefficient tuples, over
    every prime the kernel supports, on both germs up to colength 6."""
    rng = random.Random(1000 + q)
    for curve in CURVES:
        for c in range(1, 7):
            alg = truncated_algebra(curve, c)
            for trial in range(20):
                def vector():
                    return tuple(rng.randrange(q) if rng.random() < 0.4 else 0
                                 for _ in range(alg.dim))
                # a unit closes at once, so most generator sets have none
                gens = [(rng.randrange(q) if trial == 0 else 0,) + vector()[1:]
                        for _ in range(rng.randint(1, 3))]
                expected = _span_rref([_monomial_multiple(f, m, alg, q)
                                       for f in gens for m in alg.monomials], q)
                rows = close_under_multiplication([pack(f) for f in gens], alg, q)
                assert _basis(rows, alg.dim) == expected, (curve, c, gens)
                assert is_closed(rows, alg, q)

                vectors = [vector() for _ in range(rng.randint(1, alg.dim))]
                rows, span = [], ()
                for k, v in enumerate(vectors):
                    new = insert_reduced(rows, pack(v), q, alg.dim)
                    grown = _span_rref(vectors[:k + 1], q)
                    assert _basis(rows, alg.dim) == grown, (curve, c, vectors[:k + 1])
                    assert (new is None) == (len(grown) == len(span)), (curve, c, v)
                    assert new is None or new in rows, (curve, c, v)
                    span = grown
                assert is_closed(rows, alg, q) == _tuple_is_closed(span, alg, q), (curve, c)


def test_order_independence(monkeypatch):
    alg = truncated_algebra("node", 3)
    baseline = _pure.enumerate_ideals(alg, 2, 3)
    sweep = _pure.principal_closures
    for seed in range(5):
        def shuffled(alg, q, rng=random.Random(seed)):
            items = list(sweep(alg, q).items())
            rng.shuffle(items)
            return dict(items)
        monkeypatch.setattr(_pure, "principal_closures", shuffled)
        assert _pure.enumerate_ideals(alg, 2, 3) == baseline


# -- sweep limit and results -------------------------------------------------------

def test_budget_exceeded(monkeypatch):
    # the largest cells under the limit: q=2 colength 6 sweeps 2^13 elements
    # and q=3 colength 4 sweeps 1 + (3^9 - 1)/2
    assert 1 + (2 ** truncated_algebra("node", 6).dim - 1) == 8192 < MAX_SWEEP
    assert 1 + (3 ** truncated_algebra("node", 4).dim - 1) // 2 == 9842 == MAX_SWEEP
    # the four tabulated cells over the limit: q=3 colength 5 sweeps
    # 1 + (3^11 - 1)/2 elements and colength 6 sweeps 1 + (3^13 - 1)/2; each
    # raises before any sweep
    monkeypatch.setattr(_pure, "principal_closures", None)
    for curve in CURVES:
        for colength, sweep in ((5, 88574), (6, 797162)):
            assert 1 + (3 ** truncated_algebra(curve, colength).dim - 1) // 2 == sweep > MAX_SWEEP
            with pytest.raises(Unsupported, match=rf"^{curve} colength {colength} at q=3: "
                                                  rf"sweeps {sweep} elements, one per scalar "
                                                  rf"class \(at most 9842\)$"):
                count_punctual_ideals(curve, colength, 3)


def test_unsupported_punctual_parameters():
    with pytest.raises(Unsupported):
        count_punctual_ideals("cusp", 2, 2)
    with pytest.raises(Unsupported):
        count_punctual_ideals("node", 2, 5)
    with pytest.raises(Unsupported):
        count_punctual_ideals("node", 7, 2)


def test_total_vs_table_rows():
    ok = count_punctual_total_vs_table("node", 4, 2)
    assert ok.passed and ok.status == "pass"
    assert ok.count == ok.expected == 7
    bad = count_punctual_total_vs_table("ribbon", 5, 2)
    assert not bad.passed and bad.status == "fail"
    assert (bad.count, bad.expected) == (7, 9)
    skipped = count_punctual_total_vs_table("node", 5, 3)
    assert skipped.skipped and skipped.status == "skip" and skipped.count is None
    assert skipped.reason == ("node colength 5 at q=3: sweeps 88574 elements, "
                              "one per scalar class (at most 9842)")


def test_results_csv():
    rows = [count_punctual_total_vs_table("node", 1, 2),
            count_punctual_total_vs_table("node", 5, 3)]
    text = results_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "counter,q,params,count,expected,pass,millis"
    assert lines[1].startswith("punctual,2,node:1,1,1,pass,")
    assert lines[2].startswith("punctual,3,node:5,,13,skip,")
    assert result_fields(rows[1]) == {"counter": "punctual", "q": 3, "params": "node:5",
                                      "count": None, "expected": 13, "status": "skip"}


def test_a_result_is_skipped_exactly_when_it_has_no_count():
    counted = FqCountResult("gr", 2, "(1,2)", 3, 3, 0.0, reason="")
    declined = FqCountResult("gr", 5, "(1,2)", None, 6, 0.0, reason="gr(1,2) at q=5: ...")
    assert (counted.skipped, counted.status) == (False, "pass")
    assert (declined.skipped, declined.passed, declined.status) == (True, False, "skip")


def test_bridges():
    assert "gr(2,6)" in BRIDGES and "hilb2" in BRIDGES and "sym2p2" in BRIDGES
    assert "punctual:ribbon:4" in BRIDGES and "punctual:ribbon:5" not in BRIDGES
    assert len(BRIDGES) == 16
    result = run_bridge(BRIDGES["gr(2,6)"], 2)
    assert result.count == 651 and result.passed
    with pytest.raises(KeyError):
        run_bridge(BRIDGES["gr(9,9)"], 2)


def test_bridges_at_an_unsupported_q_skip():
    """Every counter declines q = 5, so every bridge is a skipped row with
    its reason; none raises."""
    results = bridge_check_all([5])
    assert len(results) == 16
    assert all(r.status == "skip" and r.count is None and r.reason for r in results)
    assert run_bridge(BRIDGES["hilb1"], 5).reason == (
        "field order 5 not supported (need one of [2, 3, 4, 9])")
    assert run_bridge(BRIDGES["gr(2,4)"], 5).reason == (
        "gr(2,4) at q=5: counting supports q in (2, 3, 4)")


def test_bridge_check_all_passes(bridges_q23):
    results = bridges_q23
    assert all(r.passed for r in results)
    kinds = {r.counter for r in results}
    assert kinds == {"gr", "hilb1", "hilb2", "sym2p2", "punctual"}
