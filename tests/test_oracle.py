"""Finite-field counting: plane points, Grassmannians, ideal enumeration, bridges."""

import hashlib
import itertools
import random

import pytest

import motivecount.oracle.counting as counting
from motivecount.atoms import Unsupported, grassmannian, hilb_p2, projective
from motivecount.cli import result_fields, results_to_csv
from motivecount.oracle import (
    BRIDGES,
    CURVES,
    ROWS,
    FqCountResult,
    bridge_check_all,
    count_grassmannian,
    count_hilb2_p2,
    count_punctual_ideals,
    count_punctual_total_vs_table,
    count_sym2_p2,
    enumerate_closed_subspaces,
    expected_class,
    projective_plane_count,
    reduced_echelon_forms,
    run_bridge,
    truncated_algebra,
)
from motivecount.oracle.ideals import (
    PRIMES,
    close_under_multiplication,
    echelon_reduce,
    is_closed,
    multiply,
    pack,
    pivot,
    row_choices,
    unpack,
)


def _basis(rows, dim):
    """The coefficient tuples of packed rows."""
    return tuple(unpack(v, dim) for v in rows)


def _unpacked_forms(k, n, q):
    """reduced_echelon_forms with each packed row read back as a tuple."""
    return [tuple(unpack(row, n) for row in form) for form in reduced_echelon_forms(k, n, q)]


# -- plane point counts ---------------------------------------------------------

def test_projective_plane_counts():
    assert projective_plane_count(2) == 7
    assert projective_plane_count(3) == 13
    assert projective_plane_count(4) == 21
    assert projective_plane_count(9) == 91
    for q in (1, 5, 8):
        with pytest.raises(Unsupported, match=rf"^plane points at q={q}: counting supports q in "
                                              r"\(2, 3, 4, 9\)$"):
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


def test_count_grassmannian_reads_the_forms_at_call_time(monkeypatch):
    """count_grassmannian looks reduced_echelon_forms up in its module at
    each call, so a wrapper put there sees every form it counts."""
    tally = []

    def tallied(k, n, q):
        for form in reduced_echelon_forms(k, n, q):
            tally.append(form)
            yield form

    monkeypatch.setattr(counting, "reduced_echelon_forms", tallied)
    assert count_grassmannian(2, 6, 4) == len(tally) == 93093


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
    """The basis order is a monomial order: the packed image of basis
    vector i under x or y is 0 (the product vanishes) or the unit vector
    1 << 8*j at a larger index j, and the order of any two indices whose
    products are both nonzero is kept."""
    for c in range(1, 11):
        alg = truncated_algebra(curve, c)
        for images in (alg.x, alg.y):
            assert all(e == 0 or e == 1 << 8 * pivot(e) and pivot(e) > i
                       for i, e in enumerate(images)), (c, images)
            targets = [pivot(e) for e in images if e]
            assert all(a < b for a, b in zip(targets, targets[1:])), (c, images)
        # each entry follows the germ's equations: x^a y^b is zero exactly
        # when x^2 = 0 (ribbon) or xy = 0 (node) kills it, or a + b > c
        for i, (a, b) in enumerate(alg.monomials):
            assert not _vanishes(curve, c, a, b), (c, a, b)
            for e, image in ((alg.x[i], (a + 1, b)), (alg.y[i], (a, b + 1))):
                assert (e == 0) == _vanishes(curve, c, *image), (c, image, e)
                assert e == 0 or alg.monomials[pivot(e)] == image, (c, image, e)


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
    m4 = [1 << 8 * i for i, mon in enumerate(alg.monomials) if sum(mon) >= 4]
    for kp in (0, 1):
        gen = [0] * alg.dim
        gen[idx[(1, 1)]] = 1   # xy
        gen[idx[(0, 2)]] = 1   # k y^2 with k = 1
        gen[idx[(0, 3)]] = kp  # k' y^3
        assert alg.dim - len(close_under_multiplication([pack(gen)] + m4, alg, 2)) == 4


#: ideal counts at colengths 1 to 6, pinned; ribbon colength 5 is
#: q^2 + q + 1, below its row sum 2q^2 + 1 (README caveat 2)
PUNCTUAL_COUNTS = {
    ("ribbon", 2): [1, 3, 3, 7, 7, 15],
    ("node", 2): [1, 3, 5, 7, 9, 11],
    ("ribbon", 3): [1, 4, 4, 13, 13, 40],
    ("node", 3): [1, 4, 7, 10, 13, 16],
}


def test_punctual_counts_pinned_at_q2_and_q3():
    """Every tabulated cell at q = 2 and 3 counts its pinned number, which
    is the row sum at L = q everywhere but ribbon colength 5."""
    for (curve, q), pinned in PUNCTUAL_COUNTS.items():
        assert [count_punctual_ideals(curve, c, q) for c in range(1, 7)] == pinned, (curve, q)
        for c, count in enumerate(pinned, 1):
            if (curve, c) == ("ribbon", 5):
                assert count == q * q + q + 1, q
                assert expected_class(curve, c).evaluate(q) == 2 * q * q + 1, q
            else:
                assert count == expected_class(curve, c).evaluate(q), (curve, q, c)


@pytest.mark.parametrize("q,maxc", [(2, 3), (3, 2), (5, 2)])
def test_closed_subspaces_match_every_subspace_tested(q, maxc):
    """The search, which varies only the middle degrees and prunes row by
    row, finds the same subspaces as testing every subspace of the right
    dimension for closure.  The two references agree: a form passes
    is_closed exactly when close_under_multiplication returns it as it is."""
    for curve in CURVES:
        for c in range(1, maxc + 1):
            alg = truncated_algebra(curve, c)
            reference = set()
            for form in reduced_echelon_forms(alg.dim - c, alg.dim, q):
                closed = is_closed(form, alg, q)
                assert closed == (close_under_multiplication(form, alg, q) == form), form
                if closed:
                    reference.add(form)
            assert enumerate_closed_subspaces(alg, q, c) == reference, (curve, c)


def _closed_subspaces_by_trial(alg, q, colength):
    """The search with each row's free cells tried, not solved for: from
    the forced rows, every pivot p chosen largest first and every value of
    its row, kept when the rows with it pass :func:`is_closed`."""
    deg = [a + b for a, b in alg.monomials]
    forced = tuple(i for i, d in enumerate(deg) if d >= colength)
    free_region = [i for i, d in enumerate(deg) if 0 < d < colength]
    found = set()

    def extend(rows, pivots, k, top):
        if not k:
            found.add(tuple(sorted(rows, key=pivot)))
            return
        for t, p in enumerate(free_region[k - 1:top], k - 1):
            for v in row_choices(p, pivots, alg.dim, q):
                if is_closed(rows + (v,), alg, q):
                    extend(rows + (v,), pivots + (p,), k - 1, t)

    k = alg.dim - colength - len(forced)
    if k >= 0:
        extend(tuple(1 << 8 * i for i in forced), forced, k, len(free_region))
    return found


@pytest.mark.parametrize("q,maxc", [(2, 6), (3, 6), (5, 5)])
def test_closed_subspaces_match_the_search_by_trial(q, maxc):
    """Solving for each row's free cells finds the same subspaces as
    trying every value of them with the closure test."""
    for curve in CURVES:
        for c in range(1, maxc + 1):
            alg = truncated_algebra(curve, c)
            assert enumerate_closed_subspaces(alg, q, c) == _closed_subspaces_by_trial(alg, q, c), (
                curve, c)


#: cells also pinned by value: ribbon colength 5, q^2 + q + 1 (README
#: caveat 2), and the largest cell, ribbon colength 6 at q=13
PINNED_AT_LARGE_PRIMES = {("ribbon", 11, 5): 133, ("ribbon", 13, 5): 183,
                          ("ribbon", 13, 6): 2380}


@pytest.mark.parametrize("colength", range(1, 7))
@pytest.mark.parametrize("q", PRIMES)
@pytest.mark.parametrize("curve", CURVES)
def test_closed_subspaces_at_every_prime(curve, q, colength):
    """Every cell up to colength 6 is counted at every prime the kernel
    takes.  Each count equals the row sum at L = q, except ribbon colength
    5, where the search finds q^2 + q + 1 ideals against the tabulated
    2q^2 + 1.  Each basis the search returns, packed rows in pivot order, is
    its own closure, so it is in reduced echelon form and spans an ideal,
    and has dim - colength rows."""
    alg = truncated_algebra(curve, colength)
    found = enumerate_closed_subspaces(alg, q, colength)
    for basis in found:
        assert close_under_multiplication(basis, alg, q) == basis, basis
        assert len(basis) == alg.dim - colength, basis
    count = len(found)
    if (curve, q, colength) in PINNED_AT_LARGE_PRIMES:
        assert count == PINNED_AT_LARGE_PRIMES[curve, q, colength]
    if (curve, colength) == ("ribbon", 5):
        assert count == q * q + q + 1
        assert expected_class(curve, colength).evaluate(q) == 2 * q * q + 1
    else:
        assert count == expected_class(curve, colength).evaluate(q)


def test_closed_subspaces_do_not_depend_on_the_truncation():
    """An ideal of colength c contains every monomial of degree >= c, so
    truncating deeper than c loses nothing and adds nothing: the search
    finds as many ideals in the colength-C algebra as in the colength-c one,
    and its forced rows then reach degrees above c."""
    for curve in CURVES:
        for q in (2, 3):
            for c in range(1, 6):
                count = len(enumerate_closed_subspaces(truncated_algebra(curve, c), q, c))
                for big in range(c + 1, 7):
                    deeper = enumerate_closed_subspaces(truncated_algebra(curve, big), q, c)
                    assert len(deeper) == count, (curve, q, c, big)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_closed_subspaces_match_the_closed_forms_beyond_the_table(q):
    """Up to colength 8, past the table's 6, the search agrees with the
    proved classes.  Ribbon: an ideal is <(y^a, g), (0, y^b)> in
    k[[y]] + x k[[y]] with b <= a, a + b = c and g free modulo y^b, so there
    are q^b for each b <= c/2, the class of P^(c//2).  Node: the punctual
    Hilbert scheme is a chain of c - 1 rational curves (Ran, J. Algebra
    2005), class 1 + (c - 1)L.  Neither proof depends on the order in which
    the search reduces its columns."""
    for c in range(1, 9):
        ribbon = enumerate_closed_subspaces(truncated_algebra("ribbon", c), q, c)
        node = enumerate_closed_subspaces(truncated_algebra("node", c), q, c)
        assert len(ribbon) == sum(q ** i for i in range(c // 2 + 1)), c
        assert len(node) == 1 + (c - 1) * q, c


def _proved_ideals(curve, c, q):
    """The generators of each ideal of the proofs above, packed.  Ribbon:
    <y^a + x g(y), x y^b> with b <= a, a + b = c and deg g < b.  Node:
    (x^a, y^b) with a + b = c + 1, and (x^a + l y^b) with a + b = c and
    l != 0; a, b >= 1 in both."""
    alg = truncated_algebra(curve, c)
    unit = {m: 1 << 8 * i for i, m in enumerate(alg.monomials)}
    if curve == "ribbon":
        for b in range(c // 2 + 1):
            for g in itertools.product(range(q), repeat=b):
                yield [unit[0, c - b] + sum(k * unit[1, j] for j, k in enumerate(g)), unit[1, b]]
    else:
        for a in range(1, c + 1):
            yield [unit[a, 0], unit[0, c + 1 - a]]
        for a in range(1, c):
            for lam in range(1, q):
                yield [unit[a, 0] + lam * unit[0, c - a]]


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("curve", CURVES)
def test_closed_subspaces_are_the_proofs_ideals(curve, q):
    """Up to colength 8 the search finds exactly the ideals the proofs
    above list, each closed from its generators by
    close_under_multiplication, and the proofs list no ideal twice."""
    for c in range(1, 9):
        alg = truncated_algebra(curve, c)
        proved = [close_under_multiplication(gens, alg, q) for gens in _proved_ideals(curve, c, q)]
        assert len(set(proved)) == len(proved), (curve, q, c)
        assert set(proved) == enumerate_closed_subspaces(alg, q, c), (curve, q, c)


def test_closed_subspaces_match_the_closed_forms_at_the_largest_prime():
    """At q = 13, where a packed coefficient has the least headroom, ribbon
    colength 8 counts sum_{i <= 4} 13^i and node colength 10 counts
    1 + 9 * 13, the classes above at L = 13."""
    ribbon = enumerate_closed_subspaces(truncated_algebra("ribbon", 8), 13, 8)
    node = enumerate_closed_subspaces(truncated_algebra("node", 10), 13, 10)
    assert len(ribbon) == sum(13 ** i for i in range(5)) == 30_941
    assert len(node) == 1 + 9 * 13 == 118


def test_the_search_reduces_each_free_column_once_per_node(monkeypatch):
    """One sweep per search node reduces each free column once, so the
    `punctual` workload's 20 cells (q=2 up to colength 6, q=3 up to 4) take
    636 eliminations; reducing the columns anew for every candidate pivot
    took 1,262.  The search looks echelon_reduce up by module name at call
    time, so a wrapper on that attribute sees every call."""
    calls = []

    def counted(*args):
        calls.append(None)
        return echelon_reduce(*args)

    monkeypatch.setattr("motivecount.oracle.ideals.echelon_reduce", counted)
    for q, maxc in ((2, 6), (3, 4)):
        for curve in CURVES:
            for c in range(1, maxc + 1):
                count_punctual_ideals(curve, c, q)
    assert len(calls) == 636


@pytest.mark.parametrize("q", [4, 17])
def test_closed_subspaces_need_a_prime_the_kernel_supports(q):
    """Z/4 is not a field, and 17 overflows a packed coefficient."""
    with pytest.raises(Unsupported, match=rf"^closed subspaces at q={q}: counting supports q in "
                                          r"\(2, 3, 5, 7, 11, 13\)$"):
        enumerate_closed_subspaces(truncated_algebra("node", 2), q, 2)


def _monomial_multiple(f, monomial, alg, q):
    """f times the monomial x^a y^b: each term moves to the product
    monomial, or vanishes if that monomial is not in the basis."""
    index = {m: i for i, m in enumerate(alg.monomials)}
    out = [0] * alg.dim
    for (a, b), c in zip(alg.monomials, f):
        k = index.get((a + monomial[0], b + monomial[1]))
        if k is not None:
            out[k] = (out[k] + c) % q
    return out


@pytest.mark.parametrize("q", PRIMES)
def test_multiply_matches_the_monomial_multiple(q):
    """multiply, the sum of the coefficients times their packed images,
    agrees with moving each term to its product monomial, on the zero
    vector, the all-(q - 1) vector and random vectors, times x and times y,
    on both germs up to colength 10."""
    rng = random.Random(3000 + q)
    for curve in CURVES:
        for c in range(1, 11):
            alg = truncated_algebra(curve, c)
            vectors = [(0,) * alg.dim, (q - 1,) * alg.dim]
            vectors += [tuple(rng.randrange(q) for _ in range(alg.dim)) for _ in range(10)]
            for v in vectors:
                for images, monomial in ((alg.x, (1, 0)), (alg.y, (0, 1))):
                    got = unpack(multiply(images, pack(v), alg.dim), alg.dim)
                    assert got == tuple(_monomial_multiple(v, monomial, alg, q)), (curve, c, v)


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
    assert alg.dim - len(close_under_multiplication([pack(unit)], alg, 3)) == 0


# -- the packed kernel against tuple elimination ----------------------------------

def test_pack_round_trip():
    """Coefficient i is byte i; trailing zeros are restored by the length."""
    for v in [(), (0,), (0, 0, 0), (1,), (1, 0, 0), (0, 0, 5, 0), (12,) * 13,
              (0, 3, 0, 0, 0), tuple(range(13))]:
        assert unpack(pack(v), len(v)) == v
    assert pack((1, 2, 0, 0)) == pack((1, 2)) == 0x0201
    vectors = [(1,), (0, 2), (0, 0, 0, 7, 1), (0,) * 12 + (1,)]
    assert [pivot(pack(v)) for v in vectors] == [0, 1, 3, 12]


def _eliminate_row_by_row(rows, v, q):
    """Reduce a coefficient tuple by each (pivot, row) of an echelon basis
    in pivot order, then scale its first nonzero coefficient to 1; None if
    nothing is left."""
    for p, row in sorted(rows):
        c = v[p]
        v = tuple((a - c * b) % q for a, b in zip(v, row))
    if not any(v):
        return None
    p = next(i for i, c in enumerate(v) if c)
    inv = pow(v[p], q - 2, q)
    return p, tuple(a * inv % q for a in v)


@pytest.mark.parametrize("q", PRIMES)
def test_echelon_reduce_matches_row_by_row_elimination(q):
    """echelon_reduce, which visits only the pivots a vector meets, agrees
    with reducing by every row in turn, on random echelon bases whose rows
    are not reduced against each other.  Widths reach 3 * dim of colength 6,
    the search's three blocks.  A vector zero at every pivot is only
    normalized, and a combination of the rows reduces to None."""
    rng = random.Random(2000 + q)
    for n in (1, 2, 5, 13, 39):
        for _ in range(30):
            pivots = sorted(rng.sample(range(n), rng.randint(0, n)))
            rows = [(p, tuple(0 if i < p else 1 if i == p else rng.randrange(q)
                              for i in range(n))) for p in pivots]
            basis = {p: pack(row) for p, row in rows}
            mask = sum(255 << 8 * p for p in pivots)

            def reduce(v):
                got = echelon_reduce(basis, mask, pack(v), q, n)
                return got and (got[0], unpack(got[1], n))

            v = tuple(rng.randrange(q) for _ in range(n))
            assert reduce(v) == _eliminate_row_by_row(rows, v, q), (n, rows, v)
            off = tuple(0 if i in pivots else rng.randrange(q) for i in range(n))
            assert reduce(off) == _eliminate_row_by_row([], off, q), (n, rows, off)
            combo = [0] * n
            for _, row in rows:
                c = rng.randrange(q)
                combo = [(a + c * b) % q for a, b in zip(combo, row)]
            assert reduce(tuple(combo)) is None, (n, rows, combo)


def _tuple_is_closed(basis, alg, q):
    """Whether adding every x- and y-multiple leaves the span's dimension."""
    multiples = [_monomial_multiple(v, m, alg, q) for v in basis for m in ((1, 0), (0, 1))]
    return len(_span_rref(list(basis) + multiples, q)) == len(basis)


@pytest.mark.parametrize("q", PRIMES)
def test_kernel_matches_tuple_elimination(q):
    """close_under_multiplication and is_closed on packed vectors agree with
    Gauss-Jordan elimination on coefficient tuples, over every prime the
    kernel supports, on both germs up to colength 6."""
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

                span = _span_rref([vector() for _ in range(rng.randint(1, alg.dim))], q)
                rows = tuple(pack(v) for v in span)
                assert is_closed(rows, alg, q) == _tuple_is_closed(span, alg, q), (curve, c)


# -- results ----------------------------------------------------------------------

def test_unsupported_punctual_parameters():
    with pytest.raises(Unsupported):
        count_punctual_ideals("cusp", 2, 2)
    with pytest.raises(Unsupported):
        count_punctual_ideals("node", 2, 4)
    with pytest.raises(Unsupported):
        count_punctual_ideals("node", 7, 2)


def test_total_vs_table_rows():
    ok = count_punctual_total_vs_table("node", 4, 2)
    assert ok.passed and ok.status == "pass"
    assert ok.count == ok.expected == 7
    bad = count_punctual_total_vs_table("ribbon", 5, 2)
    assert not bad.passed and bad.status == "fail"
    assert (bad.count, bad.expected) == (7, 9)
    skipped = count_punctual_total_vs_table("node", 6, 4)
    assert skipped.skipped and skipped.status == "skip" and skipped.count is None
    assert skipped.reason == ("node colength 6 at q=4: counting supports q in "
                              "(2, 3, 5, 7, 11, 13)")


def test_results_csv():
    rows = [count_punctual_total_vs_table("node", 1, 2),
            count_punctual_total_vs_table("node", 5, 4)]
    text = results_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "counter,q,params,count,expected,pass,millis"
    assert lines[1].startswith("punctual,2,node:1,1,1,pass,")
    assert lines[2].startswith("punctual,4,node:5,,17,skip,")
    assert result_fields(rows[1]) == {"counter": "punctual", "q": 4, "params": "node:5",
                                      "count": None, "expected": 17, "status": "skip"}


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
    """Every counter declines q = 6, so every bridge is a skipped row with
    its reason; none raises."""
    results = bridge_check_all([6])
    assert len(results) == 16
    assert all(r.status == "skip" and r.count is None and r.reason for r in results)
    assert run_bridge(BRIDGES["hilb1"], 6).reason == (
        "plane points at q=6: counting supports q in (2, 3, 4, 9)")
    assert run_bridge(BRIDGES["gr(2,4)"], 6).reason == (
        "gr(2,4) at q=6: counting supports q in (2, 3, 4)")


def test_bridge_check_all_passes():
    results = bridge_check_all([2, 3])
    assert all(r.passed for r in results)
    kinds = {r.counter for r in results}
    assert kinds == {"gr", "hilb1", "hilb2", "sym2p2", "punctual"}
