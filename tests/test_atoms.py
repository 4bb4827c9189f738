"""Atom constructors, checked against independent combinatorial oracles."""

from math import comb

import pytest

from motivecount import MotiveClass, Unsupported, atoms
from motivecount.atoms import (
    affine,
    grassmannian,
    hilb_p2,
    linear_system,
    omega_locus,
    projective,
    universal_curve,
)
from motivecount.dsl import ATOMS


def partitions_in_box(rows: int, cols: int) -> list[int]:
    """Coefficient list: number of partitions of j with at most ``rows``
    parts, each at most ``cols``.  Brute-force reference for the
    Gaussian binomial."""
    counts = [0] * (rows * cols + 1)

    def rec(remaining_rows, cap, total):
        if remaining_rows == 0:
            counts[total] += 1
            return
        for part in range(cap + 1):
            rec(remaining_rows - 1, part, total + part)

    rec(rows, cols, 0)
    return counts


def test_affine_and_projective():
    assert affine(0) == MotiveClass((1,))
    assert affine(3) == MotiveClass((0, 0, 0, 1))
    assert projective(0) == MotiveClass((1,))
    assert projective(2) == MotiveClass((1, 1, 1))
    assert projective(5).euler() == 6
    with pytest.raises(ValueError):
        affine(-1)
    with pytest.raises(ValueError):
        projective(-1)


def test_grassmannian_examples():
    assert grassmannian(2, 4) == MotiveClass((1, 1, 2, 1, 1))
    assert grassmannian(2, 6).coeffs == (1, 1, 2, 2, 3, 2, 2, 1, 1)
    # brute-force subspace count over F_2: (2^6-1)(2^6-2)/((2^2-1)(2^2-2))
    assert grassmannian(2, 6).evaluate(2) == (2**6 - 1) * (2**6 - 2) // ((2**2 - 1) * (2**2 - 2))
    for n in range(6):
        assert grassmannian(0, n) == MotiveClass((1,))
        assert grassmannian(n, n) == MotiveClass((1,))
    with pytest.raises(ValueError):
        grassmannian(3, 2)


@pytest.mark.parametrize("k,n", [(k, n) for n in range(8) for k in range(n + 1)])
def test_grassmannian_counts_box_partitions(k, n):
    g = grassmannian(k, n)
    assert list(g.coeffs) == partitions_in_box(k, n - k)
    assert g.degree == k * (n - k)
    assert g.euler() == comb(n, k)
    assert g.is_palindromic()
    assert g.is_effective()


def partition_cubed_coefficient(n: int) -> int:
    """Coefficient of t^n in the product over m >= 1 of (1 - t^m)^(-3):
    three-colored partitions, computed by the standard sieve."""
    series = [1] + [0] * n
    for m in range(1, n + 1):
        for _ in range(3):
            for k in range(m, n + 1):
                series[k] += series[k - m]
    return series[n]


def _hilb_geometric_series(n: int) -> MotiveClass:
    """Hilb^n(P^2) from the cell-count product
    prod_(m >= 1) 1/((1 - L^(m-1) t^m)(1 - L^m t^m)(1 - L^(m+1) t^m)),
    one geometric series at a time, truncated at t^n."""
    series = [MotiveClass((1,))] + [MotiveClass() for _ in range(n)]
    for m in range(1, n + 1):
        for w in (m - 1, m, m + 1):
            # ascending k sees the already-updated k - m term, which is
            # exactly the geometric-series recursion
            for k in range(m, n + 1):
                series[k] = series[k] + series[k - m] * MotiveClass((0,) * w + (1,))
    return series[n]


@pytest.mark.parametrize("n", range(9))
def test_hilb_matches_the_geometric_series_product(n):
    assert hilb_p2(n) == _hilb_geometric_series(n)


def test_hilb_examples():
    assert hilb_p2(0) == MotiveClass((1,))
    assert hilb_p2(1) == MotiveClass((1, 1, 1))
    assert hilb_p2(2).coeffs == (1, 2, 3, 2, 1)
    assert hilb_p2(3).coeffs == (1, 2, 5, 6, 5, 2, 1)
    assert hilb_p2(3).euler() == 22
    assert hilb_p2(2).evaluate(2) == 49


@pytest.mark.parametrize("n", [*range(9), 20, 50, 100])
def test_hilb_structure(n):
    """Up to n = 100, the most the degree cap MAX_DEGREE = 200 admits."""
    h = hilb_p2(n)
    assert h.degree == 2 * n
    assert h[0] == 1
    assert h.is_palindromic()
    assert h.is_effective()
    assert h.euler() == partition_cubed_coefficient(n)


def test_hilb_euler_table():
    assert [hilb_p2(n).euler() for n in range(1, 7)] == [3, 9, 22, 51, 108, 221]


def test_linear_system():
    assert linear_system(1) == projective(2)
    assert linear_system(2) == projective(5)
    assert linear_system(3) == projective(9)
    with pytest.raises(ValueError):
        linear_system(0)


def test_universal_curve():
    assert universal_curve(1) == MotiveClass((1, 1, 1)) * MotiveClass((1, 1))
    assert universal_curve(2).euler() == 15
    assert universal_curve(3).euler() == 27
    assert universal_curve(3).degree == 10


def test_omega_locus():
    assert omega_locus(1, 3) == projective(2) * projective(3)
    assert omega_locus(1, 3).coeffs == (1, 2, 3, 3, 2, 1)
    o = omega_locus(2, 6)
    assert o.euler() == 189
    assert o.degree == 11
    assert o[11] == 1
    assert o.coeffs == (1, 2, 6, 15, 28, 38, 39, 30, 18, 8, 3, 1)
    with pytest.raises(Unsupported):
        omega_locus(3, 10)


def test_atom_table_degree_rules_are_the_class_degrees():
    """Every kind of the atom table names a constructor in atoms, and its
    degree rule gives the class's degree (an upper bound for the Omega
    loci).  Every class is effective with its coefficients summing to at
    most 4^degree, the parser's norm bound."""
    assert all(callable(getattr(atoms, kind, None)) for kind in ATOMS)
    cases = ([("affine", (n,)) for n in range(6)] + [("projective", (n,)) for n in range(6)]
             + [("grassmannian", (k, n)) for n in range(7) for k in range(n + 1)]
             + [("hilb_p2", (n,)) for n in (*range(9), 100)]
             + [(kind, (d,)) for kind in ("linear_system", "universal_curve") for d in range(1, 7)])
    for kind, args in cases:
        assert ATOMS[kind][1](*args) == getattr(atoms, kind)(*args).degree, (kind, args)
    for args in ((1, 3), (2, 6)):
        assert ATOMS["omega_locus"][1](*args) >= omega_locus(*args).degree
        cases.append(("omega_locus", args))
    assert {kind for kind, _ in cases} == set(ATOMS)
    for kind, args in cases:
        cls = getattr(atoms, kind)(*args)
        assert cls.is_effective() and sum(cls.coeffs) <= 4 ** ATOMS[kind][1](*args), (kind, args)
