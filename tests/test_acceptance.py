"""Acceptance suite: every shipping criterion, at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.  All comparisons are exact integer matches; the stated
runtime ceilings are asserted with real clocks.

One criterion is knowingly red: the double-line colength-5 cell of the
punctual-count matrix (criterion 9) cannot pass because the tabulated rows
for that cell over-count; the cell is marked xfail(strict) and the defect
is pinned by its own characterization tests in test_oracle.py.
"""

import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from motivecount import MotiveClass, ZERO
from motivecount.atoms import grassmannian, hilb_p2, omega_locus, projective
from motivecount.oracle import (
    CURVES,
    count_grassmannian,
    count_hilb2_p2,
    count_punctual_ideals,
    count_sym2_p2,
    expected_class,
)
from motivecount.strata import DIMENSION, TARGETS, assemble, omega26_assembled

from test_dsl import assert_roundtrip, expr_trees

M41_TABLE = (1, 2, 6, 10, 14, 15, 16, 16, 16, 16, 16, 16, 15, 14, 10, 6, 2, 1)
M51_TABLE = (1, 2, 6, 13, 26, 45, 68, 87, 100, 107, 111, 112, 113,
             113, 113, 112, 111, 107, 100, 87, 68, 45, 26, 13, 6, 2, 1)
OMEGA26_TABLE = (1, 2, 6, 15, 28, 38, 39, 30, 18, 8, 3, 1)


def _line(label: str, ok: bool = True) -> None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def test_criterion_1_m41_betti_table():
    start = time.perf_counter()
    report = assemble("m41")
    elapsed = time.perf_counter() - start
    ok = (report.assembled.coeffs == M41_TABLE
          and report.assembled.degree == 17
          and report.euler_assembled == 192
          and elapsed < 1.0)
    _line(f"criterion 1: [M(4,1)] table, degree 17, euler 192 ({elapsed:.3f}s)", ok)


def test_criterion_2_m51_betti_table():
    start = time.perf_counter()
    report = assemble("m51")
    elapsed = time.perf_counter() - start
    ok = (report.assembled.coeffs == M51_TABLE
          and report.assembled.degree == 26
          and report.euler_assembled == 1695
          and elapsed < 1.0)
    _line(f"criterion 2: [M(5,1)] table, degree 26, euler 1695 ({elapsed:.3f}s)", ok)


def test_criterion_3_m52_equals_m51():
    r51 = assemble("m51")
    r52 = assemble("m52")
    ok = r52.assembled.coeffs == r51.assembled.coeffs == M51_TABLE
    _line("criterion 3: [M(5,2)] assembled independently equals [M(5,1)]", ok)


def test_criterion_4_small_degrees():
    m11 = assemble("m11").assembled
    m21 = assemble("m21").assembled
    m31 = assemble("m31").assembled
    ok = (m11 == MotiveClass((1, 1, 1))
          and m21 == MotiveClass((1,) * 6)
          and m31.degree == 10 and m31.euler() == 27
          and m31 == projective(2) * projective(8))
    _line("criterion 4: small-degree classes (P^2, P^5, universal cubic)", ok)


def test_criterion_5_structural_properties():
    ok = True
    for target in TARGETS:
        cls = assemble(target).assembled
        ok = ok and cls.is_palindromic() and cls.is_effective()
        ok = ok and cls[0] == 1 and cls.degree == DIMENSION[target]
    _line("criterion 5: palindromic, effective, constant term 1, degree d^2+1", ok)


def test_criterion_6_omega26_stated_value():
    o = omega_locus(2, 6)
    w5 = next(cls for sid, cls in assemble("m51").strata if sid == "m51.W5")
    ok = (o.euler() == 189
          and o.coeffs == OMEGA26_TABLE
          and w5 == (hilb_p2(6) - o) * projective(14))
    _line("criterion 6: pinned conic-locus class (euler 189) feeds [M(5,1)]", ok)


def test_criterion_7_consistency_report_complete_and_deterministic():
    start = time.perf_counter()
    report = omega26_assembled()
    elapsed = time.perf_counter() - start
    part_ids = [sid for sid, _ in report.parts]
    complete = (
        len(part_ids) == 16
        and all(cls.euler() == cls.evaluate(1) for _, cls in report.parts)
        and {d.n for d in report.divisions} == {0, 1, 2}
        and all(d.exact for d in report.divisions)
        and report.difference == report.assembled - report.stated
    )
    report2 = omega26_assembled()
    deterministic = report.assembled == report2.assembled and report == report2
    ok = complete and deterministic and elapsed < 1.0
    _line(f"criterion 7: consistency report complete and deterministic "
          f"(assembled euler {report.assembled.euler()}, stated 189, "
          f"match={report.matches}) ({elapsed:.3f}s)", ok)


def test_criterion_8_oracle_bridges():
    start = time.perf_counter()
    gr26 = count_grassmannian(2, 6, 2)
    gr24 = count_grassmannian(2, 4, 3)
    h2_2 = count_hilb2_p2(2)
    h2_3 = count_hilb2_p2(3)
    sym2 = count_sym2_p2(2)
    elapsed = time.perf_counter() - start
    ok = (gr26 == 651 == grassmannian(2, 6).evaluate(2)
          and gr24 == 130 == grassmannian(2, 4).evaluate(3)
          and h2_2 == 49 == hilb_p2(2).evaluate(2)
          and h2_3 == 169 == hilb_p2(2).evaluate(3)
          and sym2 == (49 + 21) // 2 == 35
          and sym2 == projective(2).sym_power(2).evaluate(2)
          and elapsed < 10.0)
    _line(f"criterion 8: oracle bridges (651, 130, 49, 169, 35) ({elapsed:.3f}s)", ok)


_PUNCTUAL_BUDGET_SECONDS = 600.0
_punctual_elapsed: dict[str, float] = {"total": 0.0}

_CELLS = []
for _curve in CURVES:
    for _q in (2, 3):
        for _c in range(1, 7):
            if (_curve, _c) == ("ribbon", 5):
                _CELLS.append(pytest.param(
                    _curve, _c, _q,
                    marks=pytest.mark.xfail(
                        strict=True,
                        reason="tabulated rows over-count this cell: the listed "
                               "colength-5 family with k != 0 has colength 4 "
                               "(the search of closed subspaces gives q^2 + q + 1, "
                               "7 at q=2 and 13 at q=3; the row sum gives 2q^2 + 1, "
                               "9 and 19)"),
                    id=f"{_curve}-c{_c}-q{_q}"))
            else:
                _CELLS.append(pytest.param(_curve, _c, _q, id=f"{_curve}-c{_c}-q{_q}"))


@pytest.mark.parametrize("curve,colength,q", _CELLS)
def test_criterion_9_punctual_counts(curve, colength, q):
    start = time.perf_counter()
    count = count_punctual_ideals(curve, colength, q)
    elapsed = time.perf_counter() - start
    _punctual_elapsed["total"] += elapsed
    expected = expected_class(curve, colength).evaluate(q)
    ok = count == expected and _punctual_elapsed["total"] <= _PUNCTUAL_BUDGET_SECONDS
    _line(f"criterion 9: {curve} colength {colength} q={q}: "
          f"counted {count}, table {expected} ({elapsed:.2f}s)", ok)


# -- criterion 10: randomized property suites, >= 1000 cases each ---------------

classes = st.builds(
    MotiveClass, st.lists(st.integers(min_value=-9, max_value=9), max_size=13))
effective_classes = st.builds(
    MotiveClass, st.lists(st.integers(min_value=0, max_value=9), max_size=13))
evaluation_points = st.sampled_from([1, 2, 3, 5])


def test_criterion_10a_ring_axioms():
    @settings(max_examples=1000, deadline=None)
    @given(classes, classes, classes)
    def run(a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ZERO
        assert a * MotiveClass((1,)) == a

    run()
    _line("criterion 10a: ring axioms (1000 cases)")


def test_criterion_10b_evaluate_homomorphism():
    @settings(max_examples=1000, deadline=None)
    @given(classes, classes, evaluation_points)
    def run(a, b, q):
        assert (a * b).evaluate(q) == a.evaluate(q) * b.evaluate(q)
        assert (a + b).evaluate(q) == a.evaluate(q) + b.evaluate(q)
        assert a.euler() == a.evaluate(1)

    run()
    _line("criterion 10b: evaluation is a ring homomorphism (1000 cases)")


def test_criterion_10c_exact_div_roundtrip():
    @settings(max_examples=1000, deadline=None)
    @given(classes, classes.filter(lambda b: bool(b)))
    def run(a, b):
        assert (a * b).exact_div(b) == a

    run()
    _line("criterion 10c: exact division inverts multiplication (1000 cases)")


def test_criterion_10d_sym_power_identity():
    @settings(max_examples=1000, deadline=None)
    @given(effective_classes, evaluation_points)
    def run(a, q):
        s = a.sym_power(2)
        assert 2 * s.evaluate(q) == a.evaluate(q) ** 2 + a.evaluate(q * q)

    run()
    _line("criterion 10d: symmetric-square point-count identity (1000 cases)")


def test_criterion_10e_parser_roundtrip():
    @settings(max_examples=1000, deadline=None)
    @given(expr_trees())
    def run(tree):
        assert_roundtrip(tree)

    run()
    _line("criterion 10e: parse/format round-trip (1000 cases)")


def test_criterion_10f_gaussian_binomial_laws():
    @settings(max_examples=1000, deadline=None)
    @given(st.integers(0, 10).flatmap(
        lambda n: st.tuples(st.integers(0, n), st.just(n))))
    def run(kn):
        k, n = kn
        assert grassmannian(k, n) == grassmannian(n - k, n)
        assert grassmannian(k, n).euler() == comb(n, k)

    run()
    _line("criterion 10f: Gaussian-binomial symmetry and euler (1000 cases)")
