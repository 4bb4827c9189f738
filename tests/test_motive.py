"""Ring arithmetic in Z[L]: examples and edge cases."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from motivecount import L, ONE, ZERO, DivisionNotExact, MotiveClass, NotEffective
from motivecount.atoms import projective
from motivecount.motive import power_exp


def test_construction_trims_trailing_zeros():
    assert MotiveClass((1, 2, 0, 0)).coeffs == (1, 2)
    assert MotiveClass((0, 0)).coeffs == ()
    assert MotiveClass().degree == -1


def test_construction_rejects_non_integers():
    with pytest.raises(TypeError):
        MotiveClass((1.5,))


def test_add_sub():
    assert ONE + L == MotiveClass((1, 1))
    assert (ONE + L) + L == MotiveClass((1, 2))
    assert (ONE + L) - (ONE + L) == ZERO
    assert ONE - L == MotiveClass((1, -1))
    assert 1 + L == MotiveClass((1, 1))
    assert 2 - L == MotiveClass((2, -1))


def test_mul():
    assert MotiveClass((1, 1, 1)) * MotiveClass((1, 1)) == MotiveClass((1, 2, 2, 1))
    assert (projective(2) * projective(13)).degree == 15
    assert (projective(2) * projective(13))[0] == 1
    assert ZERO * L == ZERO
    assert 3 * L == MotiveClass((0, 3))


def test_mul_degree_law():
    a = MotiveClass((2, 0, 5))
    b = MotiveClass((-1, 3))
    assert (a * b).degree == a.degree + b.degree


def test_pow():
    assert (ONE + L) ** 0 == ONE
    assert (ONE + L) ** 3 == MotiveClass((1, 3, 3, 1))
    with pytest.raises(ValueError):
        (ONE + L) ** -1


def test_pow_matches_repeated_multiplication():
    x = MotiveClass((2, -1, 0, 3))
    product = ONE
    for n in range(34):
        assert x ** n == product, n
        product = product * x


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 33, 200, 255, 256])
def test_pow_multiplies_at_most_log_plus_popcount_times(monkeypatch, n):
    """Square-and-multiply squares only while bits remain: at most
    floor(log2 n) squarings and popcount(n) products."""
    calls = 0
    mul = MotiveClass.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(MotiveClass, "__mul__", counted)
    x = MotiveClass((1, 1))
    assert x ** n == MotiveClass([comb(n, i) for i in range(n + 1)])
    assert calls <= max(n.bit_length() - 1, 0) + bin(n).count("1")


def test_exact_div():
    prod = (ONE + L) * MotiveClass((1, 2))
    assert prod.exact_div(ONE + L) == MotiveClass((1, 2))
    assert MotiveClass((1, 2, 2, 1)).exact_div(MotiveClass((1, 1, 1))) == ONE + L
    assert ZERO.exact_div(ONE + L) == ZERO


def test_exact_div_failures():
    with pytest.raises(DivisionNotExact):
        (ONE + L).exact_div(MotiveClass((1, 2)))  # leading 1 not divisible by 2
    with pytest.raises(DivisionNotExact):
        MotiveClass((1, 1, 1)).exact_div(MotiveClass((0, 1)))  # remainder 1
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)


def test_evaluate_and_euler():
    assert projective(2).evaluate(1) == 3
    assert projective(2).evaluate(2) == 7
    assert MotiveClass((1, -1)).evaluate(5) == -4
    assert ZERO.euler() == 0
    assert projective(5).euler() == 6


def test_palindromic():
    assert MotiveClass((1, 2, 1)).is_palindromic()
    assert not MotiveClass((1, 2)).is_palindromic()
    assert ZERO.is_palindromic()
    assert ONE.is_palindromic()


def test_sym_power_examples():
    assert projective(2).sym_power(2) == MotiveClass((1, 1, 2, 1, 1))
    for n in range(5):
        assert ONE.sym_power(n) == ONE
    assert projective(1).sym_power(0) == ONE
    assert projective(1).sym_power(1) == projective(1)
    # q-identity at q = 2: both sides computed independently
    lhs = projective(2).sym_power(2).evaluate(2)
    assert lhs == 35
    assert (projective(2).evaluate(2) ** 2 + projective(2).evaluate(4)) // 2 == 35


def test_sym_power_of_sum_of_points():
    # n points: Sym^2 has n(n+1)/2 points
    five = MotiveClass((5,))
    assert five.sym_power(2) == MotiveClass((15,))


def test_sym_power_requires_effective():
    with pytest.raises(NotEffective):
        MotiveClass((1, -1)).sym_power(2)
    with pytest.raises(ValueError):
        ONE.sym_power(-1)


def _cell_histogram(coeffs, n):
    """Sym^n by counting: a class sum(c_i L^i) has c_i cells of weight i,
    and each multiset of n cells adds L^(sum of its weights)."""
    cells = [i for i, c in enumerate(coeffs) for _ in range(c)]
    hist = [0] * (n * len(coeffs) + 1)
    for multiset in itertools.combinations_with_replacement(cells, n):
        hist[sum(multiset)] += 1
    return MotiveClass(hist)


def test_sym_power_counts_multisets_of_cells():
    for degree in range(4):
        for coeffs in itertools.product(range(3), repeat=degree + 1):
            for n in range(7):
                assert MotiveClass(coeffs).sym_power(n) == _cell_histogram(coeffs, n), (coeffs, n)


effective_classes = st.builds(MotiveClass, st.lists(st.integers(0, 4), max_size=5))


@settings(max_examples=200, deadline=None)
@given(effective_classes, effective_classes, st.integers(0, 8))
def test_sym_power_of_a_sum(x, y, n):
    """Sym^n(X + Y) = sum_i Sym^i(X) Sym^(n-i)(Y)."""
    assert (x + y).sym_power(n) == sum(
        (x.sym_power(i) * y.sym_power(n - i) for i in range(n + 1)), ZERO)


def test_power_exp_edge_cases():
    # Exp(-t) = 1 - t: a non-effective term is expanded too
    assert [power_exp((-ONE,), n) for n in range(4)] == [ONE, -ONE, ZERO, ZERO]
    # Exp(t^2) = 1/(1 - t^2); a term beyond t^n does not matter
    assert [power_exp((ZERO, ONE, L), n) for n in range(4)] == [ONE, ZERO, ONE, L]
    assert power_exp((), 0) == power_exp((L,), 0) == ONE
    with pytest.raises(ValueError, match="^series order must be >= 0$"):
        power_exp((ONE,), -1)


def test_str_formatting():
    assert str(ZERO) == "0"
    assert str(ONE + L) == "1 + L"
    assert str(MotiveClass((0, 2))) == "2*L"
    assert str(MotiveClass((1, 0, -2, 1))) == "1 - 2*L^2 + L^3"
    assert str(MotiveClass((-1,))) == "-1"


def test_hash_and_equality():
    assert hash(MotiveClass((1, 1))) == hash(ONE + L)
    assert MotiveClass((1,)) == 1
    assert MotiveClass((1, 1)) != 1
    assert len({ONE, MotiveClass((1,)), L}) == 2
    # a constant class equals its int, so it hashes like it
    assert len({MotiveClass((3,)), 3}) == 1
    assert {3: "x"}.get(MotiveClass((3,))) == "x"
    assert len({ZERO, 0}) == 1


small_classes = st.builds(
    MotiveClass,
    st.lists(st.integers(min_value=-9, max_value=9), max_size=13),
)


@given(small_classes, small_classes)
def test_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(small_classes, small_classes, small_classes)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(small_classes)
def test_euler_is_evaluate_at_one(a):
    assert a.euler() == a.evaluate(1)
