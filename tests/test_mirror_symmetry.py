"""The Euler numbers of the assembled moduli classes against the genus-0
Gopakumar-Vafa invariants of local P^2, computed from its mirror.

By Katz (J. Diff. Geom. 2008), n_d = (-1)^(dim M(d,1)) e(M(d,1)), with
dim M(d,1) = d^2 + 1; since the invariants do not depend on the Euler
characteristic chi, M(5,2) shares n_5.  The n_d come from the local mirror
of P^2 (Chiang-Klemm-Yau-Zaslow 1999): with the mirror map
Q = z exp(S(z)), S(z) = sum_n 3 (3n-1)!/(n!)^3 (-z)^n, the Yukawa coupling
-1/(3 (1 + 27z)) (Q/z dz/dQ)^3 is -1/3 + sum_d d^3 N_d Q^d, and
N_d = sum_{k | d} n_{d/k} / k^3 removes the multiple covers.  Every series
is a list of exact Fraction coefficients truncated after ORDER.
"""

from fractions import Fraction
from math import factorial

from motivecount.strata import assemble

ORDER = 8


def mul(a, b):
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(ORDER + 1)]


def inverse(a):
    """1/a for a series with a[0] != 0."""
    out = [1 / Fraction(a[0])]
    for n in range(1, ORDER + 1):
        out.append(-sum(a[i] * out[n - i] for i in range(1, n + 1)) / a[0])
    return out


def compose(f, g):
    """f(g) for a series g without constant term, by Horner's rule."""
    out = [Fraction(0)] * (ORDER + 1)
    for c in reversed(f):
        out = mul(out, g)
        out[0] += c
    return out


def gopakumar_vafa():
    """n_1 ... n_ORDER of local P^2."""
    s = [Fraction(0)] + [Fraction(3 * factorial(3 * n - 1) * (-1) ** n, factorial(n) ** 3)
                         for n in range(1, ORDER + 1)]
    # exp(S) by n e_n = sum_k k s_k e_(n-k); Q = z exp(S)
    e = [Fraction(1)]
    for n in range(1, ORDER + 1):
        e.append(sum(k * s[k] * e[n - k] for k in range(1, n + 1)) / n)
    # the inverse mirror map z(Q) = Q / exp(S(z(Q))), one order per pass
    z = [Fraction(0), Fraction(1)] + [Fraction(0)] * (ORDER - 1)
    for _ in range(ORDER):
        z = [Fraction(0)] + inverse(compose(e, z))[:ORDER]
    # Q/z dz/dQ = d log z / d log Q = 1 / (1 + z S'(z))
    dlog = inverse([Fraction(1)] + [n * s[n] for n in range(1, ORDER + 1)])
    yukawa = mul(inverse([1, 27] + [0] * (ORDER - 1)), mul(dlog, mul(dlog, dlog)))
    yukawa = compose([c / -3 for c in yukawa], z)
    assert yukawa[0] == Fraction(-1, 3)
    n = {}
    for d in range(1, ORDER + 1):
        n[d] = yukawa[d] / d ** 3 - sum(n[d // k] / Fraction(k) ** 3
                                        for k in range(2, d + 1) if d % k == 0)
    return n


def test_gopakumar_vafa_invariants_match_euler_numbers():
    n = gopakumar_vafa()
    assert all(v.denominator == 1 for v in n.values()), n
    assert [n[d] for d in range(1, 6)] == [3, -6, 27, -192, 1695]
    for d in range(1, 6):
        assert (-1) ** (d * d + 1) * n[d] == assemble(f"m{d}1").euler_assembled, d
    assert n[5] == assemble("m52").euler_assembled
