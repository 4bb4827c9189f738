"""Classes of the standard varieties used as atoms by the expression language.

Every constructor returns a :class:`~motivecount.motive.MotiveClass`.  The
Grassmannian and Hilbert-scheme classes are derived (Gaussian binomial,
power structure) rather than hard-coded; the two supported curve-locus
classes inside the Hilbert scheme are pinned constants, certified elsewhere.
Each constructor's name is an atom kind of :data:`motivecount.dsl.ATOMS`,
which holds its syntax and degree rule; the expression language looks the
constructor up by that name when it evaluates an atom.
"""

from __future__ import annotations

from functools import lru_cache

from .motive import MotiveClass, power_exp

HILB_MAX = 8


class OutOfRange(ValueError):
    """Atom parameter outside the implemented range."""


class Unsupported(ValueError):
    """Parameter combination the calculator does not implement."""


def affine(n: int) -> MotiveClass:
    """Class of affine n-space: L^n."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    return MotiveClass((0,) * n + (1,))


def projective(n: int) -> MotiveClass:
    """Class of projective n-space: 1 + L + ... + L^n."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    return MotiveClass((1,) * (n + 1))


@lru_cache(maxsize=None)
def grassmannian(k: int, n: int) -> MotiveClass:
    """Class of the Grassmannian of k-planes in n-space.

    This is the Gaussian binomial coefficient, computed by the product
    formula with one exact division: prod(L^(n-i) - 1) / prod(L^(k-i) - 1)
    over i < k.  Equivalently the coefficient of L^j counts partitions of j
    inside a k x (n-k) box, which is what the tests check it against.
    """
    if not 0 <= k <= n:
        raise ValueError(f"require 0 <= k <= n, got ({k}, {n})")
    # Gr(k, n) = Gr(n-k, n); the smaller k keeps the numerator's degree
    # within twice the result's
    k = min(k, n - k)
    num = MotiveClass((1,))
    den = MotiveClass((1,))
    for i in range(k):
        num = num * (affine(n - i) - 1)
        den = den * (affine(k - i) - 1)
    return num.exact_div(den)


@lru_cache(maxsize=None)
def hilb_p2(n: int) -> MotiveClass:
    """Class of the Hilbert scheme of n points on the projective plane.

    The t^n coefficient of Goettsche's generating function
    Exp([P^2] t / (1 - L t)) = Exp(sum_m [P^2] L^(m-1) t^m), by
    :func:`~motivecount.motive.power_exp`.  Only n <= 8 is enabled; the
    computations here need n in {1, 2, 3, 6}.
    """
    if n < 0:
        raise ValueError("number of points must be >= 0")
    if n > HILB_MAX:
        raise OutOfRange(f"hilb_p2 implemented for n <= {HILB_MAX}, got {n}")
    return power_exp([projective(2) * affine(m - 1) for m in range(1, n + 1)], n)


def linear_system(d: int) -> MotiveClass:
    """Class of the space of plane curves of degree d: P^(d(d+3)/2)."""
    if d < 1:
        raise OutOfRange(f"linear_system requires degree >= 1, got {d}")
    return projective(d * (d + 3) // 2)


def universal_curve(d: int) -> MotiveClass:
    """Class of the universal degree-d plane curve.

    It fibers over the plane with fiber the curves through a fixed point,
    so the class is P^2 times P^(d(d+3)/2 - 1).
    """
    if d < 1:
        raise OutOfRange(f"universal_curve requires degree >= 1, got {d}")
    return projective(2) * projective(d * (d + 3) // 2 - 1)


#: pinned class of the locus of 6-point subschemes lying on a conic;
#: its Euler number 189 and the bundle re-derivation are certified in
#: the strata pipeline's consistency report
_OMEGA_2_6 = MotiveClass((1, 2, 6, 15, 28, 38, 39, 30, 18, 8, 3, 1))


def omega_locus(k: int, n: int) -> MotiveClass:
    """Class of the locus in the Hilbert scheme of n points of subschemes
    lying on a curve of degree k.  Implemented instances: (1, 3) and (2, 6).

    For (1, 3) the locus is a P^3-bundle over the space of lines, giving
    P^2 x P^3.  For (2, 6) the class is a pinned constant.
    """
    if (k, n) == (1, 3):
        return projective(2) * projective(3)
    if (k, n) == (2, 6):
        return _OMEGA_2_6
    raise Unsupported(f"omega_locus implemented only for (1,3) and (2,6), got ({k}, {n})")

