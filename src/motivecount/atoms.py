"""Classes of the standard varieties used as atoms by the expression language.

Every constructor returns a :class:`~motivecount.motive.MotiveClass`.  The
Grassmannian and Hilbert-scheme classes are derived (Gaussian binomial,
power structure) rather than hard-coded; the two supported curve-locus
classes inside the Hilbert scheme are pinned constants, certified elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .motive import MotiveClass, lefschetz_power, power_exp

HILB_MAX = 8


class OutOfRange(ValueError):
    """Atom parameter outside the implemented range."""


class Unsupported(ValueError):
    """Parameter combination the calculator does not implement."""


@dataclass(frozen=True)
class AtomKind:
    """A named standard variety with integer parameters."""

    kind: str
    args: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _CONSTRUCTORS:
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if any(a < 0 for a in self.args):
            raise ValueError(f"atom parameters must be >= 0: {self}")
        if self.kind == "grassmannian" and not self.args[0] <= self.args[1]:
            raise ValueError(f"grassmannian requires k <= n: {self}")


def affine(n: int) -> MotiveClass:
    """Class of affine n-space: L^n."""
    return lefschetz_power(n)


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
        num = num * (lefschetz_power(n - i) - 1)
        den = den * (lefschetz_power(k - i) - 1)
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
    return power_exp([projective(2) * lefschetz_power(m - 1) for m in range(1, n + 1)], n)


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


_CONSTRUCTORS = {
    "affine": affine,
    "projective": projective,
    "grassmannian": grassmannian,
    "hilb_p2": hilb_p2,
    "linear_system": linear_system,
    "universal_curve": universal_curve,
    "omega_locus": omega_locus,
}


def atom_class(atom: AtomKind) -> MotiveClass:
    """Evaluate an :class:`AtomKind` to its motive class."""
    return _CONSTRUCTORS[atom.kind](*atom.args)


#: degree of each atom's class from its parameters; for the Omega loci,
#: which lie in Hilb n, the bound 2n
_DEGREES = {
    "affine": lambda n: n,
    "projective": lambda n: n,
    "grassmannian": lambda k, n: k * (n - k),
    "hilb_p2": lambda n: 2 * n,
    "linear_system": lambda d: d * (d + 3) // 2,
    "universal_curve": lambda d: d * (d + 3) // 2 + 1,
    "omega_locus": lambda k, n: 2 * n,
}


def atom_degree(atom: AtomKind) -> int:
    """Degree of an atom's class, read off its parameters without building
    the class (an upper bound for the Omega loci)."""
    return _DEGREES[atom.kind](*atom.args)
