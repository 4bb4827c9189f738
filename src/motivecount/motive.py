"""Exact arithmetic in the subring Z[L] of the Grothendieck ring of varieties.

L denotes the class of the affine line.  Every value handled by this package
is an integer polynomial in L, stored densely by ascending degree with exact
(arbitrary-precision) coefficients.  Negative coefficients are allowed:
classes are formal differences, and only final moduli classes are expected
to be effective.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class DivisionNotExact(ArithmeticError):
    """A polynomial division left a remainder or hit a non-dividing leading
    coefficient.  For this domain that means a claimed projective-bundle
    decomposition does not hold for the given classes."""


class NotEffective(ValueError):
    """Raised when an operation that is only valid for effective classes
    (all coefficients >= 0) receives a class with a negative coefficient."""


class MotiveClass:
    """An integer polynomial in the Lefschetz class L.

    Immutable.  ``coeffs[i]`` is the coefficient of L^i; trailing zeros are
    trimmed, so the zero class has an empty coefficient tuple.  Arithmetic
    accepts plain ints, which are treated as constant classes (disjoint
    unions of points).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Highest exponent with nonzero coefficient; -1 for the zero class."""
        return len(self._coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self._coeffs)

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(x) -> "MotiveClass":
        if isinstance(x, MotiveClass):
            return x
        if isinstance(x, int):
            return MotiveClass((x,))
        return NotImplemented

    def __add__(self, other) -> "MotiveClass":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return MotiveClass(out)

    __radd__ = __add__

    def __neg__(self) -> "MotiveClass":
        return MotiveClass(tuple(-c for c in self._coeffs))

    def __sub__(self, other) -> "MotiveClass":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MotiveClass":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "MotiveClass":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return MotiveClass()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return MotiveClass(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MotiveClass":
        if n < 0:
            raise ValueError("negative powers are not defined in Z[L]")
        result = MotiveClass((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # a constant class equals its int, so it hashes like it
        return hash(self._coeffs if len(self._coeffs) > 1 else self[0])

    # -- domain operations ---------------------------------------------------

    def exact_div(self, divisor) -> "MotiveClass":
        """Divide exactly by ``divisor`` using integer long division.

        Raises :class:`DivisionNotExact` if a leading-coefficient division
        fails or a nonzero remainder is left.  Failure is meaningful data
        here: it falsifies a claimed product decomposition.
        """
        divisor = self._coerce(divisor)
        if not divisor:
            raise ZeroDivisionError("division by the zero class")
        rem = list(self._coeffs)
        dcs = divisor._coeffs
        dd = len(dcs) - 1
        lead = dcs[-1]
        qdeg = len(rem) - 1 - dd
        quot = [0] * (qdeg + 1) if qdeg >= 0 else []
        for k in range(qdeg, -1, -1):
            c = rem[k + dd]
            if c == 0:
                continue
            q, r = divmod(c, lead)
            if r:
                raise DivisionNotExact(
                    f"leading coefficient {c} at degree {k + dd} is not divisible by {lead}")
            quot[k] = q
            for i, dc in enumerate(dcs):
                rem[k + i] -= q * dc
        if any(rem):
            raise DivisionNotExact(f"nonzero remainder {MotiveClass(rem)}")
        return MotiveClass(quot)

    def evaluate(self, q: int) -> int:
        """Specialize L to the integer q (Horner).  At a prime power q this
        is the number of rational points of any variety with this class."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * q + c
        return acc

    def euler(self) -> int:
        """Topological Euler number: the coefficient sum, i.e. evaluate(1)."""
        return sum(self._coeffs)

    def is_palindromic(self) -> bool:
        """True iff coeffs[i] == coeffs[degree - i] for all i (Poincare
        duality for the classes of smooth projective varieties)."""
        cs = self._coeffs
        return cs == cs[::-1]

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self._coeffs)

    def sym_power(self, n: int) -> "MotiveClass":
        """n-th symmetric power: the t^n coefficient of Exp(X t), by
        :func:`power_exp`.  Sym is defined here only for effective classes,
        the classes of varieties, so a negative coefficient raises
        :class:`NotEffective` instead of silently extending it."""
        if n < 0:
            raise ValueError("symmetric power order must be >= 0")
        if not self.is_effective():
            raise NotEffective(f"non-effective class {self}: Sym is defined here "
                               "only for effective classes")
        return power_exp((self,), n)

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            elif i == 1:
                term = "L" if mag == 1 else f"{mag}*L"
            else:
                term = f"L^{i}" if mag == 1 else f"{mag}*L^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MotiveClass({self._coeffs!r})"


def power_exp(terms: Sequence[MotiveClass], n: int) -> MotiveClass:
    """The t^n coefficient of the power-structure exponential
    Exp(sum_m terms[m-1] t^m), where Exp(L^i t^m) = 1/(1 - L^i t^m) and Exp
    turns sums into products.  By Newton's identity m F_m = sum_k B_k F_(m-k),
    where B_k = sum_(d | k) d psi_(k/d)(terms[d-1]) and the Adams operation
    psi_j sends L^i to L^(ij); a division by m that is not exact raises
    :class:`DivisionNotExact`."""
    if n < 0:
        raise ValueError("series order must be >= 0")
    # adams[k]: the exponents and coefficients of B_k
    adams: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for d, term in enumerate(terms[:n], 1):
        for j in range(1, n // d + 1):
            b = adams[d * j]
            for i, c in enumerate(term.coeffs):
                if c:
                    b[i * j] = b.get(i * j, 0) + d * c
    series = [[1]]  # series[m]: the coefficient list of F_m
    for m in range(1, n + 1):
        acc = [0] * max((max(adams[k]) + len(series[m - k])
                         for k in range(1, m + 1) if adams[k]), default=0)
        for k in range(1, m + 1):
            for e, c in adams[k].items():
                for i, a in enumerate(series[m - k], e):
                    acc[i] += c * a
        if any(a % m for a in acc):
            raise DivisionNotExact(f"{MotiveClass(acc)} is not divisible by {m}")
        series.append([a // m for a in acc])
    return MotiveClass(series[n])


ZERO = MotiveClass()
ONE = MotiveClass((1,))
L = MotiveClass((0, 1))
