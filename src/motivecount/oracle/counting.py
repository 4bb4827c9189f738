"""Public counting operations and the class-vs-count bridge checks.

The plane's points over F_q, q in (2, 3, 4, 9), are counted as coordinate
triples whose first nonzero coordinate is 1, which needs no field
arithmetic (:func:`projective_plane_count`); the length-2 counters work
from the counts over F_q and F_(q^2).

A counter declines a count it will not make by raising
:class:`~motivecount.atoms.Unsupported`: a field size it does not support,
or a punctual sweep over :data:`MAX_SWEEP` elements.  The limit admits every
tabulated cell at q = 2 (colength up to 6) and at q = 3 up to colength 4.
Every comparison goes through :func:`run_bridge`, which reports a declined
count as a skipped row with its reason, never as a failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable

from ..atoms import Unsupported, grassmannian, hilb_p2, projective
from ..motive import MotiveClass
from . import _pure
from .algebra import CURVES, truncated_algebra
from .ideals import IdealRecord, reduced_echelon_forms
from .tables import MAX_COLENGTH, expected_class

#: most elements, one per scalar class, 1 + (q^dim - 1)/(q - 1), that one
#: punctual count may sweep: q=2 colength 6 sweeps 2^13 = 8192 and q=3
#: colength 4 sweeps 9842; q=3 colength 5 sweeps 88574, and its cells took
#: 1.3-1.8 s each, timed in process (Python 3.11.7, one core of a shared
#: 2-vCPU Xeon VM)
MAX_SWEEP = 1 + (3 ** 9 - 1) // 2


# -- punctual ideals -----------------------------------------------------------

def punctual_ideal_records(curve: str, colength: int, q: int) -> tuple[IdealRecord, ...]:
    """Canonical records of all ideals of the given colength, validated to
    be closed under multiplication."""
    if curve not in CURVES:
        raise Unsupported(f"curve must be one of {CURVES}, got {curve!r}")
    if not 1 <= colength <= MAX_COLENGTH:
        raise Unsupported(f"colength must be in 1..{MAX_COLENGTH}, got {colength}")
    if q not in (2, 3):
        raise Unsupported(f"{curve} colength {colength} at q={q}: "
                          f"punctual counting supports q in (2, 3)")
    alg = truncated_algebra(curve, colength)
    sweep = 1 + (q ** alg.dim - 1) // (q - 1)
    if sweep > MAX_SWEEP:
        raise Unsupported(
            f"{curve} colength {colength} at q={q}: sweeps {sweep} elements, "
            f"one per scalar class (at most {MAX_SWEEP})")
    records = _pure.enumerate_ideals(alg, q, colength)
    return tuple(IdealRecord.from_rows(basis, alg, q) for basis in records)


def count_punctual_ideals(curve: str, colength: int, q: int) -> int:
    """Number of ideals of the given colength in the truncated germ algebra."""
    return len(punctual_ideal_records(curve, colength, q))


# -- grassmannian --------------------------------------------------------------

def count_grassmannian(k: int, n: int, q: int) -> int:
    """Number of k-dimensional subspaces of n-space over F_q, counted by
    enumerating reduced echelon forms."""
    if q not in (2, 3, 4):
        raise Unsupported(f"gr({k},{n}) at q={q}: counting supports q in (2, 3, 4)")
    if not 0 <= k <= n:
        raise ValueError(f"require 0 <= k <= n, got ({k}, {n})")
    return sum(1 for _ in reduced_echelon_forms(k, n, q))


# -- plane points and the hilbert scheme of two points -------------------------

def projective_plane_count(q: int) -> int:
    """Points of the projective plane over F_q: the triples over 0..q-1, with
    0 and 1 the field's zero and one, whose first nonzero coordinate is 1."""
    if q not in (2, 3, 4, 9):
        raise Unsupported(f"field order {q} not supported (need one of [2, 3, 4, 9])")
    return sum(1 for v in product(range(q), repeat=3)
               if next((c for c in v if c), None) == 1)


def _plane_counts(counter: str, q: int) -> tuple[int, int]:
    """The plane's point counts over F_q and F_(q^2), for a length-2 counter."""
    if q not in (2, 3):
        raise Unsupported(f"{counter} at q={q}: counting supports q in (2, 3)")
    return projective_plane_count(q), projective_plane_count(q * q)


def count_hilb2_p2(q: int) -> int:
    """Length-2 subschemes of the plane rational over F_q: unordered pairs
    of distinct rational points, plus conjugate pairs defined over the
    quadratic extension, plus a tangent direction at each rational point."""
    n1, n2 = _plane_counts("hilb2", q)
    return n1 * (n1 - 1) // 2 + (n2 - n1) // 2 + n1 * (q + 1)


def count_sym2_p2(q: int) -> int:
    """Unordered point pairs of the plane (symmetric square) over F_q:
    (N1^2 + N2) / 2 with N1, N2 the plane's point counts over F_q and its
    quadratic extension."""
    n1, n2 = _plane_counts("sym2p2", q)
    return (n1 * n1 + n2) // 2


# -- results and bridges ---------------------------------------------------------

@dataclass(frozen=True)
class Bridge:
    """A brute-force counter paired with the class it certifies: at each q,
    ``count(q)`` must equal ``expected()`` evaluated at L = q."""

    counter: str
    params: str
    count: Callable[[int], int]
    expected: Callable[[], MotiveClass]


@dataclass(frozen=True)
class FqCountResult:
    """Outcome of one oracle comparison: brute-force count vs polynomial.
    A declined count is ``None``, with the reason it was declined."""

    counter: str
    q: int
    params: str
    count: int | None
    expected: int
    millis: float
    reason: str

    @property
    def skipped(self) -> bool:
        return self.count is None

    @property
    def passed(self) -> bool:
        return self.count == self.expected

    @property
    def status(self) -> str:
        return "skip" if self.skipped else ("pass" if self.passed else "fail")


def run_bridge(bridge: Bridge, q: int) -> FqCountResult:
    """Count at q and compare with the class evaluated at L = q.  A count
    its counter declines is a skipped row with its reason."""
    expected = bridge.expected().evaluate(q)
    start = time.perf_counter()
    try:
        count, reason = bridge.count(q), ""
    except Unsupported as exc:
        count, reason = None, str(exc)
    millis = (time.perf_counter() - start) * 1000.0
    return FqCountResult(bridge.counter, q, bridge.params, count, expected, millis, reason)


def _punctual_bridge(curve: str, colength: int) -> Bridge:
    return Bridge("punctual", f"{curve}:{colength}",
                  partial(count_punctual_ideals, curve, colength),
                  partial(expected_class, curve, colength))


def count_punctual_total_vs_table(curve: str, colength: int, q: int) -> FqCountResult:
    """Pair the enumerated ideal count with the tabulated row-sum value."""
    return run_bridge(_punctual_bridge(curve, colength), q)


#: colengths cheap enough for the quick bridge sweep at q in {2, 3}
PUNCTUAL_BRIDGE_MAX_COLENGTH = 4

#: every registered class-vs-count comparison, by name
BRIDGES = {
    **{f"gr({k},{n})": Bridge("gr", f"({k},{n})", partial(count_grassmannian, k, n),
                              partial(grassmannian, k, n))
       for k, n in ((1, 2), (1, 3), (2, 4), (2, 5), (2, 6))},
    "hilb1": Bridge("hilb1", "(1)", projective_plane_count, partial(hilb_p2, 1)),
    "hilb2": Bridge("hilb2", "(2)", count_hilb2_p2, partial(hilb_p2, 2)),
    "sym2p2": Bridge("sym2p2", "(2)", count_sym2_p2, lambda: projective(2).sym_power(2)),
    **{f"punctual:{curve}:{c}": _punctual_bridge(curve, c)
       for curve in CURVES for c in range(1, PUNCTUAL_BRIDGE_MAX_COLENGTH + 1)},
}


def bridge_check_all(qs) -> list[FqCountResult]:
    """Every registered bridge at every q; mismatches are data, not errors."""
    return [run_bridge(bridge, q) for bridge in BRIDGES.values() for q in qs]
