"""Public counting operations and the class-vs-count bridge checks.

Punctual ideals are enumerated by the engine in :mod:`._pure`, which sweeps
the q^dim elements of the truncated germ algebra once and sums the distinct
principal ideals pairwise.

A punctual count whose sweep would exceed :data:`MAX_SWEEP` elements raises
:class:`BudgetExceeded`, which callers report as a skipped row with its
reason, never as a failure.  The limit admits every tabulated cell at q = 2
(colength up to 6) and at q = 3 up to colength 4.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

from ..atoms import Unsupported, grassmannian, hilb_p2, projective
from . import _pure
from .algebra import CURVES, truncated_algebra
from .gf import projective_plane_count
from .ideals import IdealRecord, reduced_echelon_forms
from .tables import MAX_COLENGTH, expected_class

#: most elements one punctual count may sweep: q=2 colength 6 sweeps 2^13 and
#: q=3 colength 4 sweeps 3^9; q=3 colength 5 would sweep 3^11, which takes
#: seconds per cell in this engine
MAX_SWEEP = 3 ** 9


class BudgetExceeded(RuntimeError):
    """Punctual count whose element sweep, q^dim, exceeds :data:`MAX_SWEEP`."""


# -- punctual ideals -----------------------------------------------------------

def _check_punctual_args(curve: str, colength: int, q: int) -> None:
    if curve not in CURVES:
        raise Unsupported(f"curve must be one of {CURVES}, got {curve!r}")
    if q not in (2, 3):
        raise Unsupported(f"punctual counting supports q in (2, 3), got {q}")
    if not 1 <= colength <= MAX_COLENGTH:
        raise Unsupported(f"colength must be in 1..{MAX_COLENGTH}, got {colength}")


def punctual_ideal_records(curve: str, colength: int, q: int) -> tuple[IdealRecord, ...]:
    """Canonical records of all ideals of the given colength, validated to
    be closed under multiplication."""
    _check_punctual_args(curve, colength, q)
    alg = truncated_algebra(curve, colength)
    sweep = q ** alg.dim
    if sweep > MAX_SWEEP:
        raise BudgetExceeded(
            f"{curve} colength {colength} at q={q}: sweeps {sweep} elements "
            f"(at most {MAX_SWEEP})")
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
        raise Unsupported(f"grassmannian counting supports q in (2, 3, 4), got {q}")
    if not 0 <= k <= n:
        raise ValueError(f"require 0 <= k <= n, got ({k}, {n})")
    return sum(1 for _ in reduced_echelon_forms(k, n, q))


# -- hilbert scheme of two points ----------------------------------------------

def count_hilb2_p2(q: int) -> int:
    """Length-2 subschemes of the plane rational over F_q: unordered pairs
    of distinct rational points, plus conjugate pairs defined over the
    quadratic extension, plus a tangent direction at each rational point."""
    if q not in (2, 3):
        raise Unsupported(f"hilb2 counting supports q in (2, 3), got {q}")
    n1 = projective_plane_count(q)
    n2 = projective_plane_count(q * q)
    return n1 * (n1 - 1) // 2 + (n2 - n1) // 2 + n1 * (q + 1)


def count_sym2_p2(q: int) -> int:
    """Unordered point pairs of the plane (symmetric square) over F_q:
    (N1^2 + N2) / 2 with N1, N2 the plane's point counts over F_q and its
    quadratic extension."""
    if q not in (2, 3):
        raise Unsupported(f"sym2 counting supports q in (2, 3), got {q}")
    n1 = projective_plane_count(q)
    n2 = projective_plane_count(q * q)
    return (n1 * n1 + n2) // 2


# -- results and bridges ---------------------------------------------------------

@dataclass(frozen=True)
class FqCountResult:
    """Outcome of one oracle comparison: brute-force count vs polynomial."""

    counter: str
    q: int
    params: str
    count: int | None
    expected: int
    millis: float
    skipped: bool = False
    reason: str = ""

    @property
    def passed(self) -> bool:
        return not self.skipped and self.count == self.expected

    @property
    def status(self) -> str:
        return "skip" if self.skipped else ("pass" if self.passed else "fail")


CSV_HEADER = "counter,q,params,count,expected,pass,millis"


def results_to_csv(results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in results:
        writer.writerow([
            r.counter, r.q, r.params,
            "" if r.count is None else r.count,
            r.expected, r.status, f"{r.millis:.1f}",
        ])
    return buf.getvalue()


def _timed(counter: str, q: int, params: str, expected: int, fn) -> FqCountResult:
    start = time.perf_counter()
    try:
        count = fn()
    except BudgetExceeded as exc:
        millis = (time.perf_counter() - start) * 1000.0
        return FqCountResult(counter, q, params, None, expected, millis,
                             skipped=True, reason=str(exc))
    millis = (time.perf_counter() - start) * 1000.0
    return FqCountResult(counter, q, params, count, expected, millis)


def count_punctual_total_vs_table(curve: str, colength: int, q: int) -> FqCountResult:
    """Pair the enumerated ideal count with the tabulated row-sum value."""
    _check_punctual_args(curve, colength, q)
    expected = expected_class(curve, colength).evaluate(q)
    return _timed(
        "punctual", q, f"{curve}:{colength}", expected,
        lambda: count_punctual_ideals(curve, colength, q))


GRASSMANNIAN_BRIDGES = ((1, 2), (1, 3), (2, 4), (2, 5), (2, 6))

#: colengths cheap enough for the quick bridge sweep at q in {2, 3}
PUNCTUAL_BRIDGE_MAX_COLENGTH = 4


def _bridge_entries():
    entries = {}
    for k, n in GRASSMANNIAN_BRIDGES:
        entries[f"gr({k},{n})"] = (
            lambda q, k=k, n=n: count_grassmannian(k, n, q),
            lambda q, k=k, n=n: grassmannian(k, n).evaluate(q),
            f"({k},{n})", "gr")
    entries["hilb1"] = (
        projective_plane_count,
        lambda q: hilb_p2(1).evaluate(q), "(1)", "hilb1")
    entries["hilb2"] = (
        count_hilb2_p2,
        lambda q: hilb_p2(2).evaluate(q), "(2)", "hilb2")
    entries["sym2p2"] = (
        count_sym2_p2,
        lambda q: projective(2).sym_power(2).evaluate(q), "(2)", "sym2p2")
    for curve in CURVES:
        for c in range(1, PUNCTUAL_BRIDGE_MAX_COLENGTH + 1):
            entries[f"punctual:{curve}:{c}"] = (
                lambda q, curve=curve, c=c: count_punctual_ideals(curve, c, q),
                lambda q, curve=curve, c=c: expected_class(curve, c).evaluate(q),
                f"{curve}:{c}", "punctual")
    return entries


def bridge_names() -> tuple[str, ...]:
    return tuple(_bridge_entries())


def bridge_check(name: str, qs) -> list[FqCountResult]:
    """Compare one registered counter against its class at each q."""
    entries = _bridge_entries()
    if name not in entries:
        raise KeyError(f"no bridge named {name!r}; known: {', '.join(entries)}")
    counter, class_eval, params, kind = entries[name]
    results = []
    for q in qs:
        expected = class_eval(q)
        results.append(_timed(kind, q, params, expected,
                              lambda q=q: counter(q)))
    return results


def bridge_check_all(qs) -> list[FqCountResult]:
    """Every registered bridge at every q; mismatches are data, not errors."""
    results = []
    for name in bridge_names():
        results.extend(bridge_check(name, qs))
    return results
