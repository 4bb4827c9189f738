"""Stratum registry, moduli-class assembly, and verification reports.

:data:`STRATA` maps each target to its strata in assembly order, and
:data:`OMEGA26_PARTS` lists the conic-locus sub-strata.  A stratum is a
tuple ``(id, provenance note, formula)``, the formula in the expression
language, so each one stays readable and auditable.  The assembly layer
sums the strata per target and reports five flags: the table matches the
pinned reference table, the Euler number matches the pinned one, the class
is palindromic, its degree is the moduli dimension, and its coefficients
are nonnegative.

The conic-locus consistency report rebuilds the pinned Omega(2,6) class
bottom-up from its sub-strata and records every intermediate class, the
projective-bundle exact divisions, and the difference against the pinned
value.  Equality and inequality are both recorded, never patched: the
sub-stratum bookkeeping is knowingly ambiguous (see README) and the main
verification path never depends on it.

The reports are data: :mod:`.cli` writes every document from them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atoms import omega_locus, projective
from .dsl import evaluate
from .motive import ZERO, DivisionNotExact, MotiveClass

#: the strata of each target, in assembly order
STRATA = {
    "m11": (
        ("m11", "degree-1 moduli space: the net of lines in the plane", "P2"),
    ),
    "m21": (
        ("m21", "degree-2 moduli space: the space of conics", "P5"),
    ),
    "m31": (
        ("m31", "degree-3 moduli space: the universal cubic, a P^8-bundle over the plane", "C(3)"),
    ),
    "m41": (
        ("m41.M2", "quartic stratum with an extra section: P^13-bundle over the plane", "P2*P13"),
        ("m41.W4", "big open chart: P^11-bundle over the triples of points not on a line",
         "(Hilb3 - Omega(1,3))*P11"),
        ("m41.M1minusW4",
         "boundary of the big chart: difference of P^11- and P^1-bundles over the space of lines",
         "P2*P11 - P2*P1"),
    ),
    "m51": (
        ("m51.M3", "quintic stratum with two extra sections: P^19-bundle over the plane",
         "P2*P19"),
        ("m51.M2s",
         "surjective-pencil stratum: P^16-bundle over the Grassmannian of conic pencils minus a "
         "P^2 x P^2 degeneration locus",
         "Gr(2,6)*P16 - P2*P2*P2"),
        ("m51.M2c",
         "complementary middle stratum: P^17-bundle over point x point-pair data minus a P^1 x "
         "P^1 torsion locus",
         "Hilb1*Hilb2*P17 - Hilb1*P1*P1"),
        ("m51.Pi1",
         "boundary stratum with conic-supported torsion: difference of P^14- and P^4-bundles "
         "over the conics",
         "P5*P14 - P5*P4"),
        ("m51.Pi2",
         "boundary stratum with line-supported torsion over a point pair: punctured-line times "
         "punctured-P^14 bundle",
         "Hilb2*P2*(P1-1)*(P14-P1)"),
        ("m51.Pi3",
         "boundary stratum with deeper line torsion: rank-drop complement in P^4 times a "
         "punctured P^14, over the plane",
         "Hilb1*(P4-(P1+A2+A1))*(P14-1)"),
        ("m51.W5", "big open chart: P^14-bundle over the 6-point subschemes not on a conic",
         "(Hilb6 - Omega(2,6))*P14"),
    ),
    "m52": (
        ("m52.M3p", "top stratum: P^18-bundle over the point pairs", "Hilb2*P18"),
        ("m52.M3",
         "three-section stratum: P^17-bundle over the net-of-generators space minus a P^2-bundle "
         "over the lines",
         "(Hilb3 - P2*P3 + P2)*P17 - P2*P2"),
        ("m52.Xi1",
         "balanced pencil stratum with split column: Gr(2,15) minus pencils landing in a line "
         "subbundle",
         "Gr(2,15) - Gr(2,6)*P2 - P2*(P7 - P2*P2)"),
        ("m52.Xi2",
         "balanced pencil stratum, generic column: P^15-bundle over points x conic pencils with "
         "torsion-image corrections",
         "Hilb1*(Gr(2,6)*P15 - Gr(2,5) - P2*P2*P2 - P2*P3 - P1 + P2*P2 + P1*P2 + P2)"),
        ("m52.M2c",
         "unbalanced pencil stratum: P^16-bundle over generator-space x points minus three "
         "torsion-image loci",
         "(Hilb3 - P2*P3 + P2)*Hilb1*P16 - P2*P2*P2 - P2*P1*P1*(P1-1) - P2*P2*(P2-P1)"),
    ),
}

#: the sub-strata the consistency report rebuilds the conic locus Omega(2,6) from
OMEGA26_PARTS = (
    ("omega26.integral",
     "6 points on an integral conic: P^6-bundle over the conics minus the symmetric pairs of "
     "lines",
     "(P5 - Sym2(P2))*P6"),
    ("omega26.S6_2",
     "double line, all 6 points reduced on the underlying line; conic system of dimension 2",
     "P6"),
    ("omega26.S4_1", "double line, reduced part of length 4; conic system of dimension 1",
     "P2*P1*A1"),
    ("omega26.S3_1", "double line, reduced part of length 3; conic system of dimension 1",
     "P2*P1*A4"),
    ("omega26.S2_0", "double line, reduced part of length 2; conic system of dimension 0",
     "P2*P1*A5"),
    ("omega26.S2_2", "double line, reduced part of length 2; conic system of dimension 2",
     "P2*P2*A3"),
    ("omega26.S1_0", "double line, reduced part of length 1; conic system of dimension 0",
     "P2*P1*A4"),
    ("omega26.S1_2", "double line, reduced part of length 1; conic system of dimension 2",
     "P2*P2*A3"),
    ("omega26.S0_0", "double line, no reduced points on the line; conic system of dimension 0",
     "P2*P1*(A4+2*A3+A2) + P2*A4 + P2*(P3-P1*P1)*A3"),
    ("omega26.S0_1", "double line, no reduced points on the line; conic system of dimension 1",
     "P2*P1*A1"),
    ("omega26.Hx0",
     "crossing lines, branch-asymmetric configurations; conic system of dimension 0",
     "A6+2*A5+3*A4+3*A3+2*A2-1"),
    ("omega26.Hx1",
     "crossing lines, branch-asymmetric configurations; conic system of dimension 1",
     "A6+2*A5+2*A4+2*A3+2*A2+2*A1"),
    ("omega26.Hx2",
     "crossing lines, branch-asymmetric configurations; conic system of dimension 2",
     "P6"),
    ("omega26.Hs0", "crossing lines, branch-symmetric configurations; conic system of dimension 0",
     "A6+A4*P1+A2*P1+P1"),
    ("omega26.Hs1",
     "crossing lines, branch-symmetric configurations; conic system of dimension 1 (empty)",
     "0"),
    ("omega26.Hs2",
     "crossing lines, branch-symmetric configurations; conic system of dimension 2 (empty)",
     "0"),
)

TARGETS = tuple(STRATA)

#: moduli dimension by target (degree d and pairing give dim = d^2 + 1)
DIMENSION = {"m11": 2, "m21": 5, "m31": 10, "m41": 17, "m51": 26, "m52": 26}

#: reference coefficient tables the assemblies must reproduce exactly
EXPECTED_TABLE = {
    "m11": (1, 1, 1),
    "m21": (1, 1, 1, 1, 1, 1),
    # derived: class of the universal cubic (P^8-bundle over the plane)
    "m31": (1, 2, 3, 3, 3, 3, 3, 3, 3, 2, 1),
    "m41": (1, 2, 6, 10, 14, 15, 16, 16, 16, 16, 16, 16, 15, 14, 10, 6, 2, 1),
    "m51": (1, 2, 6, 13, 26, 45, 68, 87, 100, 107, 111, 112, 113,
            113, 113, 112, 111, 107, 100, 87, 68, 45, 26, 13, 6, 2, 1),
}
EXPECTED_TABLE["m52"] = EXPECTED_TABLE["m51"]

EXPECTED_EULER = {"m11": 3, "m21": 6, "m31": 27, "m41": 192, "m51": 1695, "m52": 1695}


# -- verification -------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """A target's stratum classes and their sum; every check is derived."""

    target: str
    strata: tuple[tuple[str, MotiveClass], ...]
    assembled: MotiveClass

    @property
    def expected(self) -> MotiveClass:
        return MotiveClass(EXPECTED_TABLE[self.target])

    @property
    def euler_assembled(self) -> int:
        return self.assembled.euler()

    @property
    def flags(self) -> dict[str, bool]:
        assembled = self.assembled
        return {
            "table_match": assembled == self.expected,
            "euler_match": assembled.euler() == EXPECTED_EULER[self.target],
            "palindromic": assembled.is_palindromic(),
            "degree_matches_dimension": assembled.degree == DIMENSION[self.target],
            "nonnegative": assembled.is_effective(),
        }

    @property
    def passed(self) -> bool:
        return all(self.flags.values())


def assemble(target: str) -> VerificationReport:
    """Sum the registered strata of a target."""
    strata = tuple((sid, evaluate(formula)) for sid, _, formula in STRATA[target])
    return VerificationReport(target, strata, sum((c for _, c in strata), ZERO))


# -- conic-locus consistency ---------------------------------------------------

@dataclass(frozen=True)
class DivisionOutcome:
    """Result of dividing a relative-Hilbert-scheme class by its P^n fiber."""

    n: int
    numerator: MotiveClass
    quotient: MotiveClass | None
    detail: str = ""

    @property
    def exact(self) -> bool:
        return self.quotient is not None


@dataclass(frozen=True)
class ConsistencyReport:
    parts: tuple[tuple[str, MotiveClass], ...]
    divisions: tuple[DivisionOutcome, ...]
    assembled: MotiveClass
    stated: MotiveClass

    @property
    def difference(self) -> MotiveClass:
        return self.assembled - self.stated

    @property
    def matches(self) -> bool:
        return self.assembled == self.stated


def omega26_assembled() -> ConsistencyReport:
    """Rebuild the conic-locus class from its sub-strata.

    The union of the coverings splits over the conic type: integral conics
    contribute a P^6-bundle; double lines contribute the S-strata times the
    space of lines; crossing lines contribute the branch-asymmetric strata
    times ordered distinct line pairs plus the branch-symmetric strata
    times unordered distinct line pairs.  For each conic-system dimension n
    the total is a P^n-bundle over its image, so the image class is an
    exact quotient.  The assembled class is the sum of the three quotients
    and is reported next to the pinned value, equal or not.
    """
    ordered = tuple((sid, evaluate(formula)) for sid, _, formula in OMEGA26_PARTS)
    parts = {sid.removeprefix("omega26."): cls for sid, cls in ordered}
    p2 = projective(2)
    ordered_pairs = p2 * p2 - p2
    unordered_pairs = p2.sym_power(2) - p2

    divisions = []
    assembled = ZERO
    for n in range(3):
        nonreduced = sum(
            (cls for name, cls in parts.items()
             if name.startswith("S") and name.endswith(f"_{n}")), ZERO)
        rn = (parts[f"Hx{n}"] * ordered_pairs
              + parts[f"Hs{n}"] * unordered_pairs
              + nonreduced * p2)
        if n == 0:
            rn = rn + parts["integral"]
        try:
            quotient = rn.exact_div(projective(n))
            divisions.append(DivisionOutcome(n, rn, quotient))
            assembled = assembled + quotient
        except DivisionNotExact as exc:
            divisions.append(DivisionOutcome(n, rn, None, str(exc)))

    return ConsistencyReport(ordered, tuple(divisions), assembled, omega_locus(2, 6))


def verify_all() -> tuple[tuple[VerificationReport, ...], ConsistencyReport]:
    """Every target's report, and the conic-locus diagnostic, which is
    informational: the targets' reports alone decide the pass."""
    return tuple(assemble(t) for t in TARGETS), omega26_assembled()

