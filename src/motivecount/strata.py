"""Stratum registry, moduli-class assembly, and verification reports.

Every registered stratum is stored as expression-language source (see
``data/strata.json``) so each formula stays readable and auditable.  The
assembly layer sums the strata per target and reports five flags: the
table matches the pinned reference table, the Euler number matches the
pinned one, the class is palindromic, its degree is the moduli dimension,
and its coefficients are nonnegative.

The conic-locus consistency report rebuilds the pinned Omega(2,6) class
bottom-up from its sub-strata and records every intermediate class, the
projective-bundle exact divisions, and the difference against the pinned
value.  Equality and inequality are both recorded, never patched: the
sub-stratum bookkeeping is knowingly ambiguous (see README) and the main
verification path never depends on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .atoms import omega_locus, projective
from .dsl import VarietyExpr, eval_expr, parse
from .motive import ZERO, DivisionNotExact, MotiveClass

TARGETS = ("m11", "m21", "m31", "m41", "m51", "m52")

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


@dataclass(frozen=True)
class StratumSpec:
    """A registered stratum: identifier, provenance note, formula source."""

    id: str
    paper_ref: str
    expr: str

    def parsed(self) -> VarietyExpr:
        return parse(self.expr)

    def value(self) -> MotiveClass:
        return eval_expr(self.parsed())


@lru_cache(maxsize=1)
def _load_registry() -> tuple[StratumSpec, ...]:
    raw = json.loads(
        resources.files("motivecount").joinpath("data/strata.json").read_text())
    return tuple(StratumSpec(**entry) for entry in raw)


def registry() -> tuple[StratumSpec, ...]:
    """The moduli strata (everything except the omega26 sub-strata)."""
    return tuple(s for s in _load_registry() if not s.id.startswith("omega26."))


def omega26_parts() -> tuple[StratumSpec, ...]:
    """Sub-strata feeding the conic-locus consistency report."""
    return tuple(s for s in _load_registry() if s.id.startswith("omega26."))


def strata_for(target: str) -> tuple[StratumSpec, ...]:
    if target not in TARGETS:
        raise KeyError(f"unknown target {target!r}")
    return tuple(s for s in registry() if s.id.split(".")[0] == target)


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
    strata = tuple((s.id, s.value()) for s in strata_for(target))
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
    parts = {s.id.removeprefix("omega26."): s.value() for s in omega26_parts()}
    ordered = tuple((s.id, parts[s.id.removeprefix("omega26.")]) for s in omega26_parts())
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


# -- renderings ----------------------------------------------------------------

def markdown_table(header, rows) -> str:
    """A markdown table, each cell printed with str().  A column whose value
    in the first row is a string is left-aligned, any other right-aligned
    (every column, when there are no rows)."""
    def line(cells) -> str:
        return "| " + " | ".join(map(str, cells)) + " |"

    rows = list(rows)
    first = rows[0] if rows else [0] * len(header)
    rule = "|" + "|".join("---" if isinstance(v, str) else "---:" for v in first) + "|"
    return "\n".join([line(header), rule, *map(line, rows)]) + "\n"


def betti_csv(cls: MotiveClass) -> str:
    lines = ["i,b_2i"] + [f"{i},{b}" for i, b in enumerate(cls.coeffs)]
    return "\n".join(lines) + "\n"


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "target": report.target,
        "strata": [{"id": sid, "class": list(cls.coeffs)} for sid, cls in report.strata],
        "assembled": list(report.assembled.coeffs),
        "expected": list(report.expected.coeffs),
        "euler_assembled": report.euler_assembled,
        "flags": report.flags,
        "pass": report.passed,
    }


def consistency_to_dict(report: ConsistencyReport) -> dict:
    return {
        "parts": [
            {"id": sid, "class": list(cls.coeffs), "euler": cls.euler()}
            for sid, cls in report.parts
        ],
        "bundles": [
            {
                "n": d.n,
                "total_class": list(d.numerator.coeffs),
                "total_euler": d.numerator.euler(),
                "division_exact": d.exact,
                "base_class": list(d.quotient.coeffs) if d.quotient is not None else None,
                "base_euler": d.quotient.euler() if d.quotient is not None else None,
                "detail": d.detail,
            }
            for d in report.divisions
        ],
        "assembled": list(report.assembled.coeffs),
        "assembled_euler": report.assembled.euler(),
        "stated": list(report.stated.coeffs),
        "stated_euler": report.stated.euler(),
        "difference": list(report.difference.coeffs),
        "matches_stated": report.matches,
    }


def verification_dict(reports: tuple[VerificationReport, ...],
                      omega26: ConsistencyReport | None) -> dict:
    """The JSON document of what ``verify`` computed; ``report`` adds the
    bridges to it."""
    doc = {"schema": 1}
    if reports:
        doc["reports"] = [report_to_dict(r) for r in reports]
    if omega26 is not None:
        doc["omega26_consistency"] = consistency_to_dict(omega26)
    if reports and omega26 is not None:  # verify_all()
        doc["pass"] = all(r.passed for r in reports)
    return doc


def report_markdown(report: VerificationReport) -> str:
    lines = [f"# {report.target}", ""]
    lines.append(f"Euler number: {report.euler_assembled}")
    lines.append(f"Degree: {report.assembled.degree}")
    flag_text = ", ".join(f"{k}={'pass' if v else 'FAIL'}"
                          for k, v in report.flags.items())
    lines.append(f"Checks: {flag_text}")
    lines.append("")
    lines.append(markdown_table(("i", "b_2i"), enumerate(report.assembled.coeffs)))
    return "\n".join(lines)


def report_text(report: VerificationReport) -> str:
    status = "pass" if report.passed else "FAIL"
    lines = [f"{report.target}: {status}"]
    for sid, cls in report.strata:
        lines.append(f"  {sid}: {cls}")
    lines.append(f"  assembled: {report.assembled}")
    lines.append(f"  euler: {report.euler_assembled}")
    for k, v in report.flags.items():
        lines.append(f"  {k}: {'pass' if v else 'FAIL'}")
    return "\n".join(lines) + "\n"


def consistency_markdown(c: ConsistencyReport) -> str:
    lines = ["# omega26 consistency (informational)", ""]
    lines.append(f"Assembled euler: {c.assembled.euler()}; "
                 f"stated euler: {c.stated.euler()}; "
                 f"matches: {'yes' if c.matches else 'no'}")
    lines.append("")
    lines.append(markdown_table(("i", "b_2i"), enumerate(c.assembled.coeffs)))
    return "\n".join(lines)


def consistency_text(c: ConsistencyReport) -> str:
    lines = ["omega26 consistency (informational):"]
    for sid, cls in c.parts:
        lines.append(f"  {sid}: {cls}  (euler {cls.euler()})")
    for d in c.divisions:
        base = str(d.quotient) if d.exact else f"NOT EXACT: {d.detail}"
        lines.append(f"  bundle n={d.n}: total euler {d.numerator.euler()}; base {base}")
    lines.append(f"  assembled: {c.assembled}  (euler {c.assembled.euler()})")
    lines.append(f"  stated:    {c.stated}  (euler {c.stated.euler()})")
    lines.append(f"  difference: {c.difference}")
    lines.append(f"  matches stated value: {'yes' if c.matches else 'no'}")
    return "\n".join(lines) + "\n"


def render_verification(reports: tuple[VerificationReport, ...],
                        omega26: ConsistencyReport | None, fmt: str) -> str:
    """Render what ``verify`` computed, in json, csv, md or text: every
    target's report with the consistency report (``verify_all()``), one
    target's report, or the consistency report.  For every target, md and
    text are the parts' blocks in turn; json adds the overall pass, and CSV
    is one table keyed by target, with no consistency rows."""
    every_target = bool(reports) and omega26 is not None
    consistency = [] if omega26 is None else [omega26]
    if fmt == "json":
        return json.dumps(verification_dict(reports, omega26), indent=2) + "\n"
    if fmt == "csv":
        if not every_target:
            return betti_csv((reports[0] if reports else omega26).assembled)
        lines = ["target,i,b_2i"] + [f"{r.target},{i},{b}" for r in reports
                                     for i, b in enumerate(r.assembled.coeffs)]
        return "\n".join(lines) + "\n"
    if fmt == "md":
        return "\n".join([report_markdown(r) for r in reports]
                         + [consistency_markdown(c) for c in consistency])
    return "".join([report_text(r) for r in reports] + [consistency_text(c) for c in consistency])
