"""Registry integrity, assembly tables, and the conic-locus diagnostic."""

import hashlib
import json

import pytest

from motivecount import MotiveClass, evaluate, omega_locus, parse, format_expr
from motivecount.atoms import hilb_p2, projective
from motivecount.cli import (
    consistency_to_dict,
    csv_table,
    markdown_table,
    report_to_dict,
    verification_dict,
)
from motivecount.oracle.tables import ROWS
from motivecount.strata import (
    DIMENSION,
    EXPECTED_EULER,
    EXPECTED_TABLE,
    OMEGA26_PARTS,
    STRATA,
    TARGETS,
    assemble,
    omega26_assembled,
    verify_all,
)

#: every stratum, the targets' in registry order and then the conic-locus parts
EVERY_STRATUM = tuple(s for strata in STRATA.values() for s in strata) + OMEGA26_PARTS

#: sha256 of the registry's text, one line "id<TAB>note<TAB>formula" per stratum
STRATA_SHA256 = "3c7c2c072977be9d45b2990d50de5d3d0885b22b6556e8498c2afab3a6df2486"


def test_strata_registry_verbatim():
    text = "".join(f"{sid}\t{note}\t{formula}\n" for sid, note, formula in EVERY_STRATUM)
    assert hashlib.sha256(text.encode()).hexdigest() == STRATA_SHA256


def test_registry_counts():
    counts = {target: len(strata) for target, strata in STRATA.items()}
    assert counts["m41"] == 3
    assert counts["m51"] == 7
    assert counts["m52"] == 5
    assert counts["m11"] == counts["m21"] == counts["m31"] == 1
    assert sum(counts.values()) == 18
    assert len(OMEGA26_PARTS) == 16
    assert TARGETS == tuple(STRATA) == ("m11", "m21", "m31", "m41", "m51", "m52")
    # a stratum's id names its target
    assert all(sid.split(".")[0] == target
               for target, strata in STRATA.items() for sid, _, _ in strata)
    assert all(sid.startswith("omega26.") for sid, _, _ in OMEGA26_PARTS)


def test_registry_ids_unique():
    ids = [sid for sid, _, _ in EVERY_STRATUM]
    assert len(ids) == len(set(ids))


def test_registry_entries_parse_and_evaluate():
    for sid, _, formula in EVERY_STRATUM:
        assert isinstance(evaluate(formula), MotiveClass), sid


def test_registry_roundtrip_formatting():
    """Every stratum formula and table row prints as written, spaces aside,
    and parses back to its tree."""
    formulas = ([formula for _, _, formula in EVERY_STRATUM]
                + [params for rows in ROWS.values() for _, _, params in rows])
    assert len(formulas) == 73
    for formula in formulas:
        tree = parse(formula)
        assert format_expr(tree) == formula.replace(" ", ""), formula
        assert parse(format_expr(tree)) == tree, formula


@pytest.mark.parametrize("target", TARGETS)
def test_assembled_tables(target):
    report = assemble(target)
    assert report.assembled.coeffs == EXPECTED_TABLE[target]
    assert report.euler_assembled == EXPECTED_EULER[target]
    assert report.assembled.degree == DIMENSION[target]
    assert report.passed
    # flags are recomputable predicates of the other fields
    assert report.flags["table_match"] == (report.assembled == report.expected)
    assert report.flags["euler_match"] == (report.euler_assembled == report.expected.euler())
    assert report.flags["palindromic"] == report.assembled.is_palindromic()
    assert report.flags["nonnegative"] == report.assembled.is_effective()
    assert report.assembled == sum((c for _, c in report.strata), MotiveClass())


def test_m52_equals_m51():
    assert assemble("m52").assembled == assemble("m51").assembled
    # genuinely different stratifications
    assert {s for s, _ in assemble("m52").strata} != {s for s, _ in assemble("m51").strata}


def test_selected_stratum_values():
    values = {sid: evaluate(formula) for strata in STRATA.values()
              for sid, _, formula in strata}
    assert values["m41.M2"] == projective(2) * projective(13)
    assert values["m41.W4"] == (hilb_p2(3) - omega_locus(1, 3)) * projective(11)
    assert values["m51.W5"] == (hilb_p2(6) - omega_locus(2, 6)) * projective(14)
    assert values["m31"].coeffs == (1, 2, 3, 3, 3, 3, 3, 3, 3, 2, 1)
    # stratum classes of an open decomposition may be non-effective only in
    # formal intermediate terms; the three m41 pieces happen to be effective
    assert all(values[f"m41.{name}"].is_effective()
               for name in ("M2", "W4", "M1minusW4"))


@pytest.mark.parametrize("target", ["m99", "omega26"])
def test_assemble_unknown_target(target):
    with pytest.raises(KeyError):
        assemble(target)


@pytest.mark.parametrize("target", TARGETS)
def test_assemble_cached(target):
    """A target's report is assembled once and shared; it equals a fresh one."""
    assert assemble(target) is assemble(target)
    assert assemble(target) == assemble.__wrapped__(target)


def test_reports_cached():
    assert omega26_assembled() is omega26_assembled()
    assert omega26_assembled() == omega26_assembled.__wrapped__()
    (reports, omega26), (again, omega26_again) = verify_all(), verify_all()
    assert len(reports) == len(again) == len(TARGETS)
    assert all(r is s for r, s in zip(reports, again)) and omega26 is omega26_again


def test_omega26_consistency_frozen_values():
    report = omega26_assembled()
    by_n = {d.n: d for d in report.divisions}
    assert set(by_n) == {0, 1, 2}
    assert all(d.exact for d in report.divisions)
    assert by_n[0].numerator.coeffs == (0, -1, -1, 6, 21, 38, 46, 41, 28, 14, 5, 1)
    assert by_n[1].numerator.coeffs == (0, 2, 8, 16, 21, 21, 19, 16, 11, 5, 1)
    assert by_n[2].numerator.coeffs == (1, 3, 6, 10, 15, 21, 23, 20, 12, 5, 1)
    assert [d.numerator.euler() for d in report.divisions] == [198, 120, 117]
    assert by_n[1].quotient.coeffs == (0, 2, 6, 10, 11, 10, 9, 7, 4, 1)
    assert by_n[2].quotient.coeffs == (1, 2, 3, 5, 7, 9, 7, 4, 1)
    # multiplying back reproduces the bundle total
    for d in report.divisions:
        assert d.quotient * projective(d.n) == d.numerator
    assert report.assembled.coeffs == (1, 3, 8, 21, 39, 57, 62, 52, 33, 15, 5, 1)
    assert report.assembled.euler() == 297
    assert report.stated == omega_locus(2, 6)
    assert report.difference == report.assembled - report.stated
    assert report.difference.coeffs == (0, 1, 2, 6, 11, 19, 23, 22, 15, 7, 2)
    assert not report.matches


def test_omega26_part_inventory():
    report = omega26_assembled()
    ids = [sid for sid, _ in report.parts]
    assert ids == [sid for sid, _, _ in OMEGA26_PARTS]
    expected_ids = {
        "omega26.integral",
        "omega26.S6_2", "omega26.S4_1", "omega26.S3_1", "omega26.S2_0",
        "omega26.S2_2", "omega26.S1_0", "omega26.S1_2", "omega26.S0_0",
        "omega26.S0_1",
        "omega26.Hx0", "omega26.Hx1", "omega26.Hx2",
        "omega26.Hs0", "omega26.Hs1", "omega26.Hs2",
    }
    assert set(ids) == expected_ids
    parts = dict(report.parts)
    # reducible contribution alone carries the full stated Euler number
    ordered_pairs_euler = 9 - 3
    unordered_pairs_euler = 6 - 3
    reducible_euler = sum(
        parts[f"omega26.Hx{n}"].euler() * ordered_pairs_euler
        + parts[f"omega26.Hs{n}"].euler() * unordered_pairs_euler
        for n in range(3))
    assert reducible_euler == 189
    assert parts["omega26.integral"].euler() == 0


def test_omega26_determinism():
    r1 = omega26_assembled()
    r2 = omega26_assembled()
    assert r1.assembled == r2.assembled and r1 == r2
    assert json.dumps(consistency_to_dict(r1)) == json.dumps(consistency_to_dict(r2))


def test_verify_all_hard_pass_set():
    reports, omega26 = verify_all()
    assert [r.target for r in reports] == list(TARGETS)
    assert all(r.passed for r in reports)
    assert not omega26.matches  # informational, does not affect passed


def test_serialization_shapes():
    doc = verification_dict(*verify_all())
    assert doc["schema"] == 1
    assert doc["pass"] is True
    assert len(doc["reports"]) == 6
    r41 = next(r for r in doc["reports"] if r["target"] == "m41")
    assert r41["assembled"] == list(EXPECTED_TABLE["m41"])
    assert r41["flags"]["table_match"] is True
    cons = doc["omega26_consistency"]
    assert cons["assembled_euler"] == 297
    assert cons["stated_euler"] == 189
    assert len(cons["parts"]) == 16
    assert len(cons["bundles"]) == 3
    assert all(b["division_exact"] for b in cons["bundles"])


def test_betti_renderings():
    cls = MotiveClass((1, 2, 1))
    md = markdown_table(("i", "b_2i"), enumerate(cls.coeffs))
    assert "| i | b_2i |" in md and "| 1 | 2 |" in md
    csv_text = csv_table(("i", "b_2i"), enumerate(cls.coeffs))
    assert csv_text.splitlines() == ["i,b_2i", "0,1", "1,2", "2,1"]


def test_markdown_table_alignment():
    """A column is left-aligned when its first-row value is a string."""
    assert markdown_table(("name", "n"), [("a", 1), ("b", None)]) == (
        "| name | n |\n|---|---:|\n| a | 1 |\n| b | None |\n")
    assert markdown_table(("i", "b_2i"), []) == "| i | b_2i |\n|---:|---:|\n"


def test_report_dict_fields():
    d = report_to_dict(assemble("m11"))
    assert d == {
        "target": "m11",
        "strata": [{"id": "m11", "class": [1, 1, 1]}],
        "assembled": [1, 1, 1],
        "expected": [1, 1, 1],
        "euler_assembled": 3,
        "flags": {
            "table_match": True,
            "euler_match": True,
            "palindromic": True,
            "degree_matches_dimension": True,
            "nonnegative": True,
        },
        "pass": True,
    }
