"""Tests of the benchmark itself: every checker rejects a wrong answer, the
independent evaluators agree with the package on small cases, and the
tracer wraps from outside without changing results.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
import independent  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from motivecount import MotiveClass, evaluate, grassmannian, hilb_p2  # noqa: E402
from motivecount.oracle import (  # noqa: E402
    count_grassmannian,
    count_punctual_ideals,
    count_sym2_p2,
    enumerate_closed_subspaces,
    expected_class,
    truncated_algebra,
)


def replace_once(text: str, old: str, new: str) -> str:
    assert old in text, old
    return text.replace(old, new, 1)


# -- independent evaluators against the package --------------------------------------

@pytest.mark.parametrize("x", [1, 2, 3, 4])
def test_gaussian_binomial_matches_grassmannian_class(x):
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert independent.gaussian_binomial(n, k, x) == grassmannian(k, n).evaluate(x)


def test_gaussian_binomial_matches_echelon_count():
    for k, n, q in [(1, 3, 2), (2, 4, 2), (2, 4, 3), (2, 5, 4), (3, 5, 3)]:
        assert independent.gaussian_binomial(n, k, q) == count_grassmannian(k, n, q)


@pytest.mark.parametrize("x", [2, 3])
def test_hilbert_series_matches_package(x):
    for n in range(0, 9):
        assert independent.hilb_p2_value(n, x) == hilb_p2(n).evaluate(x)


def test_hilbert_series_euler_numbers_count_partition_triples():
    # coefficients of prod_m (1 - t^m)^-3
    assert [independent.hilb_p2_value(n, 1) for n in range(9)] == [
        1, 3, 9, 22, 51, 108, 221, 429, 810]


@pytest.mark.parametrize("q", [2, 3])
def test_newton_symmetric_square_counts_point_pairs(q):
    assert independent.tree_value(("sym", 2, ("P", 2)), q) == count_sym2_p2(q)


def test_tree_evaluators_match_package_on_corpus():
    for text, tree in corpus.build(0)[:80]:
        cls = evaluate(text)
        assert cls.evaluate(2) == independent.tree_value(tree, 2), text
        assert cls.evaluate(3) == independent.tree_value(tree, 3), text
        assert cls.degree == independent.tree_degree(tree), text
        assert cls.euler() == independent.tree_euler(tree), text


def test_sym_euler_is_multiset_count():
    tree = ("sym", 4, ("Gr", 2, 4))
    assert independent.tree_euler(tree) == 126  # C(6 + 4 - 1, 4)
    assert independent.tree_euler(tree) == independent.tree_value(tree, 1)


def test_parse_class_text_round_trips():
    for coeffs in [(1,), (0, 1), (1, 2, 6, 15), (3, 0, -1, 0, 2), (-1, -4), ()]:
        cls = MotiveClass(coeffs)
        assert independent.parse_class_text(str(cls)) == list(cls.coeffs)


def test_row_sums_transcribe_the_package_tables():
    for (curve, c), coeffs in independent.ROW_SUM.items():
        assert list(expected_class(curve, c).coeffs) == list(coeffs)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("curve", workloads.CURVES)
def test_true_counts_match_closed_subspace_sweep(curve, q):
    for c in range(1, 5):
        alg = truncated_algebra(curve, c)
        assert len(enumerate_closed_subspaces(alg, q, c)) == independent.true_ideal_count(curve, c, q)
        assert independent.true_ideal_count(curve, c, q) == independent.row_sum(curve, c, q)


def test_ribbon_colength_five_true_count():
    assert count_punctual_ideals("ribbon", 5, 2) == independent.true_ideal_count("ribbon", 5, 2) == 7
    assert independent.row_sum("ribbon", 5, 2) == 9


# -- every checker rejects a wrong answer -----------------------------------------------

@pytest.fixture(scope="module")
def punctual_q2_c5():
    return workloads.run_cli(["oracle", "--check", "punctual", "--q", "2", "--max-colength", "5"])


def test_punctual_checker_accepts_program_output(punctual_q2_c5):
    assert punctual_q2_c5[0] == 1  # the documented ribbon colength-5 row
    assert workloads.check_punctual_csv(2, 5, punctual_q2_c5) == []


@pytest.mark.parametrize("old,new", [
    ("punctual,2,node:4,7,7,pass", "punctual,2,node:4,8,7,pass"),      # wrong count
    ("punctual,2,node:4,7,7,pass", "punctual,2,node:4,8,8,pass"),      # count and column
    ("punctual,2,ribbon:5,7,9,fail", "punctual,2,ribbon:5,9,9,fail"),  # row sum, not truth
    ("punctual,2,node:4,7,7,pass", "punctual,2,node:4,7,7,fail"),      # pass column
    ("punctual,2,node:4,7,7,pass", "punctual,2,node:4,,7,skip"),       # skipped cell
])
def test_punctual_checker_rejects_wrong_rows(punctual_q2_c5, old, new):
    code, text = punctual_q2_c5
    assert workloads.check_punctual_csv(2, 5, (code, replace_once(text, old, new)))


def test_punctual_checker_rejects_missing_row_and_wrong_exit(punctual_q2_c5):
    code, text = punctual_q2_c5
    lines = text.splitlines(keepends=True)
    assert workloads.check_punctual_csv(2, 5, (code, "".join(lines[:-1])))
    assert workloads.check_punctual_csv(2, 5, (0, text))
    assert workloads.check_punctual_csv(3, 5, (code, text))


def test_equality_checker_rejects_wrong_count():
    assert workloads._equals(35, "gr")(35) == []
    assert workloads._equals(35, "gr")(36)


@pytest.fixture(scope="module")
def verify_outputs():
    return {fmt: workloads.run_cli(["verify", "--target", "all", "--format", fmt])
            for fmt in ("json", "csv", "md", "text")}


PARSERS = {"json": workloads.classes_from_json, "csv": workloads.classes_from_csv,
           "md": workloads.classes_from_markdown, "text": workloads.classes_from_text}

WRONG_VERIFY = {
    "json": [('"euler_assembled": 192', '"euler_assembled": 193')],
    "csv": [("m41,2,6", "m41,2,7"), ("m52,0,1", "m52,0,2")],
    "md": [("| 2 | 6 |", "| 2 | 7 |"), ("Euler number: 27", "Euler number: 28")],
    "text": [("  euler: 1695", "  euler: 1696"), ("m21: pass", "m21: FAIL")],
}


@pytest.mark.parametrize("fmt", sorted(PARSERS))
def test_verify_checker(verify_outputs, fmt):
    code, text = verify_outputs[fmt]
    assert workloads.check_verify(PARSERS[fmt], (code, text)) == []
    assert workloads.check_verify(PARSERS[fmt], (1, text))
    for old, new in WRONG_VERIFY[fmt]:
        assert workloads.check_verify(PARSERS[fmt], (code, replace_once(text, old, new))), old


def test_verify_json_checker_rejects_changed_class(verify_outputs):
    code, text = verify_outputs["json"]
    doc = json.loads(text)
    doc["reports"][4]["assembled"][3] += 1
    assert workloads.check_verify(workloads.classes_from_json, (code, json.dumps(doc)))


def test_moduli_property_checks():
    good = {t: [1, 1] for t in independent.TARGETS}
    assert independent.check_moduli_classes(good)  # wrong Euler numbers and degrees
    assert independent.check_moduli_classes({"m11": [1, 1, 1]})  # missing targets


def test_omega26_checker():
    code, text = workloads.run_cli(["verify", "--target", "omega26"])
    assert workloads.check_omega26_text((code, text)) == []
    assert workloads.check_omega26_text((code, replace_once(text, "stated value: no", "stated value: yes")))
    difference = next(line for line in text.splitlines() if "difference:" in line)
    assert workloads.check_omega26_text((code, text.replace(difference, "  difference: L")))
    assert workloads.check_omega26_text((code, text.replace("(euler 189)", "(euler 190)")))
    assert workloads.check_omega26_text((2, text))


def test_eval_checker():
    text, tree = "Sym 3(Gr(2,4)) - P5", ("diff", ("sym", 3, ("Gr", 2, 4)), ("P", 5))
    want = workloads.eval_expectation(tree)
    code, out = workloads.run_cli(["eval", text, "--format", "json"])
    assert workloads.check_eval(text, want, (code, out)) == []
    doc = json.loads(out)
    for field, change in [("class", lambda d: d["class"].__setitem__(2, d["class"][2] + 1)),
                          ("degree", lambda d: d.__setitem__("degree", d["degree"] + 1)),
                          ("euler", lambda d: d.__setitem__("euler", d["euler"] + 1))]:
        wrong = json.loads(out)
        change(wrong)
        assert workloads.check_eval(text, want, (code, json.dumps(wrong))), field
    assert workloads.check_eval(text, want, (2, out))
    assert doc["degree"] == 12


# -- corpus -------------------------------------------------------------------------

def test_corpus_is_seeded_and_bounded():
    a, b = corpus.build(5), corpus.build(5)
    assert a == b
    assert a != corpus.build(6)
    assert len(a) == sum(corpus.SHAPES.values())
    for text, tree in a:
        assert independent.tree_degree(tree) <= corpus.MAX_DEGREE
        assert "Omega(2,6)" not in text


def test_corpus_mixes_every_shape():
    kinds = {tree[0] for _, tree in corpus.build(1)}
    assert {"sum", "diff", "prod", "pow", "sym", "Gr", "Hilb", "P", "A", "Lin", "C"} <= kinds


# -- tracing -------------------------------------------------------------------------

def test_tracer_counts_repeat_and_leave_results_unchanged():
    import motivecount.cli as cli

    original_main = cli.main
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer().install()
        try:
            assert cli.main is not original_main
            code, out = workloads.run_cli(["oracle", "--check", "punctual", "--q", "2",
                                           "--max-colength", "4"])
        finally:
            tracer.uninstall()
        assert cli.main is original_main
        assert tracer.absent == []
        runs.append((code, [line.rsplit(",", 1)[0] for line in out.splitlines()], tracer.metrics()))
    (code_a, rows_a, m_a), (code_b, rows_b, m_b) = runs
    assert code_a == code_b == 0 and rows_a == rows_b
    assert tuple(m_a) == tracing.LAYER_METRICS
    for key in ("oracle.elements_swept", "oracle.principal_ideals", "oracle.pair_sums",
                "oracle.ideals_found", "oracle.echelon_reduce_calls"):
        assert m_a[key] == m_b[key] > 0, key
    # colength c at q = 2 sweeps 2^(2c+1) elements; ideals found are the counts
    assert m_a["oracle.elements_swept"] == 2 * sum(2 ** (2 * c + 1) for c in range(1, 5))
    assert m_a["oracle.ideals_found"] == sum(independent.true_ideal_count(curve, c, 2)
                                             for curve in workloads.CURVES for c in range(1, 5))


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + (
        ("motivecount.oracle.counting", "active_backend_removed", "x"),
        ("motivecount.no_such_module", "f", "y")))
    tracer = tracing.Tracer().install()
    tracer.uninstall()
    assert tracer.absent == ["motivecount.oracle.counting.active_backend_removed",
                             "motivecount.no_such_module.f"]


def test_import_times_parse():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |        120 |   motivecount.motive\n"
              "import time:        80 |        400 | motivecount\n"
              "import time:        50 |         50 | json\n")
    got = tracing.import_times(stderr)
    assert got["import.motivecount.motive_s"] == pytest.approx(120e-6)
    assert got["import.package_s"] == pytest.approx(200e-6)
    assert got["import.motivecount.cli_s"] == 0
    assert set(got) == set(tracing.IMPORT_METRICS)


# -- the command ----------------------------------------------------------------------

def test_run_without_package_source_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_spec_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == (
        ["traced.wall_s"] + list(tracing.LAYER_METRICS) + list(tracing.IMPORT_METRICS))
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
