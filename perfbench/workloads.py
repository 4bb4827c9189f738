"""The three workloads: their operations, built from a seed, and the checks
applied to every output.

An operation is a call into the package (through ``motivecount.cli.main``
where a user would use the command line).  Its expected answer is computed
by :mod:`independent` when the workload is built, before any timing, and
its check only compares.  A check returns a list of problems; an empty list
means the output is right.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import corpus
from independent import (
    EULER,
    OMEGA26_STATED_EULER,
    TARGETS,
    check_moduli_classes,
    gaussian_binomial,
    parse_class_text,
    row_sum,
    tree_degree,
    tree_euler,
    tree_value,
    true_ideal_count,
)

CURVES = ("ribbon", "node")

#: Grassmannian grid: every Gr(k, n), 0 < k < n <= 7, at q = 2, 3, 4 with at
#: most this many echelon forms (the largest is Gr(3, 6) at q = 4)
MAX_ECHELON_FORMS = 400_000

#: closed-subspace sweeps: both germs, colength <= 4, q = 2 and 3
CLOSED_MAX_COLENGTH = 4

#: punctual oracle calls: (q, max colength), every cell the default budget admits
PUNCTUAL_RUNS = (("2", 6), ("3", 4))


@dataclass(frozen=True)
class Operation:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``motivecount.cli.main`` with stdout captured; progress on stderr is
    dropped."""
    import motivecount.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = motivecount.cli.main(argv)
    return code, out.getvalue()


# -- punctual -----------------------------------------------------------------------

def check_punctual_csv(q: int, max_colength: int, result) -> list[str]:
    code, text = result
    problems = []
    cells = {}
    for row in csv.DictReader(io.StringIO(text)):
        curve, _, colength = row["params"].partition(":")
        key = (curve, int(colength))
        if row["counter"] != "punctual" or int(row["q"]) != q or key in cells:
            problems.append(f"unexpected row {row}")
            continue
        if row["count"] == "":
            problems.append(f"{curve} c{colength} q{q}: skipped")
            continue
        count, expected = int(row["count"]), int(row["expected"])
        cells[key] = (count, expected)
        if count != true_ideal_count(curve, key[1], q):
            problems.append(f"{curve} c{colength} q{q}: count {count} != "
                            f"{true_ideal_count(curve, key[1], q)}")
        if expected != row_sum(curve, key[1], q):
            problems.append(f"{curve} c{colength} q{q}: expected column {expected} "
                            f"!= row sum {row_sum(curve, key[1], q)}")
        if row["pass"] != ("pass" if count == expected else "fail"):
            problems.append(f"{curve} c{colength} q{q}: pass column {row['pass']!r}")
    want = {(curve, c) for curve in CURVES for c in range(1, max_colength + 1)}
    if set(cells) != want:
        problems.append(f"cells {sorted(cells)} != {sorted(want)}")
    mismatch = any(count != expected for count, expected in cells.values())
    if code != (1 if mismatch else 0):
        problems.append(f"exit status {code} with mismatch={mismatch}")
    return problems


def punctual(seed: int) -> list[Operation]:
    runs = list(PUNCTUAL_RUNS)
    random.Random(seed).shuffle(runs)
    return [
        Operation(
            f"oracle --check punctual --q {q} --max-colength {maxc}",
            lambda q=q, maxc=maxc: run_cli(["oracle", "--check", "punctual", "--q", q,
                                            "--max-colength", str(maxc)]),
            lambda result, q=int(q), maxc=maxc: check_punctual_csv(q, maxc, result))
        for q, maxc in runs
    ]


# -- subspaces ------------------------------------------------------------------------

def _equals(expected: int, label: str) -> Callable[[object], list]:
    return lambda got: [] if got == expected else [f"{label}: {got} != {expected}"]


def grassmannian_grid() -> list[tuple[int, int, int]]:
    return [(k, n, q) for q in (2, 3, 4) for n in range(2, 8) for k in range(1, n)
            if gaussian_binomial(n, k, q) <= MAX_ECHELON_FORMS]


def subspaces(seed: int) -> list[Operation]:
    # names are looked up at call time, so the traced run sees its wrappers
    import motivecount.oracle as oracle

    ops = []
    for k, n, q in grassmannian_grid():
        label = f"count_grassmannian({k}, {n}, {q})"
        ops.append(Operation(label, lambda k=k, n=n, q=q: oracle.count_grassmannian(k, n, q),
                             _equals(gaussian_binomial(n, k, q), label)))
    for curve in CURVES:
        for q in (2, 3):
            for c in range(1, CLOSED_MAX_COLENGTH + 1):
                label = f"enumerate_closed_subspaces({curve}, q={q}, colength={c})"
                ops.append(Operation(
                    label,
                    lambda curve=curve, q=q, c=c: len(oracle.enumerate_closed_subspaces(
                        oracle.truncated_algebra(curve, c), q, c)),
                    _equals(true_ideal_count(curve, c, q), label)))
    random.Random(seed).shuffle(ops)
    return ops


# -- classes ---------------------------------------------------------------------------

def classes_from_json(text: str) -> dict[str, list[int]]:
    doc = json.loads(text)
    out = {}
    for r in doc["reports"]:
        if r["euler_assembled"] != EULER.get(r["target"]) or not r["pass"]:
            raise ValueError(f"report {r['target']}: euler {r['euler_assembled']}, "
                             f"pass {r['pass']}")
        out[r["target"]] = r["assembled"]
    return out


def classes_from_csv(text: str) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        cs = out.setdefault(row["target"], [])
        if int(row["i"]) != len(cs):
            raise ValueError(f"row {row} out of order")
        cs.append(int(row["b_2i"]))
    return out


def classes_from_markdown(text: str) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    target = None
    for line in text.splitlines():
        if line.startswith("# "):
            target = line[2:] if line[2:] in TARGETS else None
            if target is not None:
                out[target] = []
        elif target is not None and line.startswith("Euler number: "):
            if int(line.split(": ")[1]) != EULER[target]:
                raise ValueError(f"{target}: {line}")
        elif target is not None and line.startswith("| ") and line[2].isdigit():
            i, b = (int(cell) for cell in line.strip("| ").split(" | "))
            if i != len(out[target]):
                raise ValueError(f"{target}: row {line} out of order")
            out[target].append(b)
    return out


def classes_from_text(text: str) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    target = None
    for line in text.splitlines():
        if not line.startswith(" "):
            name, _, status = line.partition(": ")
            target = name if name in TARGETS else None
            if target is not None and status != "pass":
                raise ValueError(f"{target}: status {status!r}")
        elif target is not None and line.startswith("  assembled: "):
            out[target] = parse_class_text(line.split(": ", 1)[1])
        elif target is not None and line.startswith("  euler: "):
            if int(line.split(": ")[1]) != EULER[target]:
                raise ValueError(f"{target}: {line}")
    return out


def check_verify(parse: Callable[[str], dict], result) -> list[str]:
    code, text = result
    problems = [] if code == 0 else [f"exit status {code}"]
    try:
        classes = parse(text)
    except (ValueError, KeyError, IndexError) as exc:
        return problems + [f"unreadable output: {exc}"]
    return problems + check_moduli_classes(classes)


def check_omega26_text(result) -> list[str]:
    """The consistency report is informational: exit 0, the stated class has
    Euler number 189, every printed Euler number is its class's coefficient
    sum, the difference is assembled minus stated, and the match flag says
    whether that difference is zero."""
    code, text = result
    problems = [] if code == 0 else [f"exit status {code}"]
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.strip().partition(":")
        if sep:
            fields[key] = value.strip()
    try:
        polys = {}
        for key in ("assembled", "stated"):
            poly, _, euler = fields[key].partition("  (euler ")
            polys[key] = parse_class_text(poly)
            if sum(polys[key]) != int(euler.rstrip(")")):
                problems.append(f"{key}: euler {euler} is not the coefficient sum")
        difference = parse_class_text(fields["difference"])
        matches = fields["matches stated value"]
    except (KeyError, ValueError) as exc:
        return problems + [f"unreadable output: {exc}"]
    if sum(polys["stated"]) != OMEGA26_STATED_EULER:
        problems.append(f"stated euler {sum(polys['stated'])} != {OMEGA26_STATED_EULER}")
    a, s = polys["assembled"], polys["stated"]
    n = max(len(a), len(s))
    want = [(a[i] if i < len(a) else 0) - (s[i] if i < len(s) else 0) for i in range(n)]
    while want and want[-1] == 0:
        want.pop()
    if difference != want:
        problems.append(f"difference {difference} != assembled - stated {want}")
    if matches != ("yes" if not want else "no"):
        problems.append(f"match flag {matches!r} with difference {want}")
    return problems


def eval_expectation(tree) -> dict:
    return {"at2": tree_value(tree, 2), "at3": tree_value(tree, 3),
            "degree": tree_degree(tree), "euler": tree_euler(tree)}


def check_eval(text: str, want: dict, result) -> list[str]:
    code, out = result
    if code != 0:
        return [f"{text}: exit status {code}"]
    doc = json.loads(out)
    cs = doc["class"]
    got = {"at2": sum(c * 2 ** i for i, c in enumerate(cs)),
           "at3": sum(c * 3 ** i for i, c in enumerate(cs)),
           "degree": doc["degree"], "euler": doc["euler"]}
    problems = [f"{text}: {key} {got[key]} != {want[key]}" for key in want if got[key] != want[key]]
    if doc["expr"] != text or len(cs) - 1 != doc["degree"] or sum(cs) != doc["euler"]:
        problems.append(f"{text}: inconsistent document {doc}")
    return problems


def classes(seed: int) -> list[Operation]:
    parsers = {"json": classes_from_json, "csv": classes_from_csv,
               "md": classes_from_markdown, "text": classes_from_text}
    ops = [
        Operation(f"verify --target all --format {fmt}",
                  lambda fmt=fmt: run_cli(["verify", "--target", "all", "--format", fmt]),
                  lambda result, parse=parse: check_verify(parse, result))
        for fmt, parse in parsers.items()
    ]
    ops.append(Operation("verify --target omega26",
                         lambda: run_cli(["verify", "--target", "omega26"]),
                         check_omega26_text))
    for text, tree in corpus.build(seed):
        ops.append(Operation(
            f"eval {text}",
            lambda text=text: run_cli(["eval", text, "--format", "json"]),
            lambda result, text=text, want=eval_expectation(tree): check_eval(text, want, result)))
    return ops


WORKLOADS = {"punctual": punctual, "subspaces": subspaces, "classes": classes}
