"""Command-line front end.

Commands: ``eval`` (evaluate an expression), ``verify`` (assemble and check
the moduli classes), ``oracle`` (finite-field counting checks), ``report``
(combined document).  Exit codes: 0 all checks pass, 1 a mathematical
comparison failed, 2 usage, input or I/O error, a closed standard stream
included.  Long enumerations report
progress on standard error; standard output carries only the payload.

Every document is written here, from the data that :mod:`.strata` and
:mod:`.oracle` return: JSON by :func:`json_document`, CSV by
:func:`csv_table` and markdown tables by :func:`markdown_table`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .atoms import Unsupported
from .dsl import MAX_INT_DIGITS, ArityError, ParseError, evaluate
from .motive import NotEffective
from .oracle import (
    BRIDGES,
    CURVES,
    MAX_COLENGTH,
    FqCountResult,
    bridge_check_all,
    count_punctual_total_vs_table,
    run_bridge,
)
from .strata import (
    TARGETS,
    ConsistencyReport,
    VerificationReport,
    assemble,
    omega26_assembled,
    verify_all,
)

VERIFY_TARGETS = TARGETS + ("omega26", "all")


class UsageError(Exception):
    pass


def _write(text: str, path: str | None) -> None:
    if path is None:
        if sys.stdout is None:  # started with standard output closed
            raise OSError("standard output is closed")
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_qlist(raw: str) -> list[int]:
    try:
        qs = [int(part) for part in raw.split(",")]
    except ValueError:
        raise UsageError(f"bad q list {raw!r}")
    if any(q not in (2, 3, 4) for q in qs):
        raise UsageError(f"q must be from {{2,3,4}}, got {raw!r}")
    for i, q in enumerate(qs):
        if q in qs[:i]:
            raise UsageError(f"q {q} repeated in {raw!r}")
    return qs


# -- writers ------------------------------------------------------------------

def json_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def csv_table(header, rows) -> str:
    """A CSV table, a None cell empty and each row ended by "\\n"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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


# -- verification documents ---------------------------------------------------

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
        return json_document(verification_dict(reports, omega26))
    if fmt == "csv":
        if not every_target:
            cls = (reports[0] if reports else omega26).assembled
            return csv_table(("i", "b_2i"), enumerate(cls.coeffs))
        return csv_table(("target", "i", "b_2i"), ((r.target, i, b) for r in reports
                                                   for i, b in enumerate(r.assembled.coeffs)))
    if fmt == "md":
        return "\n".join([report_markdown(r) for r in reports]
                         + [consistency_markdown(c) for c in consistency])
    return "".join([report_text(r) for r in reports] + [consistency_text(c) for c in consistency])


# -- oracle rows --------------------------------------------------------------

#: an oracle row's columns, in order: attributes of :class:`FqCountResult`
_COLUMNS = ("counter", "q", "params", "count", "expected", "status")


def result_fields(r: FqCountResult) -> dict[str, object]:
    """One oracle row's columns by name, in order, as every report prints
    them; a skipped row's count is ``None``."""
    return {name: getattr(r, name) for name in _COLUMNS}


def results_to_csv(results) -> str:
    """Oracle rows as CSV: the columns of :func:`result_fields` (status headed
    ``pass``, a skipped count empty), then the count's time in ms."""
    header = ["pass" if name == "status" else name for name in _COLUMNS] + ["millis"]
    return csv_table(header, ([*result_fields(r).values(), f"{r.millis:.1f}"] for r in results))


# -- commands -----------------------------------------------------------------

def cmd_eval(args) -> int:
    cls = evaluate(args.expr)
    if args.format == "json":
        doc = {
            "schema": 1,
            "expr": args.expr,
            "class": list(cls.coeffs),
            "degree": cls.degree,
            "euler": cls.euler(),
        }
        _write(json_document(doc), args.output)
    else:
        lines = [str(cls),
                 f"coeffs: {list(cls.coeffs)}",
                 f"degree: {cls.degree}  euler: {cls.euler()}"]
        _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_verify(args) -> int:
    if args.target == "all":
        reports, omega26 = verify_all()
    elif args.target == "omega26":
        reports, omega26 = (), omega26_assembled()
    else:
        reports, omega26 = (assemble(args.target),), None
    _write(render_verification(reports, omega26, args.format), args.output)
    # the consistency comparison is informational and never alone forces a failure
    return 0 if all(r.passed for r in reports) else 1


def cmd_oracle(args) -> int:
    qs = _parse_qlist(args.q)
    if not 1 <= args.max_colength <= MAX_COLENGTH:
        raise UsageError(f"max-colength must be in 1..{MAX_COLENGTH}")
    if args.check == "punctual":
        results = []
        for curve in CURVES:
            for c in range(1, args.max_colength + 1):
                for q in qs:
                    print(f"counting {curve} colength {c} at q={q} ...", file=sys.stderr)
                    results.append(count_punctual_total_vs_table(curve, c, q))
    elif args.check == "bridges":
        results = bridge_check_all(qs)
    else:  # one counter's bridges: gr or hilb2
        results = [run_bridge(b, q) for b in BRIDGES.values() if b.counter == args.check
                   for q in qs]
    for r in results:
        if r.skipped:
            print(f"skip {r.reason}", file=sys.stderr)
    _write(results_to_csv(results), args.output)
    return 0 if all(r.passed or r.skipped for r in results) else 1


def cmd_report(args) -> int:
    reports, omega26 = verify_all()
    bridges = bridge_check_all([2, 3])
    rows = [result_fields(r) for r in bridges]
    if args.format == "json":
        doc = verification_dict(reports, omega26)
        doc["bridges"] = rows
        _write(json_document(doc), args.output)
    else:
        table = markdown_table(list(rows[0]), [row.values() for row in rows])
        _write(render_verification(reports, omega26, "md") + "\n# oracle bridges\n\n" + table,
               args.output)
    ok = all(r.passed for r in reports) and all(r.passed or r.skipped for r in bridges)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motivecount",
        description="Exact motive classes of one-dimensional plane-sheaf moduli, "
                    "with finite-field certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression to its class")
    p_eval.add_argument("expr")
    p_eval.add_argument("--format", choices=("text", "json"), default="text")
    p_eval.add_argument("-o", "--output", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="assemble and check the moduli classes")
    p_verify.add_argument("--target", choices=VERIFY_TARGETS, required=True)
    p_verify.add_argument("--format", choices=("json", "csv", "md", "text"), default="text")
    p_verify.add_argument("-o", "--output", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="finite-field counting checks")
    p_oracle.add_argument("--check", choices=("gr", "punctual", "hilb2", "bridges"),
                          required=True)
    p_oracle.add_argument("--q", default="2,3", help="comma-separated field sizes")
    p_oracle.add_argument("--max-colength", type=int, default=MAX_COLENGTH)
    p_oracle.add_argument("-o", "--output", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_report = sub.add_parser("report", help="verification plus oracle summary")
    p_report.add_argument("--format", choices=("json", "md"), default="md")
    p_report.add_argument("-o", "--output", default=None)
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    # the parser bounds every integer to MAX_INT_DIGITS digits, so a lower
    # int-to-str limit (PYTHONINTMAXSTRDIGITS) would only stop an admitted
    # answer from printing; Python before 3.10.7 has no such limit
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < MAX_INT_DIGITS:
        sys.set_int_max_str_digits(MAX_INT_DIGITS)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        message = (f"SyntaxError at offset {exc.offset}: expected {', '.join(exc.expected)}, "
                   f"found {exc.found}")
    except ArityError as exc:
        message = f"ArityError: {exc}"
    except (Unsupported, NotEffective, UsageError, OSError) as exc:
        message = f"error: {exc}"
    except RecursionError:
        message = "error: expression nested too deeply"
    try:
        print(message, file=sys.stderr)
    except OSError:  # standard error is closed too
        pass
    return 2


if __name__ == "__main__":
    sys.exit(main())
