"""Command-line front end.

Commands: ``eval`` (evaluate an expression), ``verify`` (assemble and check
the moduli classes), ``oracle`` (finite-field counting checks), ``report``
(combined document).  Exit codes: 0 all checks pass, 1 a mathematical
comparison failed, 2 usage, input or I/O error, a closed standard stream
included.  Long enumerations report
progress on standard error; standard output carries only the payload.
"""

from __future__ import annotations

import argparse
import json
import sys

from .atoms import Unsupported
from .dsl import MAX_INT_DIGITS, ArityError, ParseError, evaluate
from .motive import NotEffective
from .oracle import (
    BRIDGES,
    CURVES,
    MAX_COLENGTH,
    bridge_check_all,
    count_punctual_total_vs_table,
    result_fields,
    results_to_csv,
    run_bridge,
)
from .strata import (
    TARGETS,
    assemble,
    markdown_table,
    omega26_assembled,
    render_verification,
    verification_dict,
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
        _write(json.dumps(doc, indent=2) + "\n", args.output)
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
        _write(json.dumps(doc, indent=2) + "\n", args.output)
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
