"""Command-line front end.

Commands: ``eval`` (evaluate an expression), ``verify`` (assemble and check
the moduli classes), ``oracle`` (finite-field counting checks), ``report``
(combined document).  Exit codes: 0 all checks pass, 1 a mathematical
comparison failed, 2 usage or input error.  Long enumerations report
progress on standard error; standard output carries only the payload.
"""

from __future__ import annotations

import argparse
import json
import sys

from .atoms import OutOfRange, Unsupported
from .dsl import ArityError, ParseError, evaluate
from .motive import NotEffective
from .oracle import (
    BRIDGES,
    CURVES,
    MAX_COLENGTH,
    bridge_check_all,
    count_punctual_total_vs_table,
    results_to_csv,
    run_bridge,
)
from .strata import (
    TARGETS,
    assemble,
    omega26_assembled,
    render_verification,
    suite_to_dict,
    verify_all,
)

VERIFY_TARGETS = TARGETS + ("omega26", "all")


class UsageError(Exception):
    pass


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_qlist(raw: str) -> list[int]:
    try:
        qs = [int(part) for part in raw.split(",") if part]
    except ValueError:
        raise UsageError(f"bad q list {raw!r}")
    if not qs or any(q not in (2, 3, 4) for q in qs):
        raise UsageError(f"q must be from {{2,3,4}}, got {raw!r}")
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
        suite = verify_all()
        reports, omega26 = suite.reports, suite.omega26
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
    suite = verify_all()
    bridges = bridge_check_all([2, 3])
    if args.format == "json":
        doc = suite_to_dict(suite)
        doc["bridges"] = [
            {"counter": r.counter, "q": r.q, "params": r.params,
             "count": r.count, "expected": r.expected, "status": r.status}
            for r in bridges
        ]
        _write(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        lines = ["# oracle bridges", "", "| counter | q | params | count | expected | status |",
                 "|---|---:|---|---:|---:|---|"]
        lines += [f"| {r.counter} | {r.q} | {r.params} | {r.count} | {r.expected} | {r.status} |"
                  for r in bridges]
        _write(render_verification(suite.reports, suite.omega26, "md") + "\n"
               + "\n".join(lines) + "\n", args.output)
    ok = suite.passed and all(r.passed or r.skipped for r in bridges)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"SyntaxError at offset {exc.offset}: expected {', '.join(exc.expected)}, "
              f"found {exc.found}", file=sys.stderr)
        return 2
    except ArityError as exc:
        print(f"ArityError: {exc}", file=sys.stderr)
        return 2
    except (Unsupported, OutOfRange, NotEffective, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
