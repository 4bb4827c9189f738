"""Command-line front end.

Commands: ``eval`` (evaluate an expression), ``verify`` (assemble and check
the moduli classes), ``oracle`` (finite-field counting checks), ``report``
(combined document).  Exit codes: 0 all checks pass, 1 a mathematical
comparison failed, 2 usage, input or I/O error, a closed standard stream
included.  Long enumerations report
progress on standard error; standard output carries only the payload.

Every document is written here, from the data that :mod:`.strata` and
:mod:`.oracle` return: JSON by :func:`json_document`, CSV by
:func:`csv_table` and markdown tables by :func:`markdown_table`.  Each
``cmd_*`` function returns its document and exit status; :func:`main`
writes every document, to the ``-o`` path or standard output, and returns
every exit status but a usage error's.  The parser checks every argument,
each ``oracle`` option included, and a usage error leaves through
argparse's ``SystemExit(2)`` before any file is opened.

:data:`COMMANDS` states each command once: its help line, its ``cmd_*``
function and the function that adds its options.  A line that starts with a
command's name is read by that command's own parser, :func:`command_parser`;
the full parser, :func:`build_parser`, with a subparser per command, reads
any other line (none, ``-h``, an unknown command, an option before the
command) and a line whose command leaves arguments over, so its usage and
errors are printed as before.  Each parser is built the first time a line
needs it and reused by every later one in the process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from functools import lru_cache
from typing import Callable, NamedTuple

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


#: most field sizes one --q list may name; each adds a row per counter
MAX_Q_ITEMS = 100


def integer(text: str) -> int:
    """An integer as the expression language reads one: at most MAX_INT_DIGITS ASCII digits."""
    if not (text.isascii() and text.isdigit()) or len(text) > MAX_INT_DIGITS:
        raise ValueError(text)
    return int(text)


def _parse_qlist(raw: str) -> list[int]:
    """The field sizes of a --q list, as the parser reads the option."""
    parts = raw.split(",")
    if len(parts) > MAX_Q_ITEMS:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_Q_ITEMS} field sizes in a q list, got {len(parts)}")
    try:
        qs = [integer(part) for part in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad q list {raw!r}")
    seen = set()
    for q in qs:
        if q in seen:
            raise argparse.ArgumentTypeError(f"q {q} repeated in {raw!r}")
        seen.add(q)
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

def cmd_eval(args) -> tuple[str, int]:
    cls = evaluate(args.expr)
    if args.format == "json":
        doc = {
            "schema": 1,
            "expr": args.expr,
            "class": list(cls.coeffs),
            "degree": cls.degree,
            "euler": cls.euler(),
        }
        document = json_document(doc)
    else:
        lines = [str(cls),
                 f"coeffs: {list(cls.coeffs)}",
                 f"degree: {cls.degree}  euler: {cls.euler()}"]
        document = "\n".join(lines) + "\n"
    return document, 0


def cmd_verify(args) -> tuple[str, int]:
    if args.target == "all":
        reports, omega26 = verify_all()
    elif args.target == "omega26":
        reports, omega26 = (), omega26_assembled()
    else:
        reports, omega26 = (assemble(args.target),), None
    # the consistency comparison is informational and never alone forces a failure
    status = 0 if all(r.passed for r in reports) else 1
    return render_verification(reports, omega26, args.format), status


def cmd_oracle(args) -> tuple[str, int]:
    if args.check == "punctual":
        results = []
        for curve in CURVES:
            for c in range(1, args.max_colength + 1):
                for q in args.q:
                    print(f"counting {curve} colength {c} at q={q} ...", file=sys.stderr)
                    results.append(count_punctual_total_vs_table(curve, c, q))
    else:  # every bridge, or one counter's: gr or hilb2
        results = [run_bridge(b, q) for b in BRIDGES.values()
                   if args.check in ("bridges", b.counter) for q in args.q]
    for r in results:
        if r.skipped:
            print(f"skip {r.reason}", file=sys.stderr)
    status = 0 if all(r.passed or r.skipped for r in results) else 1
    return results_to_csv(results), status


def cmd_report(args) -> tuple[str, int]:
    reports, omega26 = verify_all()
    bridges = bridge_check_all([2, 3])
    rows = [result_fields(r) for r in bridges]
    if args.format == "json":
        doc = verification_dict(reports, omega26)
        doc["bridges"] = rows
        document = json_document(doc)
    else:
        table = markdown_table(list(rows[0]), [row.values() for row in rows])
        document = render_verification(reports, omega26, "md") + "\n# oracle bridges\n\n" + table
    ok = all(r.passed for r in reports) and all(r.passed or r.skipped for r in bridges)
    return document, 0 if ok else 1


# -- parsers ------------------------------------------------------------------

def _eval_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("expr")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _verify_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--target", choices=VERIFY_TARGETS, required=True)
    parser.add_argument("--format", choices=("json", "csv", "md", "text"), default="text")


def _oracle_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--check", choices=("gr", "punctual", "hilb2", "bridges"), required=True,
                        help="punctual: each germ's ideal counts against the row sums; "
                             "gr, hilb2: that counter's bridges; bridges: every bridge")
    parser.add_argument("--q", type=_parse_qlist, default="2,3",
                        help="comma-separated field sizes")
    parser.add_argument("--max-colength", type=integer, default=MAX_COLENGTH,
                        choices=range(1, MAX_COLENGTH + 1), metavar="MAX_COLENGTH",
                        help=f"count colengths 1 to MAX_COLENGTH, in 1..{MAX_COLENGTH} "
                             f"(default {MAX_COLENGTH}); only --check punctual reads it")


def _report_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "md"), default="md")


class Command(NamedTuple):
    """A command: its help line, the function that runs it and the function
    that adds its own options to a parser."""
    help: str
    func: Callable[[argparse.Namespace], tuple[str, int]]
    add_options: Callable[[argparse.ArgumentParser], None]


#: every command, by name, in the order the full parser lists them
COMMANDS = {
    "eval": Command("evaluate an expression to its class", cmd_eval, _eval_options),
    "verify": Command("assemble and check the moduli classes", cmd_verify, _verify_options),
    "oracle": Command("finite-field counting checks", cmd_oracle, _oracle_options),
    "report": Command("verification plus oracle summary", cmd_report, _report_options),
}


def _fill_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    command = COMMANDS[name]
    command.add_options(parser)
    # declared last, so each command's usage and help list it after the
    # command's own options
    parser.add_argument("-o", "--output", help="write the output to this file, not stdout")
    parser.set_defaults(func=command.func)
    return parser


@lru_cache(maxsize=None)
def command_parser(name: str) -> argparse.ArgumentParser:
    """One command's parser, as the full parser's subparser for it (same
    prog, so the same usage, help and errors), built on the command's first
    call and shared by later ones: parsing keeps no state in it."""
    return _fill_command(argparse.ArgumentParser(prog=f"motivecount {name}"), name)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The full parser, with a subparser for every command, built on the
    first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="motivecount",
        description="Exact motive classes of one-dimensional plane-sheaf moduli, "
                    "with finite-field certification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _fill_command(sub.add_parser(name, help=command.help), name)
    return parser


def parse_command_line(argv: list[str]) -> argparse.Namespace:
    """The arguments of a command line, as the full parser reads them.  A
    line that starts with a command's name is read by that command's parser
    alone; the full parser reads every other line, and a line whose command
    leaves arguments over, so that it prints its own usage and errors."""
    if argv and argv[0] in COMMANDS:
        args, extras = command_parser(argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return build_parser().parse_args(argv)


@contextlib.contextmanager
def _int_str_limit_lifted():
    """Lift the interpreter's int-to-str limit (PYTHONINTMAXSTRDIGITS) and
    restore the caller's value on leaving, however the block ends."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before Python 3.10.7: no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    # every integer is read with at most MAX_INT_DIGITS digits, so an int-to-str
    # limit would only stop an answer, say Gr(2,6) at q, printing
    with _int_str_limit_lifted():
        args = parse_command_line(sys.argv[1:] if argv is None else list(argv))
        try:
            if args.output is None and sys.stdout is None:  # started with stdout closed
                raise OSError("standard output is closed")
            # opened first, as by the shell's >: a command that then fails leaves it empty
            with (contextlib.nullcontext(sys.stdout) if args.output is None
                  else open(args.output, "w", encoding="utf-8")) as out:
                document, status = args.func(args)
                out.write(document)
            return status
        except ParseError as exc:
            message = (f"SyntaxError at offset {exc.offset}: expected {', '.join(exc.expected)}, "
                       f"found {exc.found}")
        except ArityError as exc:
            message = f"ArityError: {exc}"
        except (Unsupported, NotEffective, OSError) as exc:
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
