"""Command-line interface: exit codes, formats, determinism."""

import argparse
import csv
import errno
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import motivecount
import motivecount.cli
import motivecount.oracle
from motivecount.atoms import grassmannian
from motivecount.cli import COMMANDS, build_parser, command_parser, main
from motivecount.dsl import MAX_DEGREE, MAX_INT_DIGITS, Sum, format_expr, parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv):
    """Run a command line the parser rejects: its exit code, stdout and stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def unlimited_str(n: int) -> str:
    """str(n), with the interpreter's int-to-str limit lifted for the call."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(old)


def test_eval_point(capsys):
    code, out, _ = run(capsys, "eval", "P0")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_eval_assembly(capsys):
    code, out, _ = run(capsys, "eval",
                       "(Hilb3 - P2*P3)*P11 + P2*(P11-P1) + P2*P13")
    assert code == 0
    assert "euler: 192" in out
    assert "coeffs: [1, 2, 6, 10, 14, 15, 16, 16, 16, 16, 16, 16, 15, 14, 10, 6, 2, 1]" in out


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "Gr(2,4)", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["class"] == [1, 1, 2, 1, 1]
    assert doc["euler"] == 6


def test_eval_syntax_error(capsys):
    code, _, err = run(capsys, "eval", "Gr(2,")
    assert code == 2
    assert "SyntaxError at offset 5" in err


@pytest.mark.parametrize("expr,err", [
    ("", "SyntaxError at offset 0: expected 'L', 'A', 'P', 'Gr', 'Hilb', 'Lin', 'C', "
         "'Omega', 'Sym', integer, '(', found end of input\n"),
    ("Lin(0)", "error: linear_system requires degree >= 1, got 0\n"),
    ("C(0)", "error: universal_curve requires degree >= 1, got 0\n"),
    # a character outside the grammar is a wrong token like any other
    ("P\u00b2", "SyntaxError at offset 1: expected integer, found \u00b2\n"),
    ("P1 $", "SyntaxError at offset 3: expected '+', '-', '*', '^', end of input, found $\n"),
    ("P$", "SyntaxError at offset 1: expected integer, found $\n"),
    ("Gr(2$", "SyntaxError at offset 4: expected ',', found $\n"),
    ("$", "SyntaxError at offset 0: expected 'L', 'A', 'P', 'Gr', 'Hilb', 'Lin', 'C', "
          "'Omega', 'Sym', integer, '(', found $\n"),
    ("P1 \x1b", "SyntaxError at offset 3: expected '+', '-', '*', '^', end of input, "
                "found '\\x1b'\n"),
    ("Sym2(1-L)", "error: non-effective class 1 - L: Sym is defined here only for "
                  "effective classes\n"),
    # a factor takes one exponent, so '^' is not expected after one
    ("P1^2^2", "SyntaxError at offset 4: expected '+', '-', '*', end of input, found ^\n"),
    ("(P1)^2^3", "SyntaxError at offset 6: expected '+', '-', '*', end of input, found ^\n"),
    ("Sym2(P1)^2^2", "SyntaxError at offset 10: expected '+', '-', '*', end of input, "
                     "found ^\n"),
    # inside parentheses every operator may come before the ')'
    ("(P1 3", "SyntaxError at offset 4: expected '+', '-', '*', '^', ')', found 3\n"),
    ("(P1^2 3", "SyntaxError at offset 6: expected '+', '-', '*', ')', found 3\n"),
    ("Sym2(P1 3", "SyntaxError at offset 8: expected '+', '-', '*', '^', ')', found 3\n"),
])
def test_eval_bad_input_exits_2(capsys, expr, err):
    code, out, got = run(capsys, "eval", expr)
    assert (code, out, got) == (2, "", err)


_DSL_TOKENS = st.one_of(
    st.sampled_from(["L", "A", "P", "Gr", "Hilb", "Lin", "C", "Omega", "Sym",
                     "(", ")", ",", "+", "-", "*", "^", " "]),
    st.integers(0, 250).map(str),
)

_EVAL_TEXT = st.one_of(
    st.text(alphabet="0123456789LAPGrHilbnCOmegaSy(),+-*^\u00b2x ", max_size=30),
    st.lists(_DSL_TOKENS, max_size=12).map(lambda tokens: "".join(tokens)[:30]),
)


@settings(max_examples=300, deadline=None)
@given(_EVAL_TEXT)
def test_eval_any_text_exits_0_1_or_2(text):
    """Every input gets an answer or exit 2 with a message, never a
    traceback.  A leading '-' may be read as an option, and argparse then
    exits 2 itself."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["eval", text])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (text, code)
    assert bool(out.getvalue()) == (code == 0) and bool(err.getvalue()) == (code == 2), text


@pytest.mark.parametrize("expr,offset", [
    ("P" + "9" * 5000, 1),
    ("7" * 5000, 0),
    ("L^" + "2" * 5000, 2),
    ("Sym" + "2" * 5000 + "(P1)", 3),
], ids=["atom-parameter", "literal", "exponent", "sym-order"])
def test_eval_long_integer_literal_exits_2(capsys, expr, offset):
    code, out, err = run(capsys, "eval", expr)
    assert (code, out) == (2, "")
    assert err == (f"SyntaxError at offset {offset}: expected integer of at most "
                   f"{MAX_INT_DIGITS} digits, found 5000 digits\n")


def test_eval_arity_error(capsys):
    code, _, err = run(capsys, "eval", "Gr(5,2)")
    assert code == 2
    assert "ArityError" in err


TOO_LONG = "expression too large"
DIGITS = f"a coefficient may have more than {MAX_INT_DIGITS} digits"


@pytest.mark.parametrize("expr,message", [
    ("Gr(1000,1000)", "bad atom parameters at offset 0: Gr(1000,1000) has a parameter over 200"),
    ("Gr(200,200)", None),
    ("Gr(100,200)", "expression too large at offset 0: degree 10000 is over 200"),
    ("P99999999", "bad atom parameters at offset 0: P99999999 has a parameter over 200"),
    ("Sym 200(P5)", "expression too large at offset 0: degree 1000 is over 200"),
    ("Sym 201(1)", "expression too large at offset 4: Sym order 201 is over 200"),
    ("L^201", "expression too large at offset 2: exponent 201 is over 200"),
    ("1 + P100*P100*L", "expression too large at offset 4: degree 201 is over 200"),
    ("(P2*P3)^41", "expression too large at offset 0: degree 205 is over 200"),
    ("Hilb101", "expression too large at offset 0: degree 202 is over 200"),
    ("((2^200)^200)^200", f"{TOO_LONG} at offset 1: {DIGITS}"),
    ("(((2^200)^200)^200)^200", f"{TOO_LONG} at offset 2: {DIGITS}"),
    ("Sym 200(Sym 200(Sym 200(2)))", f"{TOO_LONG} at offset 0: {DIGITS}"),
], ids=["gr-param", "gr-degree-0", "gr-degree", "p-param", "sym-degree", "sym-order",
        "exponent", "product", "power", "hilb-degree", "power-of-power",
        "power-of-power-of-power", "sym-of-sym"])
def test_eval_over_degree_cap_exits_2_fast(capsys, expr, message):
    """Each input gets its answer or exit 2 within a second."""
    assert MAX_DEGREE == 200
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", expr)
    assert time.perf_counter() - start < 1.0
    if message is None:
        assert (code, err) == (0, "") and out.startswith("1\n")
    else:
        assert (code, out, err) == (2, "", f"ArityError: {message}\n")


def test_eval_long_sum_exits_0_fast(capsys):
    """The parser builds a flat sum once: 100,000 terms take about 1 s, where
    rebuilding the sum at every '+' took about 30 s (Python 3.11, 2-vCPU VM)."""
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "+".join(["1"] * 100_000))
    assert time.perf_counter() - start < 5.0
    assert (code, err) == (0, "") and out.startswith("100000\n")


NINES = "9" * MAX_INT_DIGITS


@pytest.mark.parametrize("expr,offset", [
    ("(2^200)^17", 0),
    ("1+" + NINES, 0),
    ("P1*(L-" + NINES + ")", 4),
    (NINES + "*2", 0),
    ("Sym2(" + NINES + ")", 0),
], ids=["power", "sum", "difference", "product", "sym"])
def test_eval_coefficient_over_literal_limit_exits_2(capsys, expr, offset):
    """A coefficient may have as many digits as an integer literal, no more."""
    code, out, err = run(capsys, "eval", expr)
    assert (code, out, err) == (2, "", f"ArityError: {TOO_LONG} at offset {offset}: {DIGITS}\n")


@pytest.mark.parametrize("expr,largest", [
    ("(2^200)^16", 2 ** 3200),
    (NINES + "*L", int(NINES)),
    ("Sym2(" + "9" * (MAX_INT_DIGITS // 2 - 1) + ")", None),
], ids=["power", "product", "sym"])
def test_eval_coefficient_at_literal_limit(capsys, expr, largest):
    code, out, err = run(capsys, "eval", expr)
    assert (code, err) == (0, "")
    coeffs = json.loads(out.splitlines()[1].removeprefix("coeffs: "))
    assert len(str(max(coeffs))) <= MAX_INT_DIGITS
    if largest is not None:
        assert max(coeffs) == largest


@pytest.mark.parametrize("expr,answer,terms", [
    ("-".join(["1"] * 2000), "-1998", 2000),
    ("P1" + "".join("+P1" if i % 2 else "-P1" for i in range(1, 5000)), "2 + 2*L", 5000),
], ids=["difference-chain", "alternating-chain"])
def test_eval_flat_chain(capsys, expr, answer, terms):
    """A flat chain of '+' and '-' of any length is one Sum node, which
    evaluates, prints, compares and hashes without recursing."""
    code, out, err = run(capsys, "eval", expr)
    assert (code, err) == (0, "") and out.splitlines()[0] == answer
    tree = parse(expr)
    assert isinstance(tree, Sum) and len(tree.terms) == terms
    assert tree == parse(expr) and hash(tree) == hash(parse(expr))
    assert repr(tree).startswith("Sum(terms=((1, ")
    assert format_expr(tree) == expr


@pytest.mark.parametrize("expr", [
    "(" * 300 + "1" + ")" * 300,
    "Sym1(" * 300 + "P1" + ")" * 300,
], ids=["parentheses", "sym1"])
def test_eval_nested_too_deeply(capsys, expr):
    code, out, err = run(capsys, "eval", expr)
    assert code == 2 and out == ""
    assert err == "error: expression nested too deeply\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int-to-str conversion")
def test_eval_under_a_low_int_string_limit(capsys):
    """An interpreter limit on int-to-str conversion below MAX_INT_DIGITS
    (PYTHONINTMAXSTRDIGITS=640, the lowest allowed) does not stop an
    admitted literal or coefficient from printing."""
    literal = "9" * 700
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        literal_run = run(capsys, "eval", literal)
        # main lifts the limit only while it runs
        assert sys.get_int_max_str_digits() == 640
        sym_run = run(capsys, "eval", "Sym 200(1872486*P1)", "--format", "json")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(old)
    code, out, err = literal_run
    assert (code, err) == (0, "") and out.splitlines()[0] == literal
    code, out, err = sym_run
    assert (code, err) == (0, "")
    assert len(str(max(json.loads(out)["class"]))) > 640


@pytest.mark.parametrize("destination", ["unwritable -o", "closed stdout"])
def test_destination_checked_before_the_command_runs(tmp_path, monkeypatch, destination):
    """An unwritable -o path or a closed standard output exits 2 before any
    counting: no progress line reaches standard error."""
    argv = ["oracle", "--check", "punctual", "--q", "2", "--max-colength", "6"]
    if destination == "closed stdout":
        monkeypatch.setattr(sys, "stdout", None)
    else:
        argv += ["-o", str(tmp_path / "missing" / "x")]
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert err.getvalue().startswith("error: ") and "counting" not in err.getvalue()


def test_failed_command_leaves_an_empty_output_file(tmp_path, capsys):
    """-o is opened before the command runs, as the shell's > is."""
    path = tmp_path / "out"
    path.write_text("old", encoding="utf-8")
    assert run(capsys, "eval", "Lin(0)", "-o", str(path))[0] == 2
    assert path.read_bytes() == b""


def test_closed_stdout_exits_2(monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["eval", "P1"])
    assert (code, err.getvalue()) == (2, "error: standard output is closed\n")


class _ClosedStream(io.StringIO):
    """A stream whose file descriptor is closed: every write fails."""

    def write(self, text):
        raise OSError(errno.EBADF, "Bad file descriptor")


@pytest.mark.parametrize("argv", [
    ["oracle", "--check", "punctual", "--q", "2", "--max-colength", "1"],
    ["eval", "P\u00b2"],
], ids=["oracle-progress", "eval-error"])
def test_closed_stderr_exits_2(capsys, argv):
    with redirect_stderr(_ClosedStream()):
        code = main(argv)
    assert (code, capsys.readouterr().out) == (2, "")


def test_eval_unsupported(capsys):
    code, _, err = run(capsys, "eval", "Omega(3,10)")
    assert code == 2
    assert "error" in err


def test_verify_m41_markdown(capsys):
    code, out, _ = run(capsys, "verify", "--target", "m41", "--format", "md")
    assert code == 0
    assert "| 0 | 1 |" in out and "| 17 | 1 |" in out
    assert "Euler number: 192" in out


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify", "--target", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert [r["target"] for r in doc["reports"]] == ["m11", "m21", "m31", "m41", "m51", "m52"]
    assert all(r["pass"] for r in doc["reports"])
    assert doc["omega26_consistency"]["matches_stated"] is False
    assert doc["pass"] is True


def test_verify_json_byte_stable(capsys):
    _, first, _ = run(capsys, "verify", "--target", "all", "--format", "json")
    _, second, _ = run(capsys, "verify", "--target", "all", "--format", "json")
    assert first == second


def test_verify_omega26_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--target", "omega26")
    assert code == 0  # informational only
    assert "matches stated value: no" in out


def test_verify_omega26_csv(capsys):
    code, out, _ = run(capsys, "verify", "--target", "omega26", "--format", "csv")
    assert code == 0
    betti = [1, 3, 8, 21, 39, 57, 62, 52, 33, 15, 5, 1]  # the assembled class, euler 297
    assert out.splitlines() == ["i,b_2i"] + [f"{i},{b}" for i, b in enumerate(betti)]


@pytest.mark.parametrize("fmt", ["json", "csv", "md", "text"])
def test_verify_all_composes_targets_and_omega26(capsys, fmt):
    parts = {t: run(capsys, "verify", "--target", t, "--format", fmt)[1]
             for t in ("m11", "m21", "m31", "m41", "m51", "m52", "omega26")}
    targets, omega26 = [parts[t] for t in parts if t != "omega26"], parts["omega26"]
    code, out, _ = run(capsys, "verify", "--target", "all", "--format", fmt)
    assert code == 0
    if fmt == "json":
        reports = [r for doc in targets for r in json.loads(doc)["reports"]]
        want = {"schema": 1, "reports": reports,
                "omega26_consistency": json.loads(omega26)["omega26_consistency"],
                "pass": all(r["pass"] for r in reports)}
        assert out == json.dumps(want, indent=2) + "\n"
    elif fmt == "csv":  # keyed by target; the consistency report has no rows here
        rows = [f"{t},{row}" for t, doc in zip(parts, targets)
                for row in doc.splitlines()[1:]]
        assert out.splitlines() == ["target,i,b_2i"] + rows
    elif fmt == "md":
        assert out == "\n".join(targets + [omega26])
    else:
        assert out == "".join(targets + [omega26])


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--target", "m21", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "i,b_2i"
    assert out.splitlines()[1] == "0,1"


def test_verify_unknown_target():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--target", "m99"])
    assert err.value.code == 2


def _untimed(text):
    """Oracle rows with the millis column cut off."""
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


@pytest.mark.parametrize("argv", [
    "eval P2 --format json",
    "verify --target all --format json",
    "verify --target m41 --format md",
    "oracle --check gr --q 2",
    "oracle --check punctual --q 2,3 --max-colength 4",
    "report --format json",
])
def test_output_file(tmp_path, capsys, argv):
    """Every command's -o writes the bytes it would print and prints
    nothing; a path it cannot open exits 2 with a message."""
    code, printed, _ = run(capsys, *argv.split())
    assert code == 0
    path = tmp_path / "out"
    code, out, _ = run(capsys, *argv.split(), "-o", str(path))
    assert code == 0 and out == ""
    written = path.read_bytes().decode("utf-8")
    if argv.startswith("oracle"):  # the millis column varies by run
        written, printed = _untimed(written), _untimed(printed)
    assert written == printed
    if argv == "verify --target all --format json":
        assert len(json.loads(written)["reports"]) == 6
    code, out, err = run(capsys, *argv.split(), "-o", str(tmp_path / "missing" / "x"))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command,usage", [
    ("eval", "[-h] [--format {text,json}] [-o OUTPUT] expr"),
    ("verify", "[-h] --target {m11,m21,m31,m41,m51,m52,omega26,all} "
               "[--format {json,csv,md,text}] [-o OUTPUT]"),
    ("oracle", "[-h] --check {gr,punctual,hilb2,bridges} [--q Q] "
               "[--max-colength MAX_COLENGTH] [-o OUTPUT]"),
    ("report", "[-h] [--format {json,md}] [-o OUTPUT]"),
])
def test_usage_lists_output_last(capsys, monkeypatch, command, usage):
    """-o is declared once for every command, after the command's own
    options, so usage and help text list it last."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == f"usage: motivecount {command} {usage}"


def test_oracle_help_describes_every_option(capsys, monkeypatch):
    """oracle --help gives each option a help line; --max-colength names its
    range, which its metavar hides, and the one check that reads it."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as err:
        main(["oracle", "--help"])
    assert err.value.code == 0
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert ("count colengths 1 to MAX_COLENGTH, in 1..6 (default 6); "
            "only --check punctual reads it") in lines
    assert "write the output to this file, not stdout" in lines
    check = lines.index("--check {gr,punctual,hilb2,bridges}")
    assert lines[check + 1].startswith("punctual: each germ's ideal counts against the row sums")


def test_parser_built_once():
    assert build_parser() is build_parser()
    assert command_parser("eval") is command_parser("eval")


def _clear_parsers():
    build_parser.cache_clear()
    command_parser.cache_clear()


def test_import_builds_no_parser():
    """Importing the command line builds nothing: each parser waits for the
    first main call that needs it."""
    package_root = Path(motivecount.__file__).resolve().parents[1]
    probe = ("import motivecount.cli as c; "
             "print(c.build_parser.cache_info().currsize, c.command_parser.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(package_root)}, check=True)
    assert done.stdout == "0 0\n"


def test_command_line_builds_only_its_parser(capsys, monkeypatch):
    """A line that starts with a command builds that command's parser alone;
    any other line builds the full parser, one subparser per command."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    _clear_parsers()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    assert run(capsys, "eval", "P2")[0] == 0
    assert built == ["motivecount eval"]
    built.clear()
    assert run_usage_error(capsys, "bogus")[0] == 2
    assert built == ["motivecount"] + [f"motivecount {name}" for name in COMMANDS]


#: help, usage errors, lines only the full parser reads, abbreviations and
#: each way of giving an option its value
DISPATCH_LINES = [
    [], ["-h"], ["bogus"], ["Eval", "P1"], ["--", "eval", "P1"], ["-o", "x", "eval", "P1"],
    *([name, "--help"] for name in COMMANDS),
    ["eval", "P1", "extra"], ["verify", "--target", "m11", "x"], ["eval", "P2", "P3"],
    ["eval", "P1", "--bogus"], ["eval", "P1", "--", "extra"],
    ["eval", "P1", "--format", "yaml"], ["report", "--format", "txt"],
    ["verify", "--target", "m99"], ["oracle", "--check", "gr", "--q", "2,,3"],
    ["oracle", "--check", "punctual", "--max-colength", "7"],
    ["eval", "P1", "--form", "json"], ["eval", "P1", "--format=json"],
    ["oracle", "--check", "gr", "--q", "2", "--max", "3"], ["oracle", "--check=gr", "--q=2", "--he"],
    ["eval", "--", "-1"], ["eval", "-1"], ["eval", "P1", "-o"], ["eval", "-h", "P1"], ["verify"],
    ["eval", "P1", "-oout.txt"], ["--help", "eval"],
]


def _outcome(capsys, cwd, argv):
    """What main(argv) does: its exit status, returned or raised, its stdout
    and stderr, and the files it writes (an oracle row's timing cut off)."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    files = {}
    for path in sorted(cwd.iterdir()):
        files[path.name] = path.read_text(encoding="utf-8")
        path.unlink()
    out = _untimed(captured.out) if argv[:1] == ["oracle"] else captured.out
    return status, out, captured.err, files


@pytest.mark.parametrize("argv", DISPATCH_LINES, ids=lambda argv: shlex.join(argv) or "(none)")
def test_dispatch_answers_as_the_full_parser(capsys, monkeypatch, tmp_path, argv):
    """main does for every line what it did when the full parser read each
    one: the same exit status, output, messages and files."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    dispatched = _outcome(capsys, tmp_path, argv)
    monkeypatch.setattr(motivecount.cli, "parse_command_line",
                        lambda argv: build_parser().parse_args(argv))
    assert dispatched == _outcome(capsys, tmp_path, argv)


def test_import_leaves_out_dataclasses():
    """The package defines its records without dataclasses, whose import is
    most of the package's own import time: a fresh interpreter that imports
    the package and the command line has not loaded it."""
    package_root = str(Path(motivecount.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {package_root!r}); "
             "import motivecount, motivecount.cli; print('dataclasses' in sys.modules)")
    done = subprocess.run([sys.executable, "-E", "-s", "-c", probe], capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"


@pytest.mark.parametrize("module", [motivecount, motivecount.oracle],
                         ids=lambda module: module.__name__)
def test_public_names_resolve(module):
    """Every name in a module's __all__ is one of its attributes, listed once."""
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_shared_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    """A usage error or --help leaves the shared parser as it was: the same
    command prints the same bytes as on the call that built the parser."""
    monkeypatch.setenv("COLUMNS", "80")
    _clear_parsers()
    first = run(capsys, "eval", "P2", "--format", "json")
    with pytest.raises(SystemExit) as err:
        main(["eval", "P2", "--format", "yaml"])
    assert err.value.code == 2 and capsys.readouterr().out == ""
    assert run(capsys, "eval", "P2", "--format", "json") == first

    _clear_parsers()
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--help"])
        assert err.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1] and helps[0].out.startswith("usage: motivecount eval ")


def test_oracle_gr(capsys):
    code, out, _ = run(capsys, "oracle", "--check", "gr", "--q", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "counter,q,params,count,expected,pass,millis"
    assert any(line.startswith('gr,2,"(2,6)",651,651,pass,') for line in lines)


def test_oracle_gr_every_field_size(capsys):
    code, out, err = run(capsys, "oracle", "--check", "gr", "--q", "2,3,4")
    assert (code, err) == (0, "")
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["counter", "q", "params", "count", "expected", "pass", "millis"]
    assert len(rows) == 15
    assert {row[0] for row in rows} == {"gr"} and {row[1] for row in rows} == {"2", "3", "4"}
    assert all(row[5] == "pass" and row[3] == row[4] for row in rows)


def test_oracle_hilb2(capsys):
    code, out, _ = run(capsys, "oracle", "--check", "hilb2", "--q", "2,3")
    assert code == 0
    assert any(",49,49,pass," in line for line in out.splitlines())
    assert any(",169,169,pass," in line for line in out.splitlines())


def test_oracle_punctual_small(capsys):
    code, out, err = run(capsys, "oracle", "--check", "punctual", "--q", "2",
                         "--max-colength", "4")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 8  # two curves x four colengths
    assert all(",pass," in row for row in rows)
    assert "counting" in err  # progress goes to standard error


def test_oracle_punctual_reports_known_defect(capsys):
    code, out, _ = run(capsys, "oracle", "--check", "punctual", "--q", "2",
                       "--max-colength", "5")
    assert code == 1  # the double-line colength-5 rows over-count; see tables module
    rows = out.splitlines()[1:]
    assert len(rows) == 10
    assert sum(",fail," in row for row in rows) == 1
    assert any(row.startswith("punctual,2,ribbon:5,7,9,fail,") for row in rows)


def test_oracle_counts_every_colength_at_q13(capsys):
    code, out, err = run(capsys, "oracle", "--check", "punctual", "--q", "13",
                         "--max-colength", "6")
    assert code == 1  # ribbon colength 5 fails (README caveat 2)
    rows = out.splitlines()[1:]
    assert len(rows) == 12
    assert not any(",skip," in row for row in rows)
    assert not any(line.startswith("skip ") for line in err.splitlines())
    assert [row.rsplit(",", 1)[0] for row in rows if ",fail," in row] == [
        "punctual,13,ribbon:5,183,339,fail"]


def test_oracle_bridges_unsupported_q_skips(capsys):
    code, out, err = run(capsys, "oracle", "--check", "bridges", "--q", "2,4")
    assert code == 0  # cells at a field size their counter lacks are skipped
    rows = out.splitlines()[1:]
    assert len(rows) == 32  # 16 bridges x 2 field sizes
    skips = [row for row in rows if ",skip," in row]
    assert len(skips) == 10 and all(row.startswith(("hilb2,4,", "sym2p2,4,", "punctual,4,"))
                                    for row in skips)
    assert sum(",pass," in row for row in rows) == 22
    assert 'gr,4,"(2,6)",93093,93093,pass,' in out and "hilb1,4,(1),21,21,pass," in out
    reasons = [line for line in err.splitlines() if line.startswith("skip ")]
    assert reasons == [
        "skip hilb2 at q=4: counting supports q in (2, 3)",
        "skip sym2p2 at q=4: counting supports q in (2, 3)",
    ] + [f"skip {curve} colength {c} at q=4: counting supports q in (2, 3, 5, 7, 11, 13)"
         for curve in ("ribbon", "node") for c in (1, 2, 3, 4)]


def test_oracle_punctual_unsupported_q_skips(capsys):
    code, out, err = run(capsys, "oracle", "--check", "punctual", "--q", "4",
                         "--max-colength", "2")
    assert code == 0
    rows = out.splitlines()[1:]
    assert [row.rsplit(",", 1)[0] for row in rows] == [
        "punctual,4,ribbon:1,,1,skip", "punctual,4,ribbon:2,,5,skip",
        "punctual,4,node:1,,1,skip", "punctual,4,node:2,,5,skip"]
    assert "skip node colength 2 at q=4: counting supports q in (2, 3, 5, 7, 11, 13)\n" in err
    assert sum(line.startswith("skip ") for line in err.splitlines()) == 4


def test_oracle_bad_q(capsys):
    # a field size its counter does not take is a skipped row, not an error
    code, out, err = run(capsys, "oracle", "--check", "gr", "--q", "7")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 5 and all(row.startswith("gr,7,") and ",skip," in row for row in rows)
    assert err.splitlines() == [f"skip gr({k},{n}) at q=7: counting supports q in (2, 3, 4)"
                                for k, n in ((1, 2), (1, 3), (2, 4), (2, 5), (2, 6))]
    # a q of 1000 digits is read, and Gr(2,6) evaluated at it, of about
    # 8000 digits, prints whatever the interpreter's int-to-str limit
    code, out, _ = run(capsys, "oracle", "--check", "gr", "--q", "9" * 1000)
    assert code == 0 and unlimited_str(grassmannian(2, 6).evaluate(10 ** 1000 - 1)) in out
    # an empty item is a usage error, not skipped, and an integer is ASCII
    # digits only: no other script's digits, sign, space or other notation
    for qs in ("2,,3", "2,", ",2", "", "\u0663", "2,\u0663", "+3", "-3", " 3", "3 ", "0x3",
               "3.0", "3_0", "9" * 1001):
        code, out, err = run_usage_error(capsys, "oracle", "--check", "gr", "--q", qs)
        assert (code, out) == (2, "") and err.endswith(f"error: argument --q: bad q list {qs!r}\n")
    # at most MAX_Q_ITEMS field sizes: 100 are counted, 101 exit 2
    code, out, _ = run(capsys, "oracle", "--check", "gr", "--q", ",".join(map(str, range(5, 105))))
    assert code == 0 and len(out.splitlines()) == 1 + 5 * 100
    code, out, err = run_usage_error(capsys, "oracle", "--check", "gr",
                                     "--q", ",".join(map(str, range(5, 106))))
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --q: at most 100 field sizes in a q list, got 101\n")


@pytest.mark.parametrize("check,qs,repeated", [("gr", "2,2", 2), ("punctual", "3,3", 3),
                                               ("bridges", "2,3,4,3", 3)])
def test_oracle_repeated_q_exits_2(capsys, check, qs, repeated):
    """A repeated field size would print its rows twice and redo the work."""
    code, out, err = run_usage_error(capsys, "oracle", "--check", check, "--q", qs)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --q: q {repeated} repeated in '{qs}'\n")


def test_oracle_long_q_list_is_read_fast(capsys):
    """A list of thousands of field sizes, with a repeat at its end, is
    refused for its length within a second, before any item is read."""
    qs = ",".join(map(str, range(10000, 30000))) + ",10000"
    start = time.perf_counter()
    code, out, err = run_usage_error(capsys, "oracle", "--check", "gr", "--q", qs)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --q: at most 100 field sizes in a q list, got 20001\n")


#: oracle options that end with a bad value
_BAD_ORACLE_OPTIONS = [("--q", "2", "--max-colength", colength)
                       for colength in ("0", "7", "\u0663", "+3", " 3")] + [("--q", "2,,3")]


@pytest.mark.parametrize("check", ["gr", "punctual", "hilb2", "bridges"])
@pytest.mark.parametrize("options", _BAD_ORACLE_OPTIONS,
                         ids=[options[-1] for options in _BAD_ORACLE_OPTIONS])
def test_oracle_max_colength_out_of_range_exits_2(capsys, tmp_path, check, options):
    """Every --check rejects a bad --max-colength, not only the punctual one
    that uses it, and a bad --q; the parser rejects either before an existing
    -o file is opened.  An integer is ASCII digits only, so another script's
    digit, a sign or a space is a usage error."""
    path = tmp_path / "out"
    path.write_bytes(b"old\n")
    code, out, err = run_usage_error(capsys, "oracle", "--check", check, *options,
                                     "-o", str(path))
    assert (code, out, path.read_bytes()) == (2, "", b"old\n")
    option, value = options[-2:]
    if option == "--q":
        assert err.endswith(f"error: argument --q: bad q list {value!r}\n")
    elif value in ("0", "7"):
        # Python versions differ in whether they quote the rejected value
        assert err.endswith(tuple(f"error: argument --max-colength: invalid choice: {shown} "
                                  "(choose from 1, 2, 3, 4, 5, 6)\n"
                                  for shown in (value, repr(value))))
    else:
        assert err.endswith(f"error: argument --max-colength: invalid integer value: {value!r}\n")


def test_report_json(capsys):
    code, out, _ = run(capsys, "report", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["reports"]) == 6
    assert doc["bridges"]
    assert all(b["status"] == "pass" for b in doc["bridges"])


#: sha256 of stdout; each command exits 0
PINNED_OUTPUTS = {
    "verify --target all --format json":
        "2ab99375ceeb99a2a15fa9ed094be078110de95167064799002790c6b3f175d1",
    "verify --target all --format csv":
        "f237c21b5debc1fc1b287b5c26472c3d25d28f379c863810a88c70855394f344",
    "verify --target all --format md":
        "3a346327d1e81936a07e6d6998356e56330b6d95f7c7e709058c4eec75e11e06",
    "verify --target all --format text":
        "a3ee07196bcfa9ae6d5b6a18d2addfa8fe25b144f781e1e25e52fb75cfb29e19",
    "verify --target m41 --format json":
        "4571c4e50d9e10454920defde9a96612e6ddb036c651613bd5f5d993e3a6019b",
    "verify --target m41 --format csv":
        "4e78fa553f69c8060c584f4d5e704fae8fd54c14babf57532f71ecdbf07311e5",
    "verify --target m41 --format md":
        "12fbcd8b6213ea7decb42a73a72904c329c9317ec6fa1ec54904495675c256e3",
    "verify --target m41 --format text":
        "4d215bf44726a991dfd409a35444f8d96ab902418a1c13efdd09c1285c5808fb",
    "verify --target omega26 --format json":
        "98d7c432616483ab8cba64d92ab7442903d0d4c0178ce6378024fecb1702f6fa",
    "verify --target omega26 --format csv":
        "d3cfe9f175af00d8dc3ed37b5107567ec3a54e4ccd36cec80d63e778a6217370",
    "verify --target omega26 --format md":
        "e6c0fbd9356957897b0821a0b0b9d551101db1af69494ffd4d2d7851794b2e2a",
    "verify --target omega26 --format text":
        "870c8aa4cd7ef37a9cbb943137bb2f37872235de10b76a20d1e00fae4d12c89f",
    "report --format json":
        "29ebfa0d06393cb3d6b8c96c7532fe406b88b5ece589fd94622709b6ad78a7d4",
    "report --format md":
        "22256e92feac033597310ab901f45961771fd7454b28d160ebf1a11fd6168ecf",
}


@pytest.mark.parametrize("argv", PINNED_OUTPUTS)
def test_output_bytes_pinned(capsys, argv):
    """The verification and report documents, byte for byte."""
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_OUTPUTS[argv]


def _counting(max_colength, *qs):
    return "".join(f"counting {curve} colength {c} at q={q} ...\n"
                   for curve in ("ribbon", "node") for c in range(1, max_colength + 1)
                   for q in qs)


def _skips(q, cells, reason):
    return "".join(f"skip {cell} at q={q}: {reason}\n" for cell in cells)


#: exit code, sha256 of stdout with the millis column cut off, and stderr
PINNED_ORACLE_OUTPUTS = {
    "oracle --check punctual --q 2 --max-colength 6": (
        1, "2e8f8fbc8081f96d9861b479c1ec9095ff6488ba7da9aaf8045ba605a3896fcd",
        _counting(6, 2)),
    "oracle --check punctual --q 3 --max-colength 6": (
        1, "0e0a7361c6c87ea7844594096a646927fc294c97863b92cd3c2baea21b89b2f4",
        _counting(6, 3)),
    # ribbon colength 5 fails at each of these primes too (README caveat 2)
    "oracle --check punctual --q 5,7,11,13 --max-colength 6": (
        1, "705802cc497f76ea75471b2077a60da2cd8fbd81884b204c8ace2372fbb984d9",
        _counting(6, 5, 7, 11, 13)),
    "oracle --check bridges --q 2,3,4": (
        0, "cc6364fdde5f4cb481e877ba542c8f31c65a0405accef121c1bbeacd62d473d2",
        _skips(4, ("hilb2", "sym2p2"), "counting supports q in (2, 3)")
        + _skips(4, (f"{curve} colength {c}" for curve in ("ribbon", "node")
                     for c in (1, 2, 3, 4)), "counting supports q in (2, 3, 5, 7, 11, 13)")),
}


@pytest.mark.parametrize("argv", PINNED_ORACLE_OUTPUTS)
def test_oracle_output_bytes_pinned(capsys, argv):
    """The oracle's rows, skip reasons and exit code, byte for byte but for
    the timings."""
    code, out, err = run(capsys, *argv.split())
    digest = hashlib.sha256(_untimed(out).encode("utf-8")).hexdigest()
    assert (code, digest, err) == PINNED_ORACLE_OUTPUTS[argv]


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("motivecount ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_examples_run(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # for -o report.json
    code, _, _ = run(capsys, *shlex.split(line)[1:])
    # the documented ribbon colength-5 row fails at q=2
    expected = 1 if line == "motivecount oracle --check punctual --q 2 --max-colength 6" else 0
    assert code == expected
