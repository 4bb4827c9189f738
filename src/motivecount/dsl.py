"""A small expression language for motive classes.

Grammar (whitespace-insensitive, LL(1)):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := primary ('^' INT)?
    primary := 'L' | INT | 'A' INT | 'P' INT
             | 'Gr(' INT ',' INT ')' | 'Hilb' INT
             | 'Lin(' INT ')' | 'C(' INT ')' | 'Omega(' INT ',' INT ')'
             | 'Sym' INT '(' expr ')' | '(' expr ')'

'+' and '-' associate to the left, '*' binds tighter than '+'/'-', and '^'
binds tighter than '*'.  INT is a run of at most ``MAX_INT_DIGITS`` ASCII
digits; a longer literal is a :class:`ParseError` at its offset.  The atom
primaries are read, and printed, through their templates in ``ATOMS``.
Integer literals denote disjoint unions of points, so "P1 - 1" is the class L.
A chain of '+' and '-' is one :class:`Sum` node of signed terms in the order
written, so registered formulas display exactly as written, and a chain of
any length evaluates, prints, compares and hashes without recursing.

While parsing, each node gets a degree bound by the rules of the class
degree: an atom's from its parameters (its rule in ``ATOMS``), 1 for
L, 0 for a literal; a chain of '+' and '-' takes the largest of its
operands, a product adds, X^k and Sym k(X) multiply by k.  An atom
parameter, exponent or Sym order over ``MAX_DEGREE``, or a node of degree
over ``MAX_DEGREE``, is an :class:`ArityError` at that node's offset, so
evaluation time stays bounded.

Each node also gets a bound on the l1 norm of its class, the sum of the
absolute values of its coefficients: n for a literal, 1 for L, 4^degree
for an atom; a chain of '+' and '-' adds its operands' bounds, a product
multiplies them, X^k raises X's to the k-th power, and Sym k(X) with X's
bound N takes C(N + k - 1, k), the value at L = 1 of the symmetric power of
an effective class of norm N.  A node whose bound is over ``MAX_NORM`` is an
:class:`ArityError` at its offset, so every coefficient and Euler number
has at most ``MAX_INT_DIGITS`` digits, like an integer literal.
"""

from __future__ import annotations

import re
from math import comb
from typing import NamedTuple, Union

from . import atoms
from .motive import MotiveClass


class ParseError(ValueError):
    """Syntax error with its offset, counted in code points (characters of
    the source string, not UTF-8 bytes), and the set of expected tokens."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        want = ", ".join(expected)
        super().__init__(f"syntax error at offset {offset}: expected {want}, found {found}")


class ArityError(ValueError):
    """Structurally valid expression with ill-formed atom parameters (e.g.
    Gr(3,2)), with a number or degree over :data:`MAX_DEGREE`, or with a
    coefficient bound over :data:`MAX_NORM`."""

    def __init__(self, offset: int, message: str, what: str = "bad atom parameters"):
        self.offset = offset
        super().__init__(f"{what} at offset {offset}: {message}")


# -- abstract syntax ---------------------------------------------------------

class _Node:
    """An immutable syntax-tree node whose positional fields are its
    ``__slots__``.  A node equals only a node of its own class with equal
    fields, so a Sum is never a Prod and a Lit never a tuple, and hashes
    over its fields."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} "
                            f"fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._values()


class Atom(_Node):
    """A standard variety: its kind in ``ATOMS`` and its parameters."""

    __slots__ = ("kind", "args")  # str, tuple[int, ...]


class Lit(_Node):
    __slots__ = ("value",)


class Lefschetz(_Node):
    __slots__ = ()


class Sum(_Node):
    """A chain of '+' and '-': (sign, operand) pairs, the sign 1 or -1 and
    the first sign 1."""

    __slots__ = ("terms",)


class Prod(_Node):
    __slots__ = ("items",)


class Pow(_Node):
    __slots__ = ("base", "exponent")  # VarietyExpr, int


class Sym(_Node):
    __slots__ = ("order", "inner")  # int, VarietyExpr


VarietyExpr = Union[Atom, Lit, Lefschetz, Sum, Prod, Pow, Sym]


# -- syntax -------------------------------------------------------------------

#: each atom in canonical display order, by the name of its constructor in
#: :mod:`.atoms`: its syntax, where '{}' is an integer parameter, and the
#: degree of its class read off the parameters (for the Omega loci, which
#: lie in Hilb n, the bound 2n)
ATOMS = {
    "affine": ("A{}", lambda n: n),
    "projective": ("P{}", lambda n: n),
    "grassmannian": ("Gr({},{})", lambda k, n: k * (n - k)),
    "hilb_p2": ("Hilb{}", lambda n: 2 * n),
    "linear_system": ("Lin({})", lambda d: d * (d + 3) // 2),
    "universal_curve": ("C({})", lambda d: d * (d + 3) // 2 + 1),
    "omega_locus": ("Omega({},{})", lambda k, n: 2 * n),
}

#: largest degree of any node, and largest atom parameter, exponent and Sym
#: order; the slowest admitted expressions found, such as Sym 200(1872486*P1),
#: take under a second (Python 3.11, one core of a 2-vCPU Xeon VM)
MAX_DEGREE = 200

#: atom kind by its template's leading keyword
_KEYWORDS = {re.match("[A-Za-z]+", t)[0]: kind for kind, (t, _) in ATOMS.items()}

#: most digits in one integer literal; longer literals are rejected before
#: conversion, below Python's 4300-digit limit on int() of a string
MAX_INT_DIGITS = 1000

#: largest l1-norm bound of any node: every coefficient then has at most
#: MAX_INT_DIGITS digits
MAX_NORM = 10 ** MAX_INT_DIGITS - 1

_PRIMARY_START = (("'L'",) + tuple(f"'{word}'" for word in _KEYWORDS)
                  + ("'Sym'", "integer", "'('"))


# -- lexer --------------------------------------------------------------------

#: ASCII integers, ASCII words, punctuation, and any other non-space character
_TOKEN = re.compile(r"([0-9]+)|([A-Za-z]+)|([()+\-*^,])|(\S)")


class _Token(NamedTuple):
    kind: str  # 'INT', 'WORD', a punctuation character, 'OTHER' or 'EOF'
    text: str
    offset: int


def _lex(src: str) -> list[_Token]:
    toks = []
    for m in _TOKEN.finditer(src):
        text = m[0]
        if not text.isprintable():  # shown escaped, so no control character reaches stderr
            text = repr(text)
        toks.append(_Token(("INT", "WORD", text, "OTHER")[m.lastindex - 1], text, m.start()))
    toks.append(_Token("EOF", "", len(src)))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _lex(src)
        self.i = 0

    def _peek(self) -> _Token:
        return self.toks[self.i]

    def _take(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def _expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        t = self._peek()
        if t.kind != kind:
            raise ParseError(t.offset, expected, t.text or "end of input")
        return self._take()

    def _int(self) -> int:
        t = self._expect("INT", ("integer",))
        if len(t.text) > MAX_INT_DIGITS:
            raise ParseError(t.offset, (f"integer of at most {MAX_INT_DIGITS} digits",),
                             f"{len(t.text)} digits")
        return int(t.text)

    def _cap(self, offset: int, degree: int) -> int:
        if degree > MAX_DEGREE:
            raise ArityError(offset, f"degree {degree} is over {MAX_DEGREE}",
                             "expression too large")
        return degree

    def _bound(self, offset: int, norm: int) -> int:
        if norm > MAX_NORM:
            raise ArityError(offset, f"a coefficient may have more than {MAX_INT_DIGITS} digits",
                             "expression too large")
        return norm

    def _follow(self, end: str) -> tuple[str, ...]:
        """The tokens that may follow a complete expression closed by `end`;
        '^' only if its last factor has no exponent yet, that is, unless the
        token before the one just taken is '^'."""
        exponent_taken = self.toks[self.i - 2].kind == "^"
        return ("'+'", "'-'", "'*'") + ((end,) if exponent_taken else ("'^'", end))

    def _multiplier(self, what: str) -> int:
        """An exponent or Sym order, at most MAX_DEGREE."""
        offset = self._peek().offset
        n = self._int()
        if n > MAX_DEGREE:
            raise ArityError(offset, f"{what} {n} is over {MAX_DEGREE}", "expression too large")
        return n

    # each rule below returns the node, its degree bound and its norm bound

    def parse(self) -> VarietyExpr:
        e, _, _ = self.expr()
        t = self._peek()
        if t.kind != "EOF":
            raise ParseError(t.offset, self._follow("end of input"), t.text)
        return e

    def expr(self) -> tuple[VarietyExpr, int, int]:
        offset = self._peek().offset
        first, degree, norm = self.term()
        # one term per operator; a parenthesised chain as first operand is
        # merged into this one
        terms = list(first.terms) if isinstance(first, Sum) else [(1, first)]
        while self._peek().kind in "+-":
            sign = 1 if self._take().kind == "+" else -1
            rhs, rhs_degree, rhs_norm = self.term()
            degree = max(degree, rhs_degree)
            norm = self._bound(offset, norm + rhs_norm)
            terms.append((sign, rhs))
        return (first if len(terms) == 1 else Sum(tuple(terms))), degree, norm

    def term(self) -> tuple[VarietyExpr, int, int]:
        offset = self._peek().offset
        item, degree, norm = self.factor()
        items = [item]
        while self._peek().kind == "*":
            self._take()
            item, item_degree, item_norm = self.factor()
            items.append(item)
            degree = self._cap(offset, degree + item_degree)
            norm = self._bound(offset, norm * item_norm)
        return (items[0] if len(items) == 1 else Prod(tuple(items))), degree, norm

    def factor(self) -> tuple[VarietyExpr, int, int]:
        offset = self._peek().offset
        base, degree, base_norm = self.primary()
        if self._peek().kind == "^":
            self._take()
            k = self._multiplier("exponent")
            degree = self._cap(offset, k * degree)
            return Pow(base, k), degree, self._bound(offset, base_norm ** k)
        return base, degree, base_norm

    def primary(self) -> tuple[VarietyExpr, int, int]:
        t = self._peek()
        if t.kind == "INT":
            value = self._int()
            return Lit(value), 0, value
        if t.kind == "(":
            self._take()
            e = self.expr()
            self._expect(")", self._follow("')'"))
            return e
        if t.kind != "WORD":
            raise ParseError(t.offset, _PRIMARY_START, t.text or "end of input")
        word = self._take()
        if word.text == "L":
            return Lefschetz(), 1, 1
        if word.text == "Sym":
            order = self._multiplier("Sym order")
            self._expect("(", ("'('",))
            inner, degree, inner_norm = self.expr()
            self._expect(")", self._follow("')'"))
            degree = self._cap(word.offset, order * degree)
            norm = comb(inner_norm + order - 1, order) if order else 1
            return Sym(order, inner), degree, self._bound(word.offset, norm)
        kind = _KEYWORDS.get(word.text)
        if kind is None:
            raise ParseError(word.offset, _PRIMARY_START, word.text)
        template, degree_of = ATOMS[kind]
        args = self._args(template[len(word.text):])
        if kind == "grassmannian" and args[0] > args[1]:
            raise ArityError(word.offset, f"{template.format(*args)} requires k <= n")
        if max(args) > MAX_DEGREE:
            raise ArityError(word.offset, f"{template.format(*args)} has a parameter "
                                          f"over {MAX_DEGREE}")
        degree = self._cap(word.offset, degree_of(*args))
        # every atom's class has nonnegative coefficients summing to its
        # value at L = 1, which is at most 4^degree: C(n,k) for Gr(k,n), at
        # most 4^n for Hilb n; within the degree cap that is under MAX_NORM
        return Atom(kind, args), degree, 4 ** degree

    def _args(self, shape: str) -> tuple[int, ...]:
        """The integer parameters along a template's text after its keyword,
        such as '({},{})'."""
        args = []
        for k, text in enumerate(shape.split("{}")):
            if k:
                args.append(self._int())
            for piece in text:
                self._expect(piece, (f"'{piece}'",))
        return tuple(args)


def parse(source: str) -> VarietyExpr:
    """Parse a source string into an expression tree."""
    return _Parser(source).parse()


# -- evaluation ----------------------------------------------------------------

def eval_expr(e: VarietyExpr) -> MotiveClass:
    """Evaluate an expression tree to its motive class."""
    if isinstance(e, Atom):
        # by name at call time, so a wrapper set on the module attribute (as
        # perfbench's tracer sets one) sees every call
        return getattr(atoms, e.kind)(*e.args)
    if isinstance(e, Lit):
        return MotiveClass((e.value,))
    if isinstance(e, Lefschetz):
        return MotiveClass((0, 1))
    if isinstance(e, Sum):
        acc = eval_expr(e.terms[0][1])
        for sign, item in e.terms[1:]:
            acc = acc + eval_expr(item) if sign > 0 else acc - eval_expr(item)
        return acc
    if isinstance(e, Prod):
        acc = MotiveClass((1,))
        for item in e.items:
            acc = acc * eval_expr(item)
        return acc
    if isinstance(e, Pow):
        return eval_expr(e.base) ** e.exponent
    if isinstance(e, Sym):
        return eval_expr(e.inner).sym_power(e.order)
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(source: str) -> MotiveClass:
    """Parse and evaluate in one step."""
    return eval_expr(parse(source))


# -- formatting ----------------------------------------------------------------

def format_expr(e: VarietyExpr) -> str:
    """Render a tree in canonical syntax; parse(format_expr(e)) == e for
    trees in parser shape (no Sum first in a Sum, no Prod under Prod)."""
    if isinstance(e, Atom):
        return ATOMS[e.kind][0].format(*e.args)
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Lefschetz):
        return "L"
    if isinstance(e, Sum):
        parts = [format_expr(e.terms[0][1])]
        for sign, item in e.terms[1:]:
            text = format_expr(item)
            if isinstance(item, Sum):  # a later chain would re-associate bare
                text = f"({text})"
            parts.append(("+" if sign > 0 else "-") + text)
        return "".join(parts)
    if isinstance(e, Prod):
        parts = []
        for item in e.items:
            text = format_expr(item)
            if isinstance(item, (Sum, Prod)):
                text = f"({text})"
            parts.append(text)
        return "*".join(parts)
    if isinstance(e, Pow):
        base = format_expr(e.base)
        if isinstance(e.base, (Sum, Prod, Pow)):
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Sym):
        return f"Sym{e.order}({format_expr(e.inner)})"
    raise TypeError(f"not an expression node: {e!r}")
