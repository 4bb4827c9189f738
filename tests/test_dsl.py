"""Expression language: grammar, errors, evaluation, canonical formatting."""

import pickle
from copy import deepcopy

import pytest
from hypothesis import given, strategies as st

from motivecount import L, MotiveClass, atoms, projective
from motivecount.dsl import (
    MAX_DEGREE,
    MAX_INT_DIGITS,
    ArityError,
    Atom,
    Lefschetz,
    Lit,
    ParseError,
    Pow,
    Prod,
    Sum,
    Sym,
    eval_expr,
    evaluate,
    format_expr,
    parse,
)


def test_parse_product():
    assert parse("P2*P13") == Prod((Atom("projective", (2,)),
                                    Atom("projective", (13,))))


def test_parse_assembly_expression():
    e = parse("(Hilb3 - P2*P3)*P11 + P2*(P11 - P1) + P2*P13")
    assert isinstance(e, Sum) and [sign for sign, _ in e.terms] == [1, 1, 1]
    first = e.terms[0][1]
    assert isinstance(first, Prod) and isinstance(first.items[0], Sum)
    assert [sign for sign, _ in first.items[0].terms] == [1, -1]


def test_parse_sum_shapes():
    p1, p2, p3 = (Atom("projective", (n,)) for n in (1, 2, 3))
    # one signed term per operand; a parenthesised first operand is merged,
    # a later one is not
    assert parse("(P1+P2)+P3") == Sum(((1, p1), (1, p2), (1, p3)))
    assert parse("P1+(P2+P3)") == Sum(((1, p1), (1, Sum(((1, p2), (1, p3))))))
    assert parse("P1+P2-P3+L") == Sum(((1, p1), (1, p2), (-1, p3), (1, Lefschetz())))
    assert parse("(P1+P2)-P3") == Sum(((1, p1), (1, p2), (-1, p3)))
    assert parse("(P1-P2)-P3") == Sum(((1, p1), (-1, p2), (-1, p3)))
    assert parse("P1-(P2-P3)") == Sum(((1, p1), (-1, Sum(((1, p2), (-1, p3))))))


def test_parse_whitespace_insensitive():
    assert parse(" P2 * P 13 ") == parse("P2*P13")
    assert parse("Gr ( 2 , 6 )") == parse("Gr(2,6)")


def test_parse_all_primaries():
    assert parse("L") == Lefschetz()
    assert parse("7") == Lit(7)
    assert parse("A3") == Atom("affine", (3,))
    assert parse("Hilb3") == Atom("hilb_p2", (3,))
    assert parse("Lin(2)") == Atom("linear_system", (2,))
    assert parse("C(3)") == Atom("universal_curve", (3,))
    assert parse("Omega(2,6)") == Atom("omega_locus", (2, 6))
    assert parse("Sym2(P2)") == Sym(2, Atom("projective", (2,)))
    assert parse("P1^3") == Pow(Atom("projective", (1,)), 3)


def test_node_contract():
    """Nodes are immutable values that compare by class and fields, print
    their fields by name, and survive pickle and deepcopy."""
    a, b = Atom("projective", (1,)), Atom("affine", (2,))
    assert Sum(((1, a), (1, b))) != Prod((Sym(1, a), Sym(1, b)))
    assert Lit(3) != (3,)
    assert bool(Lefschetz())

    tree = parse("Sym2(P1 - A2)^3 * (L + 7) - Gr(2,4)")
    twin = parse("Sym2(P1 - A2)^3 * (L + 7) - Gr(2,4)")
    assert tree == twin and tree is not twin and hash(tree) == hash(twin)
    assert len({tree, twin, Lefschetz(), Lefschetz()}) == 2
    for node, field in ((a, "kind"), (Lit(3), "value"), (tree, "terms")):
        with pytest.raises(AttributeError):
            setattr(node, field, None)

    assert [repr(node) for node in (
        a, Lit(3), Lefschetz(), Sum(((1, Lit(1)), (-1, Lefschetz()))), Prod((Lit(2), a)),
        Pow(a, 2), Sym(2, Lefschetz()))] == [
        "Atom(kind='projective', args=(1,))", "Lit(value=3)", "Lefschetz()",
        "Sum(terms=((1, Lit(value=1)), (-1, Lefschetz())))",
        "Prod(items=(Lit(value=2), Atom(kind='projective', args=(1,))))",
        "Pow(base=Atom(kind='projective', args=(1,)), exponent=2)",
        "Sym(order=2, inner=Lefschetz())"]

    for copy in (pickle.loads(pickle.dumps(tree)), deepcopy(tree)):
        assert copy == tree and copy is not tree and format_expr(copy) == format_expr(tree)
        assert type(copy.terms[0][1]) is Prod


@pytest.mark.parametrize("source,offset", [
    ("Gr(2,", 5),
    ("", 0),
    ("P2 +", 4),
    ("P2 P3", 3),
    ("Sym2 P2", 5),
    ("Gr(2 6)", 5),
    ("(P2", 3),
    ("P", 1),
    ("Frob(2)", 0),
    ("P\u00b2", 1),  # superscript two: integers are ASCII digits only
    ("Gr(\u00b2,4)", 3),
    ("\u2075", 0),  # superscript five
    ("P\u0663", 1),  # Arabic-Indic three
    # the ideographic space separates tokens and is one code point of three
    # UTF-8 bytes: offsets count code points, so '$' is at 4, not byte 6
    ("P1\u3000+$", 4),
])
def test_parse_errors_carry_offsets(source, offset):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert err.value.offset == offset
    assert err.value.expected


def test_parse_error_on_bad_character():
    with pytest.raises(ParseError) as err:
        parse("P2 $ P3")
    assert err.value.offset == 3


def test_integer_literal_digit_limit():
    assert parse("9" * MAX_INT_DIGITS) == Lit(int("9" * MAX_INT_DIGITS))
    with pytest.raises(ParseError) as err:
        parse("P2 + " + "9" * (MAX_INT_DIGITS + 1))
    assert err.value.offset == 5


def test_arity_error():
    with pytest.raises(ArityError):
        parse("Gr(5,2)")
    parse("Gr(2,2)")  # boundary is fine


@pytest.mark.parametrize("source", [
    "P200", "A200", "L^200", "Gr(14,28)", "Gr(200,200)", "Sym 40(P5)",
    "Sym 200(1)", "Hilb8 * P184", "C(18) + Lin(18)", "(P100*P100)^1", "P1 - P200",
    "Sym 2(Sym 10(P10))", "(1+1)^200",
])
def test_degree_cap_admits_degree_200(source):
    assert evaluate(source).degree <= MAX_DEGREE


@pytest.mark.parametrize("source,offset", [
    ("P201", 0), ("2 * A201", 4), ("L^201", 2), ("Sym201(1)", 3), ("Gr(1,202)", 0),
    ("Gr(15,30)", 0), ("Hilb201", 0), ("Lin(19)", 0), ("1 + C(19)", 4),
    ("Omega(1,201)", 0), ("P100*P100*L", 0), ("(P100*P100*L)^0", 1),
    ("(P2*P3)^41", 0), ("Sym 41(P5)", 0), ("1 - Sym 41(P5)", 4), ("Sym1(Sym 41(P5))", 5),
    ("(1 + P100)*P101", 0), ("(1 - P100)*P101", 0), ("Sym 3(L - P100 + 1)", 0),
])
def test_degree_cap_rejects_at_the_node(source, offset):
    with pytest.raises(ArityError) as err:
        parse(source)
    assert err.value.offset == offset


def test_eval_examples():
    assert evaluate("P1 - 1") == L
    assert evaluate("Sym2(P2)") == MotiveClass((1, 1, 2, 1, 1))
    assert evaluate("P2*P2 - P2") == projective(2) * projective(2) - projective(2)
    assert evaluate("0") == MotiveClass()
    assert evaluate("L^3") == MotiveClass((0, 0, 0, 1))
    assert evaluate("2*A5") == MotiveClass((0, 0, 0, 0, 0, 2))


def test_precedence_golden():
    assert evaluate("P1+P1*P1") == projective(1) + projective(1) * projective(1)
    assert evaluate("P1^2*P1") == projective(1) ** 3
    assert evaluate("P2 - P1 + 1") == projective(2) - projective(1) + 1
    # left-associative difference
    assert evaluate("P2 - P1 - 1") == (projective(2) - projective(1)) - 1


def test_format_examples():
    assert format_expr(parse("P2 * P13")) == "P2*P13"
    assert format_expr(Lit(1)) == "1"
    assert format_expr(parse("(P1+P2)*P3")) == "(P1+P2)*P3"
    assert format_expr(parse("P1-(P2+P3)")) == "P1-(P2+P3)"
    assert format_expr(parse("P1^2")) == "P1^2"
    assert format_expr(parse("(P1+1)^2")) == "(P1+1)^2"


def test_structural_evaluation_identities():
    a = parse("Gr(2,4)")
    b = parse("Hilb2 - P1")
    assert eval_expr(Prod((a, b))) == eval_expr(a) * eval_expr(b)
    assert eval_expr(Sum(((1, a), (-1, b)))) == eval_expr(a) - eval_expr(b)
    assert eval_expr(Sum(((1, a), (1, b), (1, a)))) == 2 * eval_expr(a) + eval_expr(b)
    assert eval_expr(Sum(((1, a), (-1, b), (1, b)))) == eval_expr(a)
    assert eval_expr(Pow(b, 2)) == eval_expr(b) ** 2


# -- canonical-tree generator for the round-trip property ---------------------

def _atoms():
    return st.one_of(
        st.just(Lefschetz()),
        st.builds(Lit, st.integers(min_value=0, max_value=99)),
        st.builds(lambda n: Atom("affine", (n,)), st.integers(0, 20)),
        st.builds(lambda n: Atom("projective", (n,)), st.integers(0, 20)),
        st.builds(lambda k, extra: Atom("grassmannian", (k, k + extra)),
                  st.integers(0, 4), st.integers(0, 5)),
        st.builds(lambda n: Atom("hilb_p2", (n,)), st.integers(0, 8)),
        st.builds(lambda d: Atom("linear_system", (d,)), st.integers(1, 6)),
        st.builds(lambda d: Atom("universal_curve", (d,)), st.integers(1, 6)),
        st.sampled_from([Atom("omega_locus", (1, 3)),
                         Atom("omega_locus", (2, 6))]),
    )


def expr_trees(max_depth=4):
    """Trees in parser shape: no Sum first in a Sum, no Prod under Prod."""

    def extend(children):
        non_sum = children.filter(lambda e: not isinstance(e, Sum))
        non_prod = children.filter(lambda e: not isinstance(e, Prod))
        later = st.tuples(st.sampled_from([1, -1]), children)
        return st.one_of(
            st.builds(lambda first, rest: Sum(((1, first),) + tuple(rest)),
                      non_sum, st.lists(later, min_size=1, max_size=3)),
            st.lists(non_prod, min_size=2, max_size=4).map(lambda xs: Prod(tuple(xs))),
            st.builds(Pow, children, st.integers(0, 5)),
            st.builds(Sym, st.integers(0, 4), children),
        )

    return st.recursive(_atoms(), extend, max_leaves=12)


def _max_node_degree(tree) -> int:
    """Largest degree of any node, by the class degree of each atom (2n for
    an Omega locus in Hilb n), 0 for a literal, the maximum over a chain of
    '+' and '-', the sum over a product and k times the degree under ^k and
    Sym k."""
    nodes = []

    def degree(e) -> int:
        if isinstance(e, Atom):
            d = (2 * e.args[1] if e.kind == "omega_locus"
                 else getattr(atoms, e.kind)(*e.args).degree)
        elif isinstance(e, Lit):
            d = 0
        elif isinstance(e, Lefschetz):
            d = 1
        elif isinstance(e, Sum):
            d = max(degree(t) for _, t in e.terms)
        elif isinstance(e, Prod):
            d = sum(degree(t) for t in e.items)
        elif isinstance(e, Pow):
            d = e.exponent * degree(e.base)
        else:
            d = e.order * degree(e.inner)
        nodes.append(d)
        return d

    degree(tree)
    return max(nodes)


def assert_roundtrip(tree):
    """parse(format_expr(tree)) == tree; a tree with a node over the degree
    cap is rejected instead."""
    source = format_expr(tree)
    if _max_node_degree(tree) > MAX_DEGREE:
        with pytest.raises(ArityError):
            parse(source)
    else:
        assert parse(source) == tree


@given(expr_trees())
def test_parse_format_roundtrip(tree):
    assert_roundtrip(tree)
