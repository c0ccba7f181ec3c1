"""Expression grammar: lexing, precedence, builtins, and failure positions."""

from fractions import Fraction

import pytest

from jetvar import (
    DivisionByZero,
    Expr,
    Jet,
    Param,
    ParseError,
    TIME,
    UnsupportedExponent,
    l2,
    parse_expr,
    pre_schwarzian,
    schippers,
    sigma,
)

Q0 = Expr.atom(Jet(0))
Q1 = Expr.atom(Jet(1))
Q2 = Expr.atom(Jet(2))
Q3 = Expr.atom(Jet(3))
T = Expr.atom(TIME)


def test_atoms():
    assert parse_expr("t") == T
    assert parse_expr("q") == Q0
    assert parse_expr("q'") == Q1
    assert parse_expr("q''") == Q2
    assert parse_expr("q'''") == Q3
    assert parse_expr("q^(0)") == Q0
    assert parse_expr("q^(4)") == Expr.atom(Jet(4))
    assert parse_expr("alpha") == Expr.atom(Param("alpha"))
    assert parse_expr("a1") == Expr.atom(Param("a1"))


def test_rational_literals():
    assert parse_expr("42") == Expr.const(42)
    assert parse_expr("3/4") == Expr.const(Fraction(3, 4))
    assert parse_expr("-3/4") == Expr.const(Fraction(-3, 4))


def test_precedence_and_associativity():
    assert parse_expr("1 + 2*3") == Expr.const(7)
    assert parse_expr("2*3 + 1") == Expr.const(7)
    assert parse_expr("2^3^2") == Expr.const(64)  # left-associative power
    assert parse_expr("8/4/2") == Expr.const(1)
    assert parse_expr("1 - 2 - 3") == Expr.const(-4)
    assert parse_expr("-2^2") == Expr.const(-4)  # power binds above unary minus
    assert parse_expr("2^-1") == Expr.const(Fraction(1, 2))
    assert parse_expr("(1+1)^3") == Expr.const(8)


def test_jet_suffix_requires_adjacency():
    # ^(k) directly after q is a jet; with whitespace it is a power
    assert parse_expr("q^(2)") == Q2
    assert parse_expr("q ^(2)") == Q0 ** 2
    assert parse_expr("q^(1+1)") == Q0 ** 2
    assert parse_expr("(q)^(2)") == Q0 ** 2


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_expr("2q")
    with pytest.raises(ParseError):
        parse_expr("q'q''")
    with pytest.raises(ParseError):
        parse_expr("(1+t)(1-t)")


def test_log_call():
    assert parse_expr("log(q')") == Expr.log(Q1)
    assert parse_expr("log(q'/q)") == Expr.log(Q1 / Q0)
    with pytest.raises(ParseError):
        parse_expr("log q'")


def test_builtin_calls():
    assert parse_expr("sigma(3)") == sigma(3)
    assert parse_expr("sigma(6)") == sigma(6)
    assert parse_expr("schippers(5)") == schippers(5)
    assert parse_expr("presch()") == pre_schwarzian()
    assert parse_expr("L2()") == l2()
    assert parse_expr("2*sigma(3) - sigma(3)") == sigma(3)


def test_known_lagrangian_surface_forms():
    assert parse_expr("q''/q'") == pre_schwarzian()
    assert parse_expr("q'''/q' - 3/2*(q''/q')^2") == sigma(3)
    assert parse_expr("1/2*(q''/q')^2") == l2()
    nl2 = parse_expr("a1*q'/(a2*q + a4)")
    a1, a2, a4 = (Expr.atom(Param(n)) for n in ("a1", "a2", "a4"))
    assert nl2 == a1 * Q1 / (a2 * Q0 + a4)


def test_exponent_must_be_integer():
    with pytest.raises(UnsupportedExponent):
        parse_expr("q'^(1/2)")
    with pytest.raises(UnsupportedExponent):
        parse_expr("2^t")
    with pytest.raises(UnsupportedExponent):
        parse_expr("q^q")
    # but any constant subtree that reduces to an integer is fine
    assert parse_expr("q'^(6/2)") == Q1 ** 3
    assert parse_expr("t^(2 - 4)") == 1 / T ** 2


def test_polynomial_and_rational_operands_mix():
    # a production stays a polynomial until a division, a negative power, a
    # log or a builtin; a polynomial meeting an Expr is lifted to it
    assert parse_expr("q^(t-t+2)") == Q0 ** 2
    assert parse_expr("q^(q-q)") == 1
    assert parse_expr("3/4*q^2 - 3*q^2/4") == 0
    assert parse_expr("2*sigma(3) - sigma(3)*2") == 0
    assert parse_expr("-(q + 1)^-2*t") == -T / (Q0 + 1) ** 2
    assert parse_expr("log(q^2*t) - 2*q") == Expr.log(Q0 ** 2 * T) - 2 * Q0
    for src in ("q", "2", "q - q", "(q + t)^3", "1/2"):
        assert type(parse_expr(src)) is Expr
    with pytest.raises(UnsupportedExponent) as info:
        parse_expr("q^(1/2)")
    assert "column 2" in str(info.value)
    with pytest.raises(DivisionByZero):
        parse_expr("(q-q)^-1")


def test_error_positions():
    with pytest.raises(ParseError) as info:
        parse_expr("q' + * 2")
    assert "line 1, column 6" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_expr("1 +\n  * 2")
    assert "line 2, column 3" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_expr("(1 + 2")
    assert "column 7" in str(info.value)
    with pytest.raises(ParseError):
        parse_expr("")
    with pytest.raises(ParseError):
        parse_expr("1 ? 2")
    # str.isdigit accepts "²", which is no decimal digit
    with pytest.raises(ParseError) as info:
        parse_expr("q^²")
    assert "column 3" in str(info.value)


def test_names_start_with_a_letter():
    # a leading "_" is no name, as a parameter must start with a letter;
    # "_" after the first letter is part of the name
    for src, col in (("_x", 1), ("q + _", 5), ("a1*__q", 4)):
        with pytest.raises(ParseError) as info:
            parse_expr(src)
        assert f"unexpected character '_' (line 1, column {col})" in str(info.value)
    assert parse_expr("x_1 + q_") == Expr.atom(Param("x_1")) + Expr.atom(Param("q_"))


def test_builtin_arity_errors():
    with pytest.raises(ParseError):
        parse_expr("sigma()")
    with pytest.raises(ParseError):
        parse_expr("presch(3)")
    with pytest.raises(ParseError):
        parse_expr("sigma(t)")


def test_whitespace_tolerance():
    assert parse_expr("  q'   +\n 1 ") == Q1 + 1
    assert parse_expr("q'\t* 2") == 2 * Q1
