"""Canonical arithmetic on exact rational jet expressions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given

from jetvar import (
    TIME,
    DivisionByZero,
    Expr,
    Jet,
    LogAtom,
    Param,
    UnsupportedAtom,
    UnsupportedLogArgument,
)

from conftest import hypo_expr_strategy, rand_poly

Q0 = Expr.atom(Jet(0))
Q1 = Expr.atom(Jet(1))
Q2 = Expr.atom(Jet(2))
T = Expr.atom(TIME)
A1 = Expr.atom(Param("a1"))


def test_constants_normalize():
    assert Expr.const(Fraction(2, 4)) == Expr.const(1) / Expr.const(2)
    assert Expr.const(0).is_zero
    assert Expr.const(7).const_value() == 7
    assert (Expr.const(3) / Expr.const(-6)).const_value() == Fraction(-1, 2)


def test_equality_is_semantic():
    lhs = (Q1 * Q1 - Q2 * Q2) / (Q1 - Q2)
    assert lhs == Q1 + Q2
    assert (Q0 + Q1) * (Q0 - Q1) == Q0 ** 2 - Q1 ** 2
    assert Q1 / Q1 == 1


def test_denominator_sign_and_content():
    e = Q0 / (Expr.const(-2) * Q1)
    # reduced form keeps the denominator's leading coefficient positive
    assert e.den.leading()[1] > 0
    assert e == Expr.const(Fraction(-1, 2)) * Q0 / Q1


def test_int_and_fraction_coercion():
    assert Q1 * 2 == Q1 + Q1
    assert 2 * Q1 == Q1 + Q1
    assert Q1 + 0 == Q1
    assert Q1 / 2 == Fraction(1, 2) * Q1
    assert (Q1 - Q1) == 0
    assert Q1 ** 0 == 1


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        Q1 / (Q0 - Q0)
    with pytest.raises(DivisionByZero):
        Q1 / 0


def test_negative_powers():
    assert Q1 ** -2 == 1 / (Q1 * Q1)
    with pytest.raises(DivisionByZero):
        (Q0 - Q0) ** -1


def test_log_constructor_rules():
    assert Expr.log(Expr.const(1)).is_zero
    with pytest.raises(UnsupportedLogArgument):
        Expr.log(Expr.const(0))
    with pytest.raises(UnsupportedLogArgument):
        Expr.log(Expr.const(5))
    lg = Expr.log(Q1)
    assert lg.jet_order() == 1
    assert any(isinstance(a, LogAtom) for a in lg.all_atoms())


def test_log_argument_canonicalized():
    # log of the same value through different surface forms is one atom
    assert Expr.log(Q1 * Q1 / Q1) == Expr.log(Q1)
    assert Expr.log((Q0 * Q1 + Q1) / (Q0 + 1)) == Expr.log(Q1)


def test_partial_basic():
    e = Fraction(1, 2) * Q1 ** 2 + T * Q0
    assert e.partial(Jet(1)) == Q1
    assert e.partial(Jet(0)) == T
    assert e.partial(TIME) == Q0
    assert e.partial(Jet(2)).is_zero


def test_partial_quotient_rule():
    e = Q2 / Q1
    assert e.partial(Jet(1)) == -Q2 / Q1 ** 2
    assert e.partial(Jet(2)) == 1 / Q1
    # denominator factors that d/dq leaves fixed, one cancelling
    assert (Q0 ** 2 / (A1 * (T + 1))).partial(Jet(0)) == 2 * Q0 / (A1 * (T + 1))
    assert (((T + 1) * Q0 + 1) / (T + 1) ** 2).partial(Jet(0)) == 1 / (T + 1)
    assert (Q2 / ((Q0 + 1) * A1 * Q1)).partial(Param("a1")) == (
        -Q2 / ((Q0 + 1) * A1 ** 2 * Q1))


def test_partial_log_chain_rule():
    e = Expr.log(Q0 ** 2 + 1)
    assert e.partial(Jet(0)) == 2 * Q0 / (Q0 ** 2 + 1)
    with pytest.raises(UnsupportedAtom):
        e.partial(LogAtom(Q0 ** 2 + 1))


def test_substitution_homomorphism():
    e = (Q1 + Q2) ** 2 / Q0
    sub = {Jet(0): T, Jet(1): Q0 + 1, Jet(2): Expr.const(2)}
    got = e.substitute_many(sub)
    assert got == (Q0 + 1 + 2) ** 2 / T


def test_substitute_inside_log():
    e = Expr.log(Q0 / Q1)
    got = e.substitute(Jet(0), Q1 ** 2)
    assert got == Expr.log(Q1)


def test_distinct_params_stay_distinct():
    b2 = Expr.atom(Param("b2"))
    assert A1 != b2
    assert A1 * b2 == b2 * A1
    assert (A1 + b2).partial(Param("a1")) == 1


@given(hypo_expr_strategy(), hypo_expr_strategy())
def test_commutativity(x, y):
    assert x + y == y + x
    assert x * y == y * x


@given(hypo_expr_strategy(), hypo_expr_strategy(), hypo_expr_strategy())
def test_associativity_and_distributivity(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(hypo_expr_strategy())
def test_additive_and_multiplicative_identities(x):
    assert x + 0 == x
    assert x * 1 == x
    assert x - x == 0
    if not x.is_zero:
        assert x / x == 1
        assert x * (1 / x) == 1


@given(hypo_expr_strategy())
def test_reduced_invariants(x):
    # no common factor survives reduction, and contents are integral
    from jetvar.poly import poly_gcd

    g = poly_gcd(x.num, x.den)
    assert g.is_const
    assert x.den.leading()[1] > 0
    nc = x.num.coeff_content()
    dc = x.den.coeff_content()
    if not x.num.is_zero:
        assert nc.denominator == 1 and dc.denominator == 1
        from math import gcd

        assert gcd(int(nc), int(dc)) == 1


def test_random_ring_identities_bulk():
    rng = random.Random(7)
    for _ in range(60):
        x = rand_poly(rng, jets_max=3)
        y = rand_poly(rng, jets_max=3)
        assert (x + y) * (x - y) == x ** 2 - y ** 2
        assert (x * y) / y == x
