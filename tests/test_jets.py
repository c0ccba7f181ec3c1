"""Total derivative and prolongation on jet expressions."""

import random

from hypothesis import example, given

from jetvar import (
    TIME,
    Expr,
    Jet,
    Param,
    jet_order,
    parse_expr,
    prolong,
    total_derivative,
)
from jetvar import expr

from conftest import hypo_expr_strategy, rand_poly

Q0 = Expr.atom(Jet(0))
Q1 = Expr.atom(Jet(1))
Q2 = Expr.atom(Jet(2))
Q3 = Expr.atom(Jet(3))
T = Expr.atom(TIME)
A1 = Expr.atom(Param("a1"))


def test_dt_on_atoms():
    assert total_derivative(T) == 1
    assert total_derivative(Q0) == Q1
    assert total_derivative(Q2) == Q3
    assert total_derivative(Expr.atom(Param("a1"))).is_zero
    assert total_derivative(Expr.const(5)).is_zero


def test_dt_higher_orders():
    assert total_derivative(Q0, 3) == Q3
    assert total_derivative(T * Q0, 2) == 2 * Q1 + T * Q2


def test_dt_quotient():
    assert total_derivative(Q2 / Q1) == Q3 / Q1 - Q2 ** 2 / Q1 ** 2


def test_dt_log():
    assert total_derivative(Expr.log(Q1)) == Q2 / Q1
    assert total_derivative(Expr.log(Q0 / T)) == Q1 / Q0 - 1 / T


def test_dt_gcds_do_not_grow_with_the_denominator_power(monkeypatch):
    # the part of gcd(d, D_t d) prime to d/gcd is found with a number of
    # gcds that does not grow with the powers in d
    calls = []
    poly_gcd = expr.poly_gcd

    def counted(p, q):
        calls.append(1)
        return poly_gcd(p, q)

    monkeypatch.setattr(expr, "poly_gcd", counted)
    for src, want in (
            ("1/q'^{n}", "-{n}*q''/q'^{m}"),
            ("1/(q'^{n}*(q + 1)^{n})",
             "-{n}*(q''*(q + 1) + q'^2)/(q'*(q + 1))^{m}"),
            ("1/(q'^{n}*(q + 1)^2)",
             "-({n}*q''*(q + 1) + 2*q'^2)/(q'^{m}*(q + 1)^3)")):
        counts = set()
        for n in (5, 20, 40):
            e = parse_expr(src.format(n=n))
            calls.clear()
            de = total_derivative(e)
            counts.add(len(calls))
            assert de == parse_expr(want.format(n=n, m=n + 1))
        assert len(counts) == 1, (src, counts)


def test_jet_order_reporting():
    assert jet_order(T + Expr.const(2)) is None
    assert jet_order(Q3 / Q1) == 3
    assert jet_order(Expr.log(Q2) + Q0) == 2


def test_dt_raises_jet_order_by_one():
    rng = random.Random(11)
    for _ in range(20):
        e = rand_poly(rng, jets_max=3)
        n = jet_order(e)
        if n is None:
            continue
        assert jet_order(total_derivative(e)) == n + 1


@given(hypo_expr_strategy(), hypo_expr_strategy())
# denominators with factors that D_t leaves fixed or maps to a multiple
@example(Q2 / ((Q0 + 1) * A1 * Q1), ((T + 1) * Q0 + 1) / (T + 1) ** 2)
@example(Expr.log(Q1 / (T + 1)) / (A1 * Q0), Q1 / (Q0 ** 2 + A1))
def test_dt_is_a_derivation(x, y):
    assert total_derivative(x + y) == total_derivative(x) + total_derivative(y)
    assert (total_derivative(x * y)
            == total_derivative(x) * y + x * total_derivative(y))


@given(hypo_expr_strategy())
@example((Q0 ** 2 + A1 * Q1) / ((Q0 + 1) * A1 * Q1))
@example(Q0 * Expr.log((Q0 + T) / A1) / (Q0 + 1))
def test_dt_composes(x):
    assert total_derivative(total_derivative(x)) == total_derivative(x, 2)


def test_prolongation_on_characteristics():
    # translation characteristic: unit shift of q moves nothing but q itself
    e = Q1 * Q2
    assert prolong(Expr.const(1), e).is_zero
    # scaling characteristic q: every jet scales, degree-2 terms double
    assert prolong(Q0, e) == 2 * e
    # prolongation is a derivation too
    f = Q1 ** 2
    phi = Q0 ** 2
    assert prolong(phi, e * f) == prolong(phi, e) * f + e * prolong(phi, f)


def test_prolongation_chain_through_log():
    e = Expr.log(Q1)
    assert prolong(Q0, e) == 1
    assert prolong(Expr.const(1), e).is_zero


def test_prolongation_commutes_with_dt():
    # for any characteristic, pr v and D_t commute on jet expressions
    rng = random.Random(23)
    cases = [(rand_poly(rng, jets_max=2, max_terms=2),
              rand_poly(rng, jets_max=1, max_terms=2)) for _ in range(10)]
    # a rational characteristic acting through a log and a fixed factor
    cases.append((Expr.log(Q1 / (Q0 + 1)) + Q2 / (A1 * Q1),
                  Q0 ** 2 / (Q0 + T)))
    for e, phi in cases:
        lhs = prolong(phi, total_derivative(e))
        rhs = total_derivative(prolong(phi, e))
        assert lhs == rhs


def test_prolongation_with_a_large_common_denominator():
    # the log's chain rule and the rational characteristic give the field
    # a large common denominator; its final gcd once stalled for seconds
    phi = parse_expr("(q'*q'' - q - t)/(q' + t - 4)")
    e = parse_expr("log(p^2 + 2*q*p + q^2 + 1)")
    expect = sum((total_derivative(phi, k) * e.partial(Jet(k))
                  for k in range(e.jet_order() + 1)), Expr.const(0))
    assert prolong(phi, e) == expect
