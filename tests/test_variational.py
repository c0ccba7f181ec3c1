"""Euler-Lagrange expressions, energy functions, and gauge extraction."""

import random
from fractions import Fraction

import pytest

from jetvar import (
    Expr,
    IntegrationUnsupported,
    Jet,
    NoJet,
    NonlinearTop,
    NotNull,
    Param,
    TIME,
    euler_lagrange,
    extract_gauge,
    is_null,
    isolate_top,
    jacobi,
    l2,
    parse_expr,
    schippers,
    sigma,
    total_derivative,
)
from jetvar import variational

from conftest import rand_lagrangian, rand_poly

Q0 = Expr.atom(Jet(0))
Q1 = Expr.atom(Jet(1))
Q2 = Expr.atom(Jet(2))
Q3 = Expr.atom(Jet(3))
Q4 = Expr.atom(Jet(4))
T = Expr.atom(TIME)


def test_el_harmonic_oscillator():
    L = Fraction(1, 2) * Q1 ** 2 - Fraction(1, 2) * Q0 ** 2
    assert euler_lagrange(L) == -Q0 - Q2


def test_el_of_l2_closed_form():
    E = euler_lagrange(l2())
    assert E * Q1 ** 4 == Q1 ** 2 * Q4 - 4 * Q1 * Q2 * Q3 + 3 * Q2 ** 3


def test_el_annihilates_total_derivatives():
    for P in [Q0 * Q1, T * Q0 ** 2, Q2 / Q1, Expr.log(Q1)]:
        assert euler_lagrange(total_derivative(P)).is_zero


def test_el_sigma3_is_negative_el_l2():
    # the two Lagrangians differ by a total derivative up to overall sign:
    # sigma(3) = -L2 + D_t(q2/q1), so their EL expressions are negatives
    assert euler_lagrange(sigma(3)) == -euler_lagrange(l2())
    assert euler_lagrange(sigma(3) + l2()).is_zero


def test_jacobi_of_jet_free_is_minus_l():
    L = T ** 2 + Expr.atom(Param("a1"))
    assert jacobi(L) == -L


def test_jacobi_first_order_legendre():
    L = Fraction(1, 2) * Q1 ** 2 - Q0 ** 3
    assert jacobi(L) == Fraction(1, 2) * Q1 ** 2 + Q0 ** 3


def test_jacobi_pair_of_second_order_lagrangians():
    assert jacobi(l2()) == -sigma(3)
    assert jacobi(sigma(3)) == sigma(3)


def test_jacobi_kills_autonomous_total_derivatives():
    for P in [Q0 * Q1, Q1 ** 3, Q2 / Q1]:
        assert jacobi(total_derivative(P)).is_zero


def test_jacobi_of_time_dependent_gauge():
    # for L = D_t P the energy reduces to -dP/dt
    P = T * Q0 ** 2
    assert jacobi(total_derivative(P)) == -Q0 ** 2


def test_conservation_identity():
    rng = random.Random(31)
    for _ in range(25):
        L = rand_lagrangian(rng)
        lhs = total_derivative(jacobi(L)) + Q1 * euler_lagrange(L)
        assert lhs.is_zero


def test_conservation_identity_over_a_linear_denominator():
    # third-order, quartic numerator over 4q + 28: the gcds of the sums in
    # E(L) once swelled for seconds in the pseudo-remainder sequence
    L = (-Q2 ** 2 * Q3 ** 2 - 9 * Q0 * Q2 ** 2 - 7 * Q1 * Q2) / (4 * Q0 + 28)
    assert (total_derivative(jacobi(L)) + Q1 * euler_lagrange(L)).is_zero


def test_momentum_chain_applies_dt_once_per_order(monkeypatch):
    # p_r = dL/dq{r} - D_t p_{r+1}: E(L) takes n applications of D_t and
    # J(L), which stops at p_1, takes n - 1
    applied = []

    def counting_dt(e, k=1):
        applied.append(k)
        return total_derivative(e, k)

    monkeypatch.setattr(variational, "total_derivative", counting_dt)
    L = schippers(7)
    n = L.jet_order()
    euler_lagrange(L)
    assert sum(applied) == n
    applied.clear()
    jacobi(L)
    assert sum(applied) == n - 1


def test_is_null_verdicts():
    assert is_null(total_derivative(Q0 ** 2 * Q1))
    assert not is_null(l2())
    assert not is_null(Q1 ** 2)


def test_gauge_simple_round_trips():
    for P in [Q0 * Q1, T * Q0, Q0 ** 3 + T ** 2, Q2 / Q1]:
        L = total_derivative(P)
        g = extract_gauge(L).gauge
        assert total_derivative(g) == L


def test_gauge_of_quadratic_example():
    c1 = Expr.atom(Param("c1"))
    L = c1 * Q0 * Q1
    assert extract_gauge(L).gauge == c1 / 2 * Q0 ** 2


def test_gauge_with_log():
    a1 = Expr.atom(Param("a1"))
    a2 = Expr.atom(Param("a2"))
    a4 = Expr.atom(Param("a4"))
    L = a1 * Q1 / (a2 * Q0 + a4)
    g = extract_gauge(L).gauge
    assert g == a1 / a2 * Expr.log(a2 * Q0 + a4)
    assert total_derivative(g) == L


@pytest.mark.parametrize("L, gauge", [
    # the top-order coefficient over alpha
    ("q^5*q'/a1", "q^6/(6*a1)"),
    ("(q^9 + 2*q)*q' + q'^2*q''", None),
    # over alpha*x: a log from the power x^0
    ("(q^4 + 1)*q'/(a1*q)", "q^4/(4*a1) + log(a1*q)/a1"),
    ("(q'^4 + a1)*q''/(3*q')", None),
    # over alpha*x + beta: a quotient term at every power below the top
    ("q^5*q'/(q + 1)", "q^5/5 - q^4/4 + q^3/3 - q^2/2 + q - log(q + 1)"),
    ("q'/(a1*q + b2)", None),
    ("q^3*q'/(2*q - 3)", None),
])
def test_gauge_round_trips_over_each_divisor_shape(L, gauge):
    L = parse_expr(L)
    g = extract_gauge(L).gauge
    assert total_derivative(g) == L
    if gauge is not None:
        assert g == parse_expr(gauge)


def test_gauge_rejects_non_null():
    with pytest.raises(NotNull):
        extract_gauge(l2())


def test_gauge_reports_a_denominator_it_cannot_integrate():
    # D_t(arctan q) is null, but its gauge is not a rational function
    with pytest.raises(IntegrationUnsupported,
                       match="denominator has degree > 1 in the integration variable"):
        extract_gauge(parse_expr("q'/(q^2 + 1)"))


def test_gauge_defined_up_to_a_constant():
    # extraction drops any additive constant; shifting L by a total
    # derivative of a constant changes nothing
    P = Q0 ** 2
    L = total_derivative(P)
    g = extract_gauge(L).gauge
    assert total_derivative(g - P).is_zero


def test_isolate_top_solved_form():
    E = euler_lagrange(l2())
    iso = isolate_top(E)
    assert iso.order == 4
    assert iso.coefficient == 1 / Q1 ** 2
    # E = C*q4 + R exactly
    assert iso.coefficient * Q4 + iso.remainder == E


def test_isolate_top_errors():
    with pytest.raises(NoJet):
        isolate_top(T ** 2)
    with pytest.raises(NonlinearTop):
        isolate_top(Q2 ** 2)


def test_el_random_gauge_suite():
    rng = random.Random(47)
    for _ in range(40):
        P = rand_poly(rng, jets_max=3)
        L = total_derivative(P)
        assert euler_lagrange(L).is_zero
        assert is_null(L)
        g = extract_gauge(L).gauge
        assert total_derivative(g) == L
