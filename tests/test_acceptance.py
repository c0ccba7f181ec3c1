"""Contract-level acceptance checks, one test per promised behavior.

Symbolic assertions are exact (tolerance zero); numeric assertions carry
the stated tolerances.  Run with -v to get one pass/fail line per check.
"""

import random
from fractions import Fraction

from jetvar import (
    Expr,
    Jet,
    Param,
    euler_lagrange,
    extract_gauge,
    integrate_rk4,
    derive_ode,
    eval_expr,
    is_null,
    jacobi,
    l2,
    monitor,
    pre_schwarzian,
    schippers,
    sigma,
    sl2_finite_check,
    sl2_residues,
    total_derivative,
)

from conftest import rand_lagrangian, rand_poly

Q0 = Expr.atom(Jet(0))
Q1 = Expr.atom(Jet(1))
Q2 = Expr.atom(Jet(2))
Q3 = Expr.atom(Jet(3))
Q4 = Expr.atom(Jet(4))
Q5 = Expr.atom(Jet(5))


def test_c01_fourth_order_equation_of_motion():
    E = euler_lagrange(Fraction(1, 2) * (Q2 / Q1) ** 2)
    assert E * Q1 ** 4 == Q1 ** 2 * Q4 - 4 * Q1 * Q2 * Q3 + 3 * Q2 ** 3


def test_c02_equal_dynamics_of_the_lagrangian_pair():
    # the two second-order Lagrangians differ by a total derivative only
    # up to sign, so this literal equality does not hold; the faithful
    # statement (negated pair) is asserted in test_variational.py
    assert euler_lagrange(sigma(3)) == euler_lagrange(Fraction(1, 2) * (Q2 / Q1) ** 2)


def test_c03_energy_pair_with_opposite_signs():
    assert jacobi(Fraction(1, 2) * (Q2 / Q1) ** 2) == -sigma(3)
    assert jacobi(sigma(3)) == sigma(3)


def test_c04_first_order_null_examples_and_gauges():
    c1 = Expr.atom(Param("c1"))
    a1, a2, a4 = (Expr.atom(Param(n)) for n in ("a1", "a2", "a4"))

    nl1 = c1 * Q0 * Q1
    assert euler_lagrange(nl1).is_zero
    assert jacobi(nl1).is_zero
    g1 = extract_gauge(nl1).gauge
    assert g1 == c1 / 2 * Q0 ** 2
    assert total_derivative(g1) == nl1

    nl2 = a1 * Q1 / (a2 * Q0 + a4)
    assert euler_lagrange(nl2).is_zero
    assert jacobi(nl2).is_zero
    g2 = extract_gauge(nl2).gauge
    assert g2 == a1 / a2 * Expr.log(a2 * Q0 + a4)
    assert total_derivative(g2) == nl2


def test_c05_even_odd_null_dichotomy():
    for n in (4, 6):
        assert is_null(sigma(n))
        assert jacobi(sigma(n)).is_zero
    for n in (3, 5):
        assert not is_null(sigma(n))


def test_c06_gauge_identities_of_the_even_members():
    assert extract_gauge(sigma(4)).gauge == sigma(3)
    expect = (Q5 / Q1 - 5 * Q2 * Q4 / Q1 ** 2 - 5 * Q3 ** 2 / Q1 ** 2
              + 20 * Q2 ** 2 * Q3 / Q1 ** 3
              - Fraction(45, 4) * Q2 ** 4 / Q1 ** 4)
    assert extract_gauge(sigma(6)).gauge == expect


def test_c07_fifth_order_spot_coefficients():
    E = euler_lagrange(sigma(5))
    scaled = E / 2 * Q1 ** 6  # q1^4*q6 coefficient normalized to 1
    assert scaled.den.is_const
    dc = scaled.den.const_value()
    found = {}
    for m, c in scaled.num.terms:
        found[frozenset(m)] = c / dc
    assert found[frozenset({(Jet(1), 4), (Jet(6), 1)})] == 1
    assert found[frozenset({(Jet(1), 3), (Jet(2), 1), (Jet(5), 1)})] == -6
    assert found[frozenset({(Jet(1), 3), (Jet(3), 1), (Jet(4), 1)})] == -10
    # the energy carries the term -2*q5/q1: q5 enters linearly
    assert jacobi(sigma(5)).partial(Jet(5)) == -2 / Q1


def test_c08_reconstruction_identity():
    expect = (Q5 / Q1 - 5 * Q2 * Q4 / Q1 ** 2 - 5 * Q3 ** 2 / Q1 ** 2
              + 20 * Q2 ** 2 * Q3 / Q1 ** 3
              - Fraction(45, 4) * Q2 ** 4 / Q1 ** 4)
    assert sigma(5) == extract_gauge(sigma(6)).gauge
    assert extract_gauge(sigma(6)).gauge == expect
    assert sigma(5) == expect


def test_c09_invariance_suite_both_routes():
    for n in range(3, 7):
        rep = sl2_residues(sigma(n))
        assert rep.invariant
        assert sl2_finite_check(sigma(n))

    rep = sl2_residues(pre_schwarzian())
    assert not rep.invariant
    assert rep.residue_special == 2 * Q1
    assert not sl2_finite_check(pre_schwarzian())

    rep = sl2_residues(schippers(4))
    assert not rep.invariant
    assert not sl2_finite_check(schippers(4))


def test_c10_random_identity_suites():
    rng = random.Random(20260825)

    for _ in range(200):
        P = rand_poly(rng, jets_max=4)
        assert euler_lagrange(total_derivative(P)).is_zero

    for _ in range(200):
        P = rand_poly(rng, jets_max=4, allow_t=False)
        assert jacobi(total_derivative(P)).is_zero

    for _ in range(200):
        if rng.random() < 0.5:
            L = rand_poly(rng, jets_max=4, allow_t=False)
        else:
            L = rand_lagrangian(rng)
        lhs = total_derivative(jacobi(L)) + Q1 * euler_lagrange(L)
        assert lhs.is_zero

    for _ in range(200):
        L = total_derivative(rand_poly(rng, jets_max=4))
        assert is_null(L)
        assert total_derivative(extract_gauge(L).gauge) == L


def test_c11_numeric_conservation():
    system = derive_ode(l2())
    traj = integrate_rk4(system, (0.0, 1.0, 1.0, 0.0), 0.0, 1.0, 1e-3)
    rep = monitor(traj, jacobi(l2()))
    assert rep.max_rel_drift <= 1e-6

    # data lying on a Mobius function of t, where the Schwarzian vanishes
    traj = integrate_rk4(system, (1.0, -1.0, 2.0, -6.0), 0.0, 1.0, 1e-3)
    s3 = sigma(3)
    worst = max(
        abs(eval_expr(s3, {Jet(k): v for k, v in enumerate(state)}))
        for _, state in traj
    )
    assert worst <= 1e-8


def test_c12_integrator_convergence_order():
    system = derive_ode(l2())
    init = (0.0, 1.0, 1.0, 0.0)

    def terminal(h):
        return integrate_rk4(system, init, 0.0, 1.0, h)[-1][1]

    ref = terminal(1.25e-4)
    err_coarse = max(abs(a - b) for a, b in zip(terminal(1e-3), ref))
    err_fine = max(abs(a - b) for a, b in zip(terminal(5e-4), ref))
    assert 12 <= err_coarse / err_fine <= 20
