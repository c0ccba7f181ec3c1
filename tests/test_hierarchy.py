"""Built-in Lagrangian families and their defining recurrences."""

import inspect
import sys

import pytest

from jetvar import hierarchy
from jetvar import (
    Expr,
    Jet,
    UnsupportedOrder,
    builtin,
    l2,
    pre_schwarzian,
    schippers,
    sigma,
    total_derivative,
)

Q1 = Expr.atom(Jet(1))
Q2 = Expr.atom(Jet(2))
Q3 = Expr.atom(Jet(3))


def test_base_expressions():
    assert pre_schwarzian() == Q2 / Q1
    assert l2() == Expr.const(1) / 2 * (Q2 / Q1) ** 2
    assert sigma(3) == Q3 / Q1 - Expr.const(3) / 2 * (Q2 / Q1) ** 2
    assert schippers(3) == sigma(3)


def test_sigma_recurrences():
    assert sigma(4) == total_derivative(sigma(3))
    assert sigma(5) == total_derivative(sigma(4)) - sigma(3) ** 2
    assert sigma(6) == total_derivative(sigma(5))


def test_schippers_recurrence():
    v = pre_schwarzian()
    for n in range(3, 7):
        expect = total_derivative(schippers(n)) - (n - 1) * v * schippers(n)
        assert schippers(n + 1) == expect


def test_schippers_builds_orders_in_a_loop():
    # From an empty memo, with room on the stack for the work of one order
    # but not for a frame per order: built recursively, schippers(12)
    # needed 28 frames here, and built in a loop it needs 14.
    hierarchy._SCHIPPERS.clear()
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 24)
    try:
        s12 = schippers(12)
    finally:
        sys.setrecursionlimit(old)
    assert s12.jet_order() == 12
    assert s12 == total_derivative(schippers(11)) - 10 * pre_schwarzian() * schippers(11)
    assert schippers(12) is s12


def test_families_diverge_at_order_four():
    assert schippers(4) != sigma(4)
    assert schippers(4) - sigma(4) == -2 * Q2 * sigma(3) / Q1


def test_jet_orders():
    for n in range(3, 7):
        assert sigma(n).jet_order() == n
        assert schippers(n).jet_order() == n


def _prime_weight_euler(e):
    # Euler operator for the grading that counts one unit per prime:
    # q^(k) carries weight k, so the operator is sum_k k*q^(k)*d/dq^(k)
    out = Expr.const(0)
    for atom in e.all_atoms():
        if isinstance(atom, Jet):
            out = out + atom.order * Expr.atom(atom) * e.partial(atom)
    return out


def test_homogeneity_weight():
    # every family member of order n is homogeneous of prime-weight n-1
    for n in range(3, 7):
        assert _prime_weight_euler(sigma(n)) == (n - 1) * sigma(n)
        assert _prime_weight_euler(schippers(n)) == (n - 1) * schippers(n)
    assert _prime_weight_euler(pre_schwarzian()) == pre_schwarzian()
    assert _prime_weight_euler(l2()) == 2 * l2()


def test_out_of_range_orders():
    with pytest.raises(UnsupportedOrder):
        sigma(2)
    with pytest.raises(UnsupportedOrder):
        sigma(7)
    with pytest.raises(UnsupportedOrder):
        schippers(2)
    with pytest.raises(UnsupportedOrder):
        schippers(-10**5000)


def test_builtin_dispatch():
    assert builtin("presch") == pre_schwarzian()
    assert builtin("L2") == l2()
    assert builtin("sigma", 5) == sigma(5)
    assert builtin("schippers", 4) == schippers(4)
    with pytest.raises(UnsupportedOrder):
        builtin("sigma")
    with pytest.raises(UnsupportedOrder):
        builtin("presch", 3)
    with pytest.raises(UnsupportedOrder):
        builtin("unknown")
