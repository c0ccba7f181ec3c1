"""Equations of motion as numeric ODE systems, RK4, drift monitoring."""

import math

import pytest

from jetvar import (
    Expr,
    Jet,
    MissingAtom,
    NullODE,
    NumericOverflow,
    NumericSingularity,
    Param,
    TIME,
    derive_ode,
    eval_expr,
    integrate_rk4,
    jacobi,
    l2,
    monitor,
    sigma,
    total_derivative,
)

Q0 = Expr.atom(Jet(0))
Q1 = Expr.atom(Jet(1))
Q2 = Expr.atom(Jet(2))
T = Expr.atom(TIME)


def test_eval_expr_basic():
    e = Q1 ** 2 / 2 + T * Q0
    v = eval_expr(e, {Jet(0): 2.0, Jet(1): 3.0, TIME: 0.5})
    assert v == pytest.approx(4.5 + 1.0)


def test_eval_expr_log():
    e = Expr.log(Q1)
    assert eval_expr(e, {Jet(1): math.e}) == pytest.approx(1.0)
    with pytest.raises(NumericSingularity):
        eval_expr(e, {Jet(1): -1.0})


def test_eval_expr_missing_atom():
    with pytest.raises(MissingAtom):
        eval_expr(Q1 * Expr.atom(Param("a1")), {Jet(1): 1.0})


def test_eval_expr_zero_denominator():
    with pytest.raises(NumericSingularity):
        eval_expr(1 / Q0, {Jet(0): 0.0})


def test_float_overflow_is_a_typed_error():
    with pytest.raises(NumericOverflow, match="coefficient"):
        eval_expr(Expr.const(2) ** 2000 * Q0, {Jet(0): 1.0})
    with pytest.raises(NumericOverflow, match="power"):
        eval_expr(Q0 ** 400, {Jet(0): 10.0})
    # q'' = 4 q^3 runs away; the overflow keeps the partial trajectory
    system = derive_ode(Q1 ** 2 / 2 + Q0 ** 4)
    with pytest.raises(NumericOverflow) as info:
        integrate_rk4(system, (1e5, 0.0), 0.0, 10.0, 0.1)
    assert len(info.value.trajectory) >= 2


def test_derive_ode_oscillator():
    L = Q1 ** 2 / 2 - Q0 ** 2 / 2
    system = derive_ode(L)
    assert system.order == 2
    assert system.rhs == -Q0


def test_derive_ode_null_rejected():
    with pytest.raises(NullODE):
        derive_ode(total_derivative(Q0 ** 2))


def test_same_solved_form_for_the_schwarzian_pair():
    # EL expressions of sigma(3) and L2 are negatives of one another, so
    # the solved equations of motion coincide exactly
    s = derive_ode(sigma(3))
    l = derive_ode(l2())
    assert s.order == l.order == 4
    assert s.rhs == l.rhs


def test_oscillator_trajectory_accuracy():
    L = Q1 ** 2 / 2 - Q0 ** 2 / 2
    system = derive_ode(L)
    traj = integrate_rk4(system, (0.0, 1.0), 0.0, 1.5, 1e-3)
    t_end, state = traj[-1]
    assert t_end == pytest.approx(1.5)
    assert len(traj) == 1501
    assert state[0] == pytest.approx(math.sin(1.5), abs=1e-9)
    assert state[1] == pytest.approx(math.cos(1.5), abs=1e-9)


def test_rk4_step_validation():
    system = derive_ode(Q1 ** 2 / 2 - Q0 ** 2 / 2)
    with pytest.raises(ValueError):
        integrate_rk4(system, (0.0, 1.0), 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        integrate_rk4(system, (0.0, 1.0), 1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        integrate_rk4(system, (0.0,), 0.0, 1.0, 0.1)


def test_singularity_carries_partial_trajectory():
    system = derive_ode(l2())
    with pytest.raises(NumericSingularity, match="denominator evaluated to zero") as info:
        integrate_rk4(system, (0.0, 0.0, 1.0, 0.0), 0.0, 1.0, 1e-3)
    traj = info.value.trajectory
    assert traj is not None and len(traj) == 1
    assert traj[0][0] == 0.0
    # the top coefficient of q*q'^2/2 is the polynomial -q, zero at q = 0
    system = derive_ode(Q0 * Q1 ** 2 / 2)
    with pytest.raises(NumericSingularity,
                       match="top-derivative coefficient within the singular guard") as info:
        integrate_rk4(system, (0.0, 1.0), 0.0, 1.0, 1e-3)
    assert info.value.trajectory == [(0.0, (0.0, 1.0))]


def test_monitor_constant_is_exactly_flat():
    system = derive_ode(Q1 ** 2 / 2 - Q0 ** 2 / 2)
    traj = integrate_rk4(system, (0.5, 0.0), 0.0, 1.0, 1e-2)
    rep = monitor(traj, Expr.const(1))
    assert rep.max_abs_drift == 0.0
    assert rep.max_rel_drift == 0.0


def test_monitor_oscillator_energy():
    L = Q1 ** 2 / 2 - Q0 ** 2 / 2
    system = derive_ode(L)
    traj = integrate_rk4(system, (0.5, 0.25), 0.0, 2.0, 1e-3)
    rep = monitor(traj, jacobi(L))
    assert rep.max_rel_drift <= 1e-10
    assert len(rep.samples) == len(traj)


def test_monitor_missing_state_entry():
    system = derive_ode(Q1 ** 2 / 2 - Q0 ** 2 / 2)
    traj = integrate_rk4(system, (0.5, 0.0), 0.0, 0.1, 1e-2)
    with pytest.raises(MissingAtom):
        monitor(traj, Expr.atom(Jet(5)))


def test_drift_shrinks_with_step_for_nonlinear_dynamics():
    system = derive_ode(l2())
    init = (0.0, 1.0, 1.0, 0.0)
    J = jacobi(l2())
    drifts = []
    for h in (4e-3, 2e-3, 1e-3):
        traj = integrate_rk4(system, init, 0.0, 0.5, h)
        drifts.append(monitor(traj, J).max_rel_drift)
    assert drifts[0] > drifts[1] > drifts[2]


def test_sigma5_dynamics_conserves_energy():
    system = derive_ode(sigma(5))
    assert system.order == 6
    traj = integrate_rk4(system, (0.0, 1.0, 1.0, 0.0, 0.0, 0.0), 0.0, 0.5, 1e-4)
    rep = monitor(traj, jacobi(sigma(5)))
    assert rep.max_rel_drift <= 1e-5


def test_time_dependent_lagrangian():
    # driven oscillator: L = q1^2/2 - q0^2/2 + t*q0 has EL solution with
    # steady part q = t; check the residual oscillation stays bounded
    L = Q1 ** 2 / 2 - Q0 ** 2 / 2 + T * Q0
    system = derive_ode(L)
    traj = integrate_rk4(system, (0.0, 1.0), 0.0, 6.0, 1e-3)
    t_end, state = traj[-1]
    assert state[0] == pytest.approx(t_end, abs=1e-8)
