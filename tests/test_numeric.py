"""Equations of motion as numeric ODE systems, RK4, drift monitoring."""

import hashlib
import math
import time

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
    parse_expr,
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


def test_a_power_does_not_fail_ahead_of_an_earlier_failure():
    # q^400 and q''^3 overflow here, but each point fails where a
    # term-by-term walk fails first: at a zero denominator, which is tested
    # before its numerator, or at the nonpositive log of an earlier term
    with pytest.raises(NumericSingularity,
                       match="denominator evaluated to zero") as info:
        eval_expr(Q0 ** 400 / Q1, {Jet(0): 1e10, Jet(1): 0.0})
    assert type(info.value) is NumericSingularity
    # the guard of L2() is 1/q'^2, and its rhs is (... - 3 q''^3)/q'^2
    with pytest.raises(NumericSingularity,
                       match="denominator evaluated to zero") as info:
        integrate_rk4(derive_ode(l2()), (0.0, 0.0, 1e200, 0.0), 0.0, 1.0, 1e-3)
    assert type(info.value) is NumericSingularity
    # log(q')^401 is the first term of the sum, being of higher degree
    with pytest.raises(NumericSingularity,
                       match="log argument is not positive") as info:
        eval_expr(Expr.log(Q1) ** 401 + Q0 ** 400, {Jet(0): 1e10, Jet(1): -1.0})
    assert type(info.value) is NumericSingularity


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


# (Lagrangian, initial state, t0, t1, h); the last run aborts at the
# singular guard, where its top coefficient t - 1/2 vanishes
GOLDEN_RUNS = [
    ("L2()", (0.1, 1.0, 0.9, -0.2), 0.0, 1.0, 1e-3),
    ("sigma(5)", (0.0, 1.0, 0.2, -0.1, 0.05, 0.0), 0.0, 0.5, 1e-3),
    ("sigma(3)", (0.0, 1.0, 1.0, 0.0), 0.0, 0.5, 2e-3),
    ("q'^2/2 - q^2/2 + t*q", (0.0, 1.0), 0.0, 6.0, 1e-2),
    ("q'^2/2*log(q + 3) - q^4/4", (0.5, 0.2), 0.0, 2.0, 1e-2),
    ("(t - 1/2)*q'^2/2 - q^2/2", (1.0, 0.0), 0.0, 1.0, 0.125),
]
# recorded with the term-by-term interpreter that the generated source
# replaced; the floats of a trajectory and of its drift must not move
GOLDEN_SHA256 = "e59bc29c80f86ac220e2f14772ac504891b9e8a6236d60efd79fb3ad5556e687"


def test_trajectories_and_drift_match_the_recorded_floats():
    blob = []
    for src, init, t0, t1, h in GOLDEN_RUNS:
        L = parse_expr(src)
        try:
            traj = integrate_rk4(derive_ode(L), init, t0, t1, h)
        except NumericSingularity as exc:
            assert "singular guard at step 3 (t = 0.5, value 0.0)" in str(exc)
            traj = exc.trajectory
        blob += [repr(traj), repr(monitor(traj, jacobi(L)))]
    digest = hashlib.sha256("\n".join(blob).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


def test_evaluator_size_and_depth():
    # 4060 terms: one sum cut into statements, so no compiler recursion
    e = (Q0 + Q1 + T + 1) ** 27
    assert len(e.num.terms) >= 4000
    start = time.perf_counter()
    v = eval_expr(e, {Jet(0): 0.1, Jet(1): 0.1, TIME: 0.1})
    assert time.perf_counter() - start < 1.0
    assert v == pytest.approx(1.3 ** 27, rel=1e-12)
    # 60 nested logs, each a generated evaluator called from its parent
    e, want = Q1, 1.0
    for _ in range(60):
        e, want = Expr.log(e + 2), math.log(want + 2)
    start = time.perf_counter()
    v = eval_expr(e, {Jet(1): 1.0})
    assert time.perf_counter() - start < 1.0
    assert v == pytest.approx(want)


def test_non_finite_values_are_typed_errors():
    with pytest.raises(NumericOverflow, match="inf, not a finite float"):
        eval_expr(Expr.const(10) ** 300 * Q0 ** 2, {Jet(0): 1e10})
    with pytest.raises(NumericOverflow, match="nan, not a finite float"):
        eval_expr(Q0 - Q1, {Jet(0): math.inf, Jet(1): math.inf})
    system = derive_ode(Q1 ** 2 / 2 - Expr.const(10) ** 300 * Q0 ** 2 / 2)
    with pytest.raises(NumericOverflow,
                       match=r"not finite after step 0 \(t = 0.1\)") as info:
        integrate_rk4(system, (1.0, 0.0), 0.0, 0.3, 0.1)
    assert info.value.trajectory == [(0.0, (1.0, 0.0))]
    for init in ((math.nan, 0.0), (1.0, -math.inf)):
        with pytest.raises(ValueError, match="initial state must be finite"):
            integrate_rk4(system, init, 0.0, 0.3, 0.1)
    traj = [(0.0, (1.0, 0.0)), (0.5, (1e10, 0.0))]
    with pytest.raises(NumericOverflow, match="at t = 0.5 is inf"):
        monitor(traj, Expr.const(10) ** 300 * Q0)


def test_order_zero_system_has_empty_states():
    # the Euler-Lagrange expression of q^2 is 2q: no derivative to follow
    system = derive_ode(Q0 ** 2)
    assert system.order == 0
    traj = integrate_rk4(system, (), 0.0, 0.2, 0.1)
    assert traj == [(0.0, ()), (0.1, ()), (0.2, ())]
    rep = monitor(traj, Expr.const(3))
    assert rep.samples == ((0.0, 3.0), (0.1, 3.0), (0.2, 3.0))
    assert rep.max_abs_drift == rep.max_rel_drift == 0.0
