"""Floating-point spot checks for the exact machinery.

An Euler-Lagrange expression that is linear in its top derivative converts
to an explicit ODE q{m} = rhs(t, q0, ..., q{m-1}); a classical fixed-step
RK4 integrator follows the companion first-order system, and a drift report
measures how well a supposed constant of motion stays constant along the
trajectory.  All heavy lifting stays exact; floats appear only here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .atoms import TIME, Atom, Jet, LogAtom
from .errors import MissingAtom, NullODE, NumericOverflow, NumericSingularity
from .expr import Expr
from .poly import Polynomial
from .variational import euler_lagrange, isolate_top

SINGULAR_GUARD = 1e-12


@dataclass(frozen=True)
class ODESystem:
    """Explicit top-derivative form q{order} = rhs, singular where the
    top-derivative coefficient vanishes."""

    order: int
    rhs: Expr
    singular_set: Expr


@dataclass(frozen=True)
class DriftReport:
    """Evaluations of a monitored expression along a trajectory."""

    samples: tuple
    max_abs_drift: float
    max_rel_drift: float


# -- evaluation ---------------------------------------------------------------


def _compile_poly(p: Polynomial, slots: dict):
    terms = []
    for mono, coeff in p.terms:
        factors = tuple(
            (_compile(atom.arg, slots) if isinstance(atom, LogAtom)
             else slots[atom], ex)
            for atom, ex in mono)
        try:
            terms.append((float(coeff), factors))
        except OverflowError:
            raise NumericOverflow(
                f"coefficient of {coeff.bit_length()} bits does not fit in a float"
            ) from None
    return tuple(terms)


def _eval_terms(terms, y) -> float:
    total = 0.0
    for c, factors in terms:
        v = c
        for f, ex in factors:
            if type(f) is int:
                x = y[f]
            else:
                x = f(y)
                if x <= 0.0:
                    raise NumericSingularity(
                        "log argument is not positive at the evaluation point")
                x = math.log(x)
            try:
                v *= x ** ex
            except OverflowError:
                raise NumericOverflow(
                    "a power does not fit in a float at the evaluation point"
                ) from None
        total += v
    return total


def _compile(e: Expr, slots: dict):
    """Evaluator f(y) of e that reads atom a from y[slots[a]]."""
    num_terms = _compile_poly(e.num, slots)
    den_terms = _compile_poly(e.den, slots)

    def f(y) -> float:
        den = _eval_terms(den_terms, y)
        if den == 0.0:
            raise NumericSingularity("denominator evaluated to zero")
        return _eval_terms(num_terms, y) / den

    return f


def _evaluator(e: Expr, atoms):
    """_compile over a slot per atom, in order; every non-log atom of e
    must be among them."""
    slots = {a: i for i, a in enumerate(atoms)}
    missing = sorted(
        (a for a in e.all_atoms()
         if not isinstance(a, LogAtom) and a not in slots),
        key=Atom.sort_key,
    )
    if missing:
        from .render import atom_label

        names = ", ".join(atom_label(a) for a in missing)
        raise MissingAtom(f"evaluation point lacks {names}")
    return _compile(e, slots)


def _state_atoms(order: int) -> tuple:
    """Atoms of the point (t, q0, ..., q{order-1}) of a trajectory."""
    return (TIME,) + tuple(Jet(k) for k in range(order))


def eval_expr(e: Expr, point: dict) -> float:
    """IEEE double value of e at a point mapping atoms to floats."""
    return _evaluator(e, point)(tuple(point.values()))


# -- dynamics -----------------------------------------------------------------


def derive_ode(L: Expr) -> ODESystem:
    """Explicit ODE from the Euler-Lagrange expression of L."""
    E = euler_lagrange(L)
    if E.is_zero:
        raise NullODE("null Lagrangian: the Euler-Lagrange expression is 0")
    iso = isolate_top(E)
    rhs = -(iso.remainder / iso.coefficient)
    return ODESystem(order=iso.order, rhs=rhs, singular_set=iso.coefficient)


def integrate_rk4(sys: ODESystem, init, t0: float, t1: float, h: float):
    """Classical fixed-step RK4 trajectory of the companion system.

    Returns a list of (t, state) with state = (q0, ..., q{m-1}).  Raises
    ValueError for a bad time argument or initial state, and aborts
    with NumericSingularity carrying the partial trajectory when the
    top-derivative coefficient falls below the singular guard or a
    denominator vanishes.
    """
    if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(h)):
        raise ValueError("t0, t1 and h must be finite")
    if h <= 0:
        raise ValueError("step size must be positive")
    if t1 <= t0:
        raise ValueError("integration interval is empty")
    steps = (t1 - t0) / h
    if not math.isfinite(steps):
        raise ValueError("the number of steps is not finite")
    m = sys.order
    if len(init) != m:
        raise ValueError(f"initial state must have {m} components")

    frhs = _evaluator(sys.rhs, _state_atoms(m))
    fguard = _evaluator(sys.singular_set, _state_atoms(m))

    def deriv(t, y):
        point = (t, *y)
        if abs(fguard(point)) < SINGULAR_GUARD:
            raise NumericSingularity(
                "top-derivative coefficient within the singular guard")
        return y[1:] + (frhs(point),)

    y = tuple(float(v) for v in init)
    traj = [(t0, y)]
    steps = max(1, round(steps))
    h2 = h / 2.0
    try:
        for i in range(steps):
            t = t0 + i * h
            k1 = deriv(t, y)
            k2 = deriv(t + h2, tuple(y[j] + h2 * k1[j] for j in range(m)))
            k3 = deriv(t + h2, tuple(y[j] + h2 * k2[j] for j in range(m)))
            k4 = deriv(t + h, tuple(y[j] + h * k3[j] for j in range(m)))
            y = tuple(
                y[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
                for j in range(m)
            )
            traj.append((t0 + (i + 1) * h, y))
    except NumericSingularity as exc:
        raise type(exc)(str(exc), trajectory=traj) from None
    return traj


def monitor(traj, e: Expr) -> DriftReport:
    """Evaluate e along a trajectory and report drift from its first value."""
    if not traj:
        raise ValueError("trajectory is empty")
    m = len(traj[0][1])
    f = _evaluator(e, _state_atoms(m))
    samples = tuple((t, f((t, *y))) for t, y in traj)
    v0 = samples[0][1]
    max_abs = max(abs(v - v0) for _, v in samples)
    if v0 != 0.0:
        max_rel = max_abs / abs(v0)
    else:
        max_rel = 0.0 if max_abs == 0.0 else math.inf
    return DriftReport(samples=samples, max_abs_drift=max_abs,
                       max_rel_drift=max_rel)
