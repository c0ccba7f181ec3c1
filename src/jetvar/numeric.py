"""Floating-point spot checks for the exact machinery.

An Euler-Lagrange expression that is linear in its top derivative converts
to an explicit ODE q{m} = rhs(t, q0, ..., q{m-1}); a classical fixed-step
RK4 integrator follows the companion first-order system, and a drift report
measures how well a supposed constant of motion stays constant along the
trajectory.  All heavy lifting stays exact; floats appear only here.

Expressions are evaluated by generated Python source, built with compile
and exec in a private namespace.  A quotient num/den becomes straight-line
code: the denominator is summed and tested for zero, then the numerator is
summed, and their quotient taken.  A sum is ``s = 0.0`` followed by one
statement ``s += c * x1 ** e1 * x2 ** e2`` per term, monomial factors in
ascending atom order, with c the repr of the coefficient's float.  Python
evaluates that left to right, so every float equals what a term-by-term
walk of the polynomial gives, and an OverflowError from a power surfaces at
the same factor; it becomes NumericOverflow.  Each term is a statement of
its own because one chained ``+`` of thousands of terms exceeds the
compiler's recursion limit.  A log factor is ``_log(g(...))``, where g is
the generated evaluator of the log's argument and _log rejects a
nonpositive argument.  The source holds only generated names, float reprs
and int exponents, never text of the expression.

integrate_rk4 generates one loop per system, with the stage points and the
slopes as locals unrolled over the state components, and the guard and the
rhs inlined at each stage.
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


def _log(x):
    if x <= 0.0:
        raise NumericSingularity(
            "log argument is not positive at the evaluation point")
    return math.log(x)


def _zero_denominator():
    raise NumericSingularity("denominator evaluated to zero")


def _power_overflow():
    raise NumericOverflow(
        "a power does not fit in a float at the evaluation point") from None


def _guard_abort(step, t, value):
    raise NumericSingularity(
        "top-derivative coefficient within the singular guard"
        f" at step {step} (t = {t!r}, value {value!r})")


def _state_overflow(step, t):
    raise NumericOverflow(
        f"the state is not finite after step {step} (t = {t!r})")


_HELPERS = {f.__name__: f for f in (
    _log, _zero_denominator, _power_overflow, _guard_abort, _state_overflow)}


class _Source:
    """Namespace of one generated function, with one generated evaluator
    per log atom that it reads, over the slots of `atoms`."""

    def __init__(self, atoms):
        self.atoms = tuple(atoms)
        self.ns = dict(_HELPERS)
        self.logs = {}

    def quotient(self, e: Expr, names: dict, out: str) -> list:
        """Statements that set `out` to the value of e, reading atom a
        from the local names[a]; every non-log atom of e must be among
        the slots."""
        _check_atoms(e, self.atoms)
        num = self._sum(e.num, names, "s")
        den = self._sum(e.den, names, "d")
        return [*den, "if d == 0.0:", "    _zero_denominator()", *num,
                f"{out} = s / d"]

    def _sum(self, p: Polynomial, names: dict, acc: str) -> list:
        lines = [f"{acc} = 0.0"]
        for mono, coeff in p.terms:
            # exponents in hex: decimal literals are capped at 4300 digits
            factors = "".join(f" * {self._factor(a, names)} ** {ex:#x}"
                              for a, ex in mono)
            try:
                c = repr(float(coeff))
            except OverflowError:
                raise NumericOverflow(
                    f"coefficient of {coeff.bit_length()} bits does not fit"
                    " in a float") from None
            lines.append(f"{acc} += {c}{factors}")
        return lines

    def _factor(self, atom, names: dict) -> str:
        if not isinstance(atom, LogAtom):
            return names[atom]
        g = self.logs.get(atom)
        if g is None:
            g = self.logs[atom] = f"_g{len(self.logs)}"
            self.ns[g] = _compile(atom.arg, self.atoms)
        args = ", ".join(names[a] for a in self.atoms)
        return f"_log({g}({args}))"

    def define(self, params: str, body: list, ret: str):
        """The function ``f(params)`` that runs body, turning an
        OverflowError into NumericOverflow, and returns ret."""
        src = "\n".join([
            f"def f({params}):",
            "    try:",
            *(f"        {line}" for line in body),
            "    except OverflowError:",
            "        _power_overflow()",
            f"    return {ret}",
        ])
        exec(compile(src, "<jetvar.numeric>", "exec"), self.ns)
        # popped, so that f and its globals form no cycle for the gc
        return self.ns.pop("f")


def _compile(e: Expr, atoms):
    """Evaluator f(x0, x1, ...) of e, where x{i} is the value of atoms[i]."""
    code = _Source(atoms)
    names = {a: f"x{i}" for i, a in enumerate(code.atoms)}
    body = code.quotient(e, names, "v")
    return code.define(", ".join(names.values()), body, "v")


def _check_atoms(e: Expr, atoms) -> None:
    """Raise MissingAtom, naming them, unless every non-log atom of e is
    among atoms."""
    missing = sorted(
        (a for a in e.all_atoms()
         if not isinstance(a, LogAtom) and a not in atoms),
        key=Atom.sort_key,
    )
    if missing:
        from .render import atom_label

        names = ", ".join(atom_label(a) for a in missing)
        raise MissingAtom(f"evaluation point lacks {names}")


def _state_atoms(order: int) -> tuple:
    """Atoms of the point (t, q0, ..., q{order-1}) of a trajectory."""
    return (TIME,) + tuple(Jet(k) for k in range(order))


def eval_expr(e: Expr, point: dict) -> float:
    """IEEE double value of e at a point mapping atoms to floats; raises
    NumericOverflow rather than return an infinity or a NaN."""
    v = _compile(e, tuple(point))(*point.values())
    if not math.isfinite(v):
        raise NumericOverflow(
            f"the value at the evaluation point is {v!r}, not a finite float")
    return v


# -- dynamics -----------------------------------------------------------------


def derive_ode(L: Expr) -> ODESystem:
    """Explicit ODE from the Euler-Lagrange expression of L."""
    E = euler_lagrange(L)
    if E.is_zero:
        raise NullODE("null Lagrangian: the Euler-Lagrange expression is 0")
    iso = isolate_top(E)
    rhs = -(iso.remainder / iso.coefficient)
    return ODESystem(order=iso.order, rhs=rhs, singular_set=iso.coefficient)


def _rk4_loop(sys: ODESystem):
    """Generated run(traj, steps, t0, h, y0, ..., y{m-1}) that appends
    each step's (t, state) to traj.

    Stage k of step i evaluates the guard, then the rhs rk, at the point
    (tk, pk0, ..., pk{m-1}); the slope there is (pk1, ..., pk{m-1}, rk),
    since the companion system shifts the state by one.  Every float comes
    from the operations of the textbook update, in its order: stage points
    y + h2 * k and y + h * k, then y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3
    + k4), at t = t0 + i * h."""
    m = sys.order
    atoms = _state_atoms(m)
    code = _Source(atoms)
    ys = [f"y{j}" for j in range(m)]
    body = ["for i in range(steps):", "    t = t0 + i * h",
            "    th = t + h2", "    te = t + h"]
    slopes = []
    for k, tk, step in ((1, "t", None), (2, "th", "h2"), (3, "th", "h2"),
                        (4, "te", "h")):
        if step is None:
            p = ys
        else:
            p = [f"p{k}{j}" for j in range(m)]
            body += [f"    {p[j]} = y{j} + {step} * {slopes[-1][j]}"
                     for j in range(m)]
        names = dict(zip(atoms, [tk, *p]))
        # the rhs is generated first, so that its missing atom or
        # oversized coefficient is the one reported
        rhs = code.quotient(sys.rhs, names, f"r{k}")
        guard = code.quotient(sys.singular_set, names, "g")
        body += [f"    {line}" for line in guard]
        body += [f"    if abs(g) < {SINGULAR_GUARD!r}:",
                 f"        _guard_abort(i, {tk}, g)"]
        body += [f"    {line}" for line in rhs]
        slopes.append(p[1:] + [f"r{k}"])
    k1, k2, k3, k4 = slopes
    # in place, in increasing j: k1[j] is y{j + 1}, not yet updated
    body += [f"    y{j} = y{j} + h / 6.0 * ({k1[j]} + 2.0 * {k2[j]}"
             f" + 2.0 * {k3[j]} + {k4[j]})" for j in range(m)]
    # a finite y times 0.0 is a signed zero; an inf or a NaN gives a NaN.
    # An order-0 system has an empty state.
    finite = " + ".join(f"y{j} * 0.0" for j in range(m)) or "0.0"
    state = "".join(f"{y}, " for y in ys)
    body += [f"    if {finite} != 0.0:",
             "        _state_overflow(i, t0 + (i + 1) * h)",
             f"    append((t0 + (i + 1) * h, ({state})))"]
    return code.define(f"traj, steps, t0, h, {state}",
                       ["h2 = h / 2.0", "append = traj.append", *body],
                       "traj")


def integrate_rk4(sys: ODESystem, init, t0: float, t1: float, h: float):
    """Classical fixed-step RK4 trajectory of the companion system.

    Returns a list of (t, state) with state = (q0, ..., q{m-1}).  Raises
    ValueError for a bad time argument or initial state.  Aborts with
    NumericSingularity carrying the partial trajectory when the
    top-derivative coefficient falls below the singular guard or a
    denominator vanishes, and with its subclass NumericOverflow when a
    power overflows or a step leaves a state that is not finite.
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
    y = tuple(float(v) for v in init)
    if not all(map(math.isfinite, y)):
        raise ValueError("initial state must be finite")

    run = _rk4_loop(sys)
    traj = [(t0, y)]
    try:
        run(traj, max(1, round(steps)), t0, h, *y)
    except NumericSingularity as exc:
        raise type(exc)(str(exc), trajectory=traj) from None
    return traj


def monitor(traj, e: Expr) -> DriftReport:
    """Evaluate e along a trajectory and report drift from its first value.

    Raises NumericOverflow where e is not finite along the trajectory."""
    if not traj:
        raise ValueError("trajectory is empty")
    m = len(traj[0][1])
    f = _compile(e, _state_atoms(m))
    samples = tuple((t, f(t, *y)) for t, y in traj)
    bad = next(((t, v) for t, v in samples if not math.isfinite(v)), None)
    if bad is not None:
        raise NumericOverflow(
            "the monitored value at t = {!r} is {!r}, not a finite float"
            .format(*bad))
    v0 = samples[0][1]
    max_abs = max(abs(v - v0) for _, v in samples)
    if v0 != 0.0:
        max_rel = max_abs / abs(v0)
    else:
        max_rel = 0.0 if max_abs == 0.0 else math.inf
    return DriftReport(samples=samples, max_abs_drift=max_abs,
                       max_rel_drift=max_rel)
