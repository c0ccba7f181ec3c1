"""Floating-point spot checks for the exact machinery.

An Euler-Lagrange expression that is linear in its top derivative converts
to an explicit ODE q{m} = rhs(t, q0, ..., q{m-1}); a classical fixed-step
RK4 integrator follows the companion first-order system, and a drift report
measures how well a supposed constant of motion stays constant along the
trajectory.  All heavy lifting stays exact; floats appear only here.

Expressions are evaluated by generated Python source, built with compile
and exec in a private namespace.  A quotient num/den becomes straight-line
code: the denominator is summed and tested for zero, then the numerator is
summed, and their quotient taken.  A sum is ``s = 0.0 + t1 + t2 + ...``
over its terms, in chunks of at most _CHUNK terms (``s = s + ...`` after
the first), since one chained ``+`` of thousands of terms exceeds the
compiler's recursion limit.  A term is ``c * f1 * f2 ...``, factors in
ascending atom order, with c the repr of the coefficient's float; a
coefficient 1.0 is left out and -1.0 is a unary minus on the first factor,
and a factor x ** 1 is x.

Each evaluation point has one power table: a power x ** e, e >= 2, of a
non-log atom is bound to a local once, just before the first statement that
reads it, and every later term at that point reads the local.  A log factor
is ``_log(g(...)) ** e`` inline, where g is the generated evaluator of the
log's argument and _log rejects a nonpositive argument; a term with a log
factor ends its chunk.  So a power never runs ahead of its quotient's
zero-denominator test or of an earlier term's log, and the first failure
at a point is the one a term-by-term walk of the polynomials meets; an
OverflowError from a power becomes NumericOverflow.  Every float is what
that walk gives: x ** 1, 1.0 * x and -1.0 * x are exactly x, x and -x, and
the rest are the walk's own operations in its order.  The source holds only
generated names, float reprs and int exponents, never text of the
expression.

integrate_rk4 runs one generated loop per system, kept by _rk4_loop in an
LRU cache: the stage points and the slopes are locals unrolled over the
state components, and the guard and the rhs are inlined at each stage,
sharing the stage's power table.  monitor runs one generated loop over the
trajectory.  A generated function keeps its state in locals only, so
threads can share it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

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


_CHUNK = 100  # terms per generated sum statement


class _Source:
    """Namespace of one generated function, with one generated evaluator
    per log atom that it reads, over the slots of `atoms`.

    quotient gives (line, powers) pairs, powers naming the power locals
    that the line reads; bind turns pairs into the function's lines."""

    def __init__(self, atoms):
        self.atoms = tuple(atoms)
        self.ns = dict(_HELPERS)
        self.logs = {}
        self.unbound = {}  # power local -> the power it is to be bound to
        self.fresh = itertools.count()

    def quotient(self, e: Expr, names: dict, powers: dict, out: str) -> list:
        """Pairs that set `out` to the value of e, reading atom a from the
        local names[a] and a ** k from the local powers[a, k], the power
        table of the evaluation point, which gains what it lacks; every
        non-log atom of e must be among the slots."""
        _check_atoms(e, self.atoms)
        num = self._sum(e.num, names, powers, "s")
        den = self._sum(e.den, names, powers, "d")
        return [*den, ("if d == 0.0:", ()), ("    _zero_denominator()", ()),
                *num, (f"{out} = s / d", ())]

    def bind(self, pairs) -> list:
        """The lines of pairs, each power local bound just before the first
        line that reads it."""
        lines = []
        for line, powers in pairs:
            lines += [f"{w} = {self.unbound.pop(w)}" for w in powers
                      if w in self.unbound]
            lines.append(line)
        return lines

    def _sum(self, p: Polynomial, names: dict, powers: dict, acc: str) -> list:
        pairs, terms, reads = [], [], []
        last = len(p.terms) - 1
        for i, (mono, coeff) in enumerate(p.terms):
            factors = [self._factor(a, ex, names, powers, reads)
                       for a, ex in mono]
            try:
                c = float(coeff)
            except OverflowError:
                raise NumericOverflow(
                    f"coefficient of {coeff.bit_length()} bits does not fit"
                    " in a float") from None
            if not factors:
                factors = [repr(c)]
            elif c == -1.0:
                factors[0] = f"-{factors[0]}"
            elif c != 1.0:
                factors.insert(0, repr(c))
            terms.append(" * ".join(factors))
            # a log may raise, so no later term's power is bound before it
            if (i == last or len(terms) == _CHUNK
                    or any(isinstance(a, LogAtom) for a, _ in mono)):
                head = acc if pairs else "0.0"
                pairs.append((f"{acc} = {' + '.join([head, *terms])}", reads))
                terms, reads = [], []
        return pairs or [(f"{acc} = 0.0", ())]

    def _factor(self, atom, ex: int, names: dict, powers: dict,
                reads: list) -> str:
        # exponents in hex: decimal literals are capped at 4300 digits
        if isinstance(atom, LogAtom):
            g = self.logs.get(atom)
            if g is None:
                g = self.logs[atom] = f"_g{len(self.logs)}"
                self.ns[g] = _compile(atom.arg, self.atoms)
            args = ", ".join(names[a] for a in self.atoms)
            return f"_log({g}({args}))" + (f" ** {ex:#x}" if ex > 1 else "")
        if ex == 1:
            return names[atom]
        w = powers.get((atom, ex))
        if w is None:
            w = powers[atom, ex] = f"w{next(self.fresh)}"
            self.unbound[w] = f"{names[atom]} ** {ex:#x}"
        reads.append(w)
        return w

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


def _point(e: Expr, atoms):
    """(code, params, body): the _Source over atoms, the names x0, x1, ...
    of their values, and the lines that set v to the value of e there."""
    code = _Source(atoms)
    names = {a: f"x{i}" for i, a in enumerate(code.atoms)}
    return code, list(names.values()), code.bind(
        code.quotient(e, names, {}, "v"))


def _compile(e: Expr, atoms):
    """Evaluator f(x0, x1, ...) of e, where x{i} is the value of atoms[i]."""
    code, params, body = _point(e, atoms)
    return code.define(", ".join(params), body, "v")


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


@lru_cache(maxsize=8)
def _rk4_loop(sys: ODESystem):
    """Generated run(traj, steps, t0, h, y0, ..., y{m-1}) that appends
    each step's (t, state) to traj; cached per system, and safe to share
    between threads, since it keeps its state in locals.

    Stage k of step i evaluates the guard, then the rhs rk, at the point
    (tk, pk0, ..., pk{m-1}), binding the powers of that point in one table
    that the two share; the slope there is (pk1, ..., pk{m-1}, rk), since
    the companion system shifts the state by one.  Every float comes from
    the operations of the textbook update, in its order: stage points
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
        names, powers = dict(zip(atoms, [tk, *p])), {}
        # the rhs is generated first, so that its missing atom or
        # oversized coefficient is the one reported
        rhs = code.quotient(sys.rhs, names, powers, f"r{k}")
        guard = code.quotient(sys.singular_set, names, powers, "g")
        body += [f"    {line}" for line in code.bind([
            *guard, (f"if abs(g) < {SINGULAR_GUARD!r}:", ()),
            (f"    _guard_abort(i, {tk}, g)", ()), *rhs])]
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
    code, params, body = _point(e, _state_atoms(len(traj[0][1])))
    state = "".join(f"{x}, " for x in params[1:])
    run = code.define("traj", [
        "samples = []", "append = samples.append",
        f"for x0, ({state}) in traj:", *(f"    {line}" for line in body),
        "    append((x0, v))"], "samples")
    samples = tuple(run(traj))
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
