"""Command-line interface.

Each subcommand is named once, in ``_COMMANDS``, with its help text, action
and arguments.  An action returns an ``Expr``, which ``run_cli`` prints in
the ``--format`` chosen (only those subcommands take it), or prints its own
lines and returns the exit code.  Each reads one expression from its
positional argument, or from stdin when that is omitted.  Exit codes: 0
success or affirmative verdict, 1 negative verdict, 2 usage or parse error,
3 computation error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .atoms import Jet, LogAtom
from .errors import JetvarError, NumericSingularity, ParseError
from .expr import Expr
from .hierarchy import BUILTIN_NAMES, builtin
from .jets import total_derivative
from .numeric import derive_ode, eval_expr, integrate_rk4, monitor
from .parser import _DIGITS, parse_expr
from .poly import decimal_int, decimal_text
from .render import atom_label, render
from .sl2 import sl2_residues
from .variational import euler_lagrange, extract_gauge, is_null, jacobi

_FORMATS = {"canonical": "canonical-text", "latex": "latex", "json": "json-ast"}


class _UsageError(Exception):
    """A bad argument value that argparse let through (exit 2)."""


def _arg(*flags, **kwargs):
    return flags, kwargs


_FORMAT = _arg("--format", choices=sorted(_FORMATS), default="canonical",
               help="output form for expressions")
_EXPR = _arg("expr", nargs="?", help="expression source (stdin when omitted)")


def _expr(ns) -> Expr:
    return parse_expr(ns.expr if ns.expr is not None else sys.stdin.read())


def _dt(ns) -> Expr:
    e = _expr(ns)
    if ns.k < 1:
        raise _UsageError("-k must be a positive integer")
    return total_derivative(e, ns.k)


def _null_check(ns) -> int:
    null = is_null(_expr(ns))
    print("null" if null else "not-null")
    return 0 if null else 1


def _order(ns) -> int:
    n = _expr(ns).jet_order()
    print("none" if n is None else decimal_text(n))
    return 0


def _sl2(ns) -> int:
    rep = sl2_residues(_expr(ns))
    mode = _FORMATS[ns.format]
    print(f"translation: {render(rep.residue_translation, mode)}")
    print(f"scaling: {render(rep.residue_scaling, mode)}")
    print(f"special: {render(rep.residue_special, mode)}")
    print("invariant" if rep.invariant else "not-invariant")
    return 0 if rep.invariant else 1


def _atom_for(name: str):
    """The atom an --at name assigns: ``q<k>`` (ASCII digits k) is the k-th
    jet, and any other name must parse to one atom that is not a log."""
    if name[:1] == "q" and name[1:] and set(name[1:]) <= _DIGITS:
        return Jet(decimal_int(name[1:]))
    try:
        e = parse_expr(name)
    except JetvarError:
        e = None
    for a in e.atoms() if e is not None else ():
        if not isinstance(a, LogAtom) and e == Expr.atom(a):
            return a
    raise _UsageError(f"--at name {name!r} is not a jet, t or a parameter")


def _eval(ns) -> int:
    e = _expr(ns)
    point = {}
    for item in filter(None, map(str.strip, ns.at.split(","))):
        name, eq, value = item.partition("=")
        if not eq:
            raise _UsageError(f"assignment {item!r} lacks '='")
        atom = _atom_for(name.strip())
        if atom in point:
            raise _UsageError(f"--at assigns {atom_label(atom)} twice")
        try:
            point[atom] = float(value)
        except ValueError as exc:
            raise _UsageError(exc) from None
    print(repr(eval_expr(e, point)))
    return 0


def _ode_run(ns) -> int:
    system = derive_ode(parse_expr(ns.lagrangian))
    try:
        init = tuple(float(v) for v in ns.init.split(","))
    except ValueError:
        raise _UsageError("--init must be comma-separated floats, "
                          f"got {ns.init!r}") from None
    if len(init) != system.order:
        raise _UsageError(f"dynamics has order {system.order}; --init needs "
                          f"{system.order} values")
    mon_expr = parse_expr(ns.monitor) if ns.monitor is not None else None
    failure = None
    try:
        traj = integrate_rk4(system, init, ns.t0, ns.t1, ns.h)
    except NumericSingularity as exc:
        # the rows reached before the singularity are printed as usual
        traj, failure = exc.trajectory, exc
    except ValueError as exc:
        raise _UsageError(exc) from None
    if traj:
        header = ["t"] + [f"q{k}" for k in range(system.order)]
        rows = [(t, *state) for t, state in traj]
        if mon_expr is not None:
            header.append("monitored")
            samples = monitor(traj, mon_expr).samples
            rows = [(*row, v) for row, (_, v) in zip(rows, samples)]
        print(",".join(header))
        for row in rows:
            print(",".join(map(repr, row)))
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 3
    return 0


# name -> (help, action, arguments).  The actions look the library up when
# they run, so a wrapper installed on a library function sees these calls.
_COMMANDS = {
    "simplify": ("canonical form of an expression", _expr, (_FORMAT, _EXPR)),
    "dt": ("total time derivative", _dt, (
        _FORMAT, _EXPR, _arg("-k", type=int, default=1,
                             help="derivative order"))),
    "el": ("Euler-Lagrange expression",
           lambda ns: euler_lagrange(_expr(ns)), (_FORMAT, _EXPR)),
    "jacobi": ("energy function",
               lambda ns: jacobi(_expr(ns)), (_FORMAT, _EXPR)),
    "null-check": ("decide whether a Lagrangian is null", _null_check,
                   (_EXPR,)),
    "gauge": ("gauge function of a null Lagrangian",
              lambda ns: extract_gauge(_expr(ns)).gauge, (_FORMAT, _EXPR)),
    "order": ("largest jet order present", _order, (_EXPR,)),
    "sl2": ("SL(2,R) invariance residues and verdict", _sl2,
            (_FORMAT, _EXPR)),
    "builtin": ("expression of a built-in family",
                lambda ns: builtin(ns.name, ns.order), (
                    _FORMAT, _arg("name", choices=BUILTIN_NAMES),
                    _arg("order", nargs="?", type=int))),
    "ode-run": ("integrate the dynamics of a Lagrangian", _ode_run, (
        _arg("--lagrangian", required=True),
        _arg("--init", required=True,
             help="comma-separated initial state q0,...,q(m-1)"),
        _arg("--t0", type=float, required=True),
        _arg("--t1", type=float, required=True),
        _arg("--h", type=float, required=True),
        _arg("--monitor", help="expression sampled along the run"))),
    "eval": ("floating-point value at a jet point", _eval, (
        _EXPR, _arg("--at", required=True, help="comma-separated "
                    "assignments, e.g. q1=1,q2=0.5,t=0"))),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    p = argparse.ArgumentParser(
        prog="jetvar",
        description="exact variational calculus on jet expressions")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_, action, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for flags, kwargs in arguments:
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(action=action)
    return p


def run_cli(argv) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = ns.action(ns)
        if isinstance(result, Expr):
            print(render(result, _FORMATS[ns.format]))
            return 0
        return result
    except (ParseError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JetvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(run_cli(sys.argv[1:]))
