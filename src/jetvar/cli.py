"""Command-line interface.

Each subcommand reads one expression from its positional argument, or from
stdin when the argument is omitted.  Exit codes: 0 success or affirmative
verdict, 1 negative verdict, 2 usage or parse error, 3 computation error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import JetvarError, NumericSingularity, ParseError
from .hierarchy import BUILTIN_NAMES, builtin
from .jets import total_derivative
from .numeric import derive_ode, eval_expr, integrate_rk4, monitor
from .parser import parse_expr
from .poly import decimal_text
from .render import render
from .sl2 import sl2_residues
from .variational import euler_lagrange, extract_gauge, is_null, jacobi

_FORMATS = {"canonical": "canonical-text", "latex": "latex", "json": "json-ast"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=sorted(_FORMATS),
                        default="canonical",
                        help="output form for expressions")

    p = argparse.ArgumentParser(
        prog="jetvar",
        description="exact variational calculus on jet expressions")
    sub = p.add_subparsers(dest="command", required=True)

    def expr_cmd(name: str, help_: str):
        sp = sub.add_parser(name, parents=[common], help=help_)
        sp.add_argument("expr", nargs="?",
                        help="expression source (stdin when omitted)")
        return sp

    expr_cmd("simplify", "canonical form of an expression")
    dt = expr_cmd("dt", "total time derivative")
    dt.add_argument("-k", type=int, default=1, help="derivative order")
    expr_cmd("el", "Euler-Lagrange expression")
    expr_cmd("jacobi", "energy function")
    expr_cmd("null-check", "decide whether a Lagrangian is null")
    expr_cmd("gauge", "gauge function of a null Lagrangian")
    expr_cmd("order", "largest jet order present")
    expr_cmd("sl2", "SL(2,R) invariance residues and verdict")

    bp = sub.add_parser("builtin", parents=[common],
                        help="expression of a built-in family")
    bp.add_argument("name", choices=BUILTIN_NAMES)
    bp.add_argument("order", nargs="?", type=int)

    op = sub.add_parser("ode-run", parents=[common],
                        help="integrate the dynamics of a Lagrangian")
    op.add_argument("--lagrangian", required=True)
    op.add_argument("--init", required=True,
                    help="comma-separated initial state q0,...,q(m-1)")
    op.add_argument("--t0", type=float, required=True)
    op.add_argument("--t1", type=float, required=True)
    op.add_argument("--h", type=float, required=True)
    op.add_argument("--monitor", help="expression sampled along the run")

    ep = sub.add_parser("eval", parents=[common],
                        help="floating-point value at a jet point")
    ep.add_argument("expr", nargs="?")
    ep.add_argument("--at", required=True,
                    help="comma-separated assignments, e.g. q1=1,q2=0.5,t=0")

    return p


def _source(ns) -> str:
    if ns.expr is not None:
        return ns.expr
    return sys.stdin.read()


def _atom_for(name: str):
    from .atoms import TIME, Jet, Param

    if name == "t":
        return TIME
    if name == "q":
        return Jet(0)
    if name.startswith("q") and name[1:].isdigit():
        return Jet(int(name[1:]))
    return Param(name)


def _parse_point(assignments: str) -> dict:
    point = {}
    for item in assignments.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        if not _:
            raise ValueError(f"assignment {item!r} lacks '='")
        point[_atom_for(name.strip())] = float(value)
    return point


def _csv_rows(traj, monitored):
    m = len(traj[0][1])
    header = ["t"] + [f"q{k}" for k in range(m)]
    if monitored is not None:
        header.append("monitored")
    yield ",".join(header)
    for i, (t, state) in enumerate(traj):
        row = [repr(t)] + [repr(v) for v in state]
        if monitored is not None:
            row.append(repr(monitored[i]))
        yield ",".join(row)


def _cmd_ode_run(ns) -> int:
    L = parse_expr(ns.lagrangian)
    system = derive_ode(L)
    try:
        init = tuple(float(v) for v in ns.init.split(","))
    except ValueError:
        print(f"error: --init must be comma-separated floats, got {ns.init!r}",
              file=sys.stderr)
        return 2
    if len(init) != system.order:
        print(f"error: dynamics has order {system.order}; --init needs "
              f"{system.order} values", file=sys.stderr)
        return 2
    mon_expr = parse_expr(ns.monitor) if ns.monitor is not None else None
    failure = None
    try:
        traj = integrate_rk4(system, init, ns.t0, ns.t1, ns.h)
    except NumericSingularity as exc:
        # the rows reached before the singularity are printed as usual
        traj, failure = exc.trajectory, exc
    if traj:
        values = None
        if mon_expr is not None:
            values = [v for _, v in monitor(traj, mon_expr).samples]
        for line in _csv_rows(traj, values):
            print(line)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 3
    return 0


def _dispatch(ns) -> int:
    mode = _FORMATS[ns.format]
    cmd = ns.command
    if cmd == "builtin":
        print(render(builtin(ns.name, ns.order), mode))
        return 0
    if cmd == "ode-run":
        return _cmd_ode_run(ns)
    if cmd == "eval":
        e = parse_expr(_source(ns))
        try:
            point = _parse_point(ns.at)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(repr(eval_expr(e, point)))
        return 0

    e = parse_expr(_source(ns))
    if cmd == "simplify":
        print(render(e, mode))
        return 0
    if cmd == "dt":
        if ns.k < 1:
            print("error: -k must be a positive integer", file=sys.stderr)
            return 2
        print(render(total_derivative(e, ns.k), mode))
        return 0
    if cmd == "el":
        print(render(euler_lagrange(e), mode))
        return 0
    if cmd == "jacobi":
        print(render(jacobi(e), mode))
        return 0
    if cmd == "null-check":
        if is_null(e):
            print("null")
            return 0
        print("not-null")
        return 1
    if cmd == "gauge":
        print(render(extract_gauge(e).gauge, mode))
        return 0
    if cmd == "order":
        n = e.jet_order()
        print("none" if n is None else decimal_text(n))
        return 0
    if cmd == "sl2":
        rep = sl2_residues(e)
        print(f"translation: {render(rep.residue_translation, mode)}")
        print(f"scaling: {render(rep.residue_scaling, mode)}")
        print(f"special: {render(rep.residue_special, mode)}")
        print("invariant" if rep.invariant else "not-invariant")
        return 0 if rep.invariant else 1
    raise AssertionError(f"unhandled command {cmd!r}")


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(ns)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JetvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(run_cli(sys.argv[1:]))
