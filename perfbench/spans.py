"""Traced mode: spans around the calls into each jetvar module.

The tracer wraps public functions from outside the library.  A function is
replaced in every jetvar module namespace (and class) that holds it, so
``poly_gcd`` is traced whether it is reached from ``poly`` (its own
recursion), ``expr`` or ``sl2``.  Each call records a span (name, start,
end, parent) in flat arrays kept in memory; self time is the span's
duration minus the time covered by its child spans.  Spans are written out
once, when the run ends.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter

# span name -> (module, attribute names); an attribute "Cls.meth" is a method
TARGETS = {
    "poly.gcd": ("poly", ("poly_gcd",)),
    "poly.mul": ("poly", ("Polynomial.mul",)),
    "poly.exact_div": ("poly", ("exact_div",)),
    "expr.arith": ("expr", tuple(f"Expr.{m}" for m in (
        "__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__truediv__", "__rtruediv__", "__pow__"))),
    "expr.partial": ("expr", ("partial",)),
    "expr.substitute": ("expr", ("substitute_many", "substitute")),
    "jets.dt": ("jets", ("total_derivative",)),
    "jets.prolong": ("jets", ("prolong",)),
    "variational.el": ("variational", ("euler_lagrange",)),
    "variational.jacobi": ("variational", ("jacobi",)),
    "variational.gauge": ("variational", ("extract_gauge",)),
    "variational.isolate_top": ("variational", ("isolate_top",)),
    "hierarchy.build": ("hierarchy", ("sigma", "schippers", "l2",
                                      "pre_schwarzian", "builtin")),
    "sl2.residues": ("sl2", ("sl2_residues",)),
    "sl2.finite": ("sl2", ("sl2_finite_check",)),
    "sl2.mobius": ("sl2", ("mobius_substitute",)),
    "numeric.derive_ode": ("numeric", ("derive_ode",)),
    "numeric.rk4": ("numeric", ("integrate_rk4",)),
    "numeric.monitor": ("numeric", ("monitor",)),
    "parser.parse": ("parser", ("parse_expr",)),
    "render.render": ("render", ("render",)),
    "cli.run_cli": ("cli", ("run_cli",)),
}

# span names whose calls also report a count (max_terms, steps, bytes)
_EXPR_SPANS = ("expr.arith", "expr.partial", "expr.substitute")


def _expr_terms(e) -> int:
    num = getattr(e, "num", None)
    return len(num.terms) + len(e.den.terms) if num is not None else 0


class Tracer:
    """Span recorder; install() wraps the targets of the given modules."""

    def __init__(self):
        self.names = list(TARGETS)
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.gcd_max_terms = 0
        self.expr_max_terms = 0
        self.rk4_steps = 0
        self.render_bytes = 0
        self._stack = []  # [span index, child seconds] of each open span

    # -- wrapping -----------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every target in each module (name -> module) that binds it."""
        for nid, (span, (home, attrs)) in enumerate(TARGETS.items()):
            for attr in attrs:
                owner, _, meth = attr.rpartition(".")
                src = getattr(modules[home], owner) if owner else modules[home]
                fn = getattr(src, meth or attr)
                wrapped = self._wrap(fn, nid, self._note_for(span))
                # a method is rebound on its class, aliases included; a
                # function in every module that imported it
                holders = [src] if owner else modules.values()
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, key, wrapped)

    def _note_for(self, span):
        if span == "poly.gcd":
            def note(args, result):
                n = max(len(args[0].terms), len(args[1].terms))
                if n > self.gcd_max_terms:
                    self.gcd_max_terms = n
            return note
        if span in _EXPR_SPANS:
            def note(args, result):
                n = _expr_terms(result)
                if n > self.expr_max_terms:
                    self.expr_max_terms = n
            return note
        if span == "numeric.rk4":
            def note(args, result):
                self.rk4_steps += len(result) - 1
            return note
        if span == "render.render":
            def note(args, result):
                self.render_bytes += len(result.encode())
            return note
        return None

    def _wrap(self, fn, nid, note):
        stack = self._stack
        start, end, name, parent = self.start, self.end, self.name, self.parent
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            t0 = perf_counter()
            idx = len(start)
            start.append(t0)
            end.append(t0)
            name.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                # the time cap can cut a child's bookkeeping short and leave
                # its frame open: drop it
                while stack[-1] is not frame:
                    stack.pop()
                stack.pop()
                end[idx] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
            if note is not None:
                note(args, result)
            return result

        return traced

    def reset_stack(self) -> None:
        """Drop open spans after an operation was cut off by its time cap,
        and any span whose recording the cap interrupted."""
        self._stack.clear()
        n = min(len(self.start), len(self.end), len(self.name), len(self.parent))
        for a in (self.start, self.end, self.name, self.parent):
            del a[n:]

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer totals, keyed by metric name (value, unit)."""
        out = {}
        for nid, span in enumerate(self.names):
            out[f"{span}.calls"] = (self.calls[nid], "count")
            out[f"{span}.self_s"] = (self.self_s[nid], "s")
        out["poly.gcd.max_terms"] = (self.gcd_max_terms, "count")
        out["expr.max_terms"] = (self.expr_max_terms, "count")
        out["numeric.rk4.steps"] = (self.rk4_steps, "count")
        rk4_s = self.self_s[self.names.index("numeric.rk4")]
        out["numeric.rk4.steps_per_s"] = (
            self.rk4_steps / rk4_s if rk4_s else 0.0, "1/s")
        out["render.bytes"] = (self.render_bytes, "B")
        return out

    def write(self, path) -> int:
        """Write the spans as gzip'd tab-separated lines; returns the count."""
        t_base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - t_base:.9f}\t"
                         f"{self.end[i] - t_base:.9f}\t{self.parent[i]}\n")
        return len(self.start)
