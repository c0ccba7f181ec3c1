"""The four workloads: inputs, operations, and the checks on their outputs.

Each workload builds its inputs from the seed with the library it is given
(the modules of one fresh import of jetvar), as a list of operations that
make up one round.  A run repeats whole rounds, so every run attempts the
same operations in the same proportions.  Checks use the independent
oracle in oracle.py on the first output of every operation; they never call
the library's canonicaliser to decide whether an output is right.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

from oracle import P, Oracle, float_fn


@dataclass
class Op:
    label: str
    fn: Callable[[], object]


# Operations known to fail every time, with the cause.  They run under the
# per-operation cap and are counted as failed; any other failure fails the
# run's checks, and a known fault that completes is checked like the rest.
KNOWN_FAULTS = {
    "random_identities": {
        "noether#fixed0": "poly._prs_gcd: euler_lagrange of this Lagrangian "
                          "over 4q + 28 swells in the gcd of its sum",
        "noether#fixed1": "poly._prs_gcd: total_derivative of the Jacobi "
                          "integral of this Lagrangian over q + 9 takes seconds",
    },
    "mobius": {
        "dt^4 w": "poly._prs_gcd: primitive-PRS pseudo-remainders swell "
                  "in the Mobius parameters a, b, c, d",
        "sl2_finite sigma(4)+log(q')": "poly._prs_gcd: same swell on the "
                                      "generic substitute_many route",
    },
}


def _canon(jv, e) -> str:
    return jv.render.render(e)


def _json(jv, e) -> str:
    return jv.render.render(e, "json-ast")


class _Checks:
    """Collects failed checks as messages, on the outputs of a workload."""

    def __init__(self, outputs, faults=()):
        self.outputs = outputs
        self.faults = faults
        self.problems = []

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)

    def out(self, label):
        """The output of `label`, or None: a failed check, unless the
        operation is a known fault."""
        if label not in self.outputs and label not in self.faults:
            self.problems.append(f"{label}: no output")
        return self.outputs.get(label)


# -- hierarchy ---------------------------------------------------------------


class Hierarchy:
    """The paper's families through cli.run_cli, stdout captured."""

    name = "hierarchy"
    INPUTS = ("sigma(3)", "sigma(4)", "sigma(5)", "sigma(6)", "L2()",
              "schippers(6)", "schippers(7)", "schippers(8)", "schippers(9)",
              "schippers(10)")
    NULL = ("sigma(4)", "sigma(6)")
    FORMATS = ("canonical", "json")
    WARM = ("el sigma(3) canonical", "jacobi sigma(3) json",
            "null-check sigma(3)", "gauge sigma(4) canonical")
    DIGESTED = ("",)  # label prefixes of the outputs with a recorded digest

    def build(self, jv, seed):
        h = jv.hierarchy
        # the families are built here, once per process (lru_cache)
        exprs = {"L2()": h.l2()}
        for n in range(3, 7):
            exprs[f"sigma({n})"] = h.sigma(n)
        for n in range(6, 11):
            exprs[f"schippers({n})"] = h.schippers(n)
        # the operations read the expanded canonical text, so the parser
        # does real work
        self.text = {k: _canon(jv, exprs[k]) for k in self.INPUTS}
        ops = []
        for name in self.INPUTS:
            src = self.text[name]
            for fmt in self.FORMATS:
                for cmd in ("el", "jacobi"):
                    ops.append(self._op(jv, cmd, name, src, fmt))
                if name in self.NULL:
                    ops.append(self._op(jv, "gauge", name, src, fmt))
            ops.append(self._op(jv, "null-check", name, src, None))
        random.Random(seed).shuffle(ops)
        self.labels = [op.label for op in ops]
        return ops

    @staticmethod
    def _op(jv, cmd, name, src, fmt):
        argv = [cmd, src] + (["--format", fmt] if fmt else [])
        label = f"{cmd} {name}" + (f" {fmt}" if fmt else "")
        cli = jv.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run_cli(argv)
            return code, out.getvalue(), err.getvalue()

        return Op(label, run)

    def texts(self, jv, label, out):
        code, stdout, stderr = out
        return [f"exit {code}", stdout, stderr]

    def check(self, jv, outputs, seed):
        c = _Checks(outputs)
        o = Oracle(seed)
        results = {}  # every label, or a "no output" check has failed
        for label in self.labels:
            out = c.out(label)
            if out is not None:
                code, stdout, stderr = out
                c.expect(stderr == "", f"{label}: stderr {stderr.strip()!r}")
                results[label] = (code, stdout.rstrip("\n"))
        val = {"canonical": o.value, "json": o.json_value}
        for name in self.INPUTS:
            src = self.text[name]
            el, jac = o.el(src), o.jacobi(src)
            for fmt in self.FORMATS:
                for cmd, want in (("el", el), ("jacobi", jac)):
                    label = f"{cmd} {name} {fmt}"
                    if label not in results:
                        continue
                    code, text = results[label]
                    c.expect(code == 0 and val[fmt](text) == want,
                             f"{label}: differs from the oracle")
            gc = results.get(f"gauge {name} canonical")
            gj = results.get(f"gauge {name} json")
            if gc is not None:  # D_t P = L for the returned gauge P
                c.expect(gc[0] == 0 and o.dt(gc[1]) == o.value(src),
                         f"gauge {name}: D_t(gauge) != L")
                if gj is not None:
                    c.expect(gj[0] == 0 and o.json_value(gj[1]) == o.value(gc[1]),
                             f"gauge {name} json: differs from canonical")
            label = f"null-check {name}"
            if label in results:
                code, text = results[label]
                null = name in self.NULL
                c.expect((code, text) == ((0, "null") if null else (1, "not-null")),
                         f"{label}: verdict {text!r} (exit {code})")
                c.expect((el == 0) == null, f"{label}: oracle E(L) disagrees")
            # Noether: D_t J + q' E = 0 on the library's own outputs
            ke, kj = f"el {name} canonical", f"jacobi {name} canonical"
            if ke in results and kj in results:
                lhs = o.dt(results[kj][1]) + o.jet(1) * o.value(results[ke][1])
                c.expect(lhs % P == 0, f"{name}: D_t J + q'E != 0")
        return c.problems


# -- random identities -------------------------------------------------------


def _rand_poly_text(rng, n_terms, *, jets_max, allow_t, max_exp=2):
    atoms = ["q", "q'", "q''", "q'''", "q^(4)"][:jets_max + 1]
    if allow_t:
        atoms.append("t")
    terms = []
    for _ in range(n_terms):
        num = rng.choice([k for k in range(-20, 21) if k])
        factors = [f"{num}/{rng.randint(1, 9)}"]
        for _ in range(rng.randint(0, 2)):
            exp = rng.randint(1, max_exp)
            factors.append(rng.choice(atoms) + (f"^{exp}" if exp > 1 else ""))
        terms.append("*".join(factors))
    return " + ".join(terms)


class RandomIdentities:
    """A seeded stream of small Lagrangians checked against the identities."""

    name = "random_identities"
    # the cost of a case varies by about 1.7 in its logarithm, so the
    # geometric mean of a round's latencies varies with the seed's draw:
    # by 0.16 over five seeds with 100 of each kind, 0.05 to 0.07 with 500
    PER_KIND = 500
    # fixed Lagrangians on which the gcd swells, whatever the seed: E(L) of
    # the first ran past 110 s, D_t J of the second takes about 6 s
    FIXED = ("(-q''^2*q'''^2 - 9*q*q''^2 - 7*q'*q'')/(4*q + 28)",
             "(-3/8 - q''^2*q'^2 - 10/3*q''^4)/(q + 9)")
    WARM = ("E(DtP)#0", "J(DtP)#0", "noether#0", "gauge#0")
    DIGESTED = ()  # every input depends on the seed

    def build(self, jv, seed):
        # the share of each kind of case and the number of terms cycle with
        # the case index rather than being drawn, so that the work in a
        # round varies little from seed to seed
        rng = random.Random(seed)
        parse = jv.parser.parse_expr
        self.src = {}
        ops = []
        for i in range(self.PER_KIND):
            n = 1 + i % 3
            ops.append(self._case(jv, parse, f"E(DtP)#{i}", _rand_poly_text(
                rng, n, jets_max=4, allow_t=True)))
            ops.append(self._case(jv, parse, f"J(DtP)#{i}", _rand_poly_text(
                rng, n, jets_max=4, allow_t=False)))
            ops.append(self._case(jv, parse, f"noether#{i}",
                                  self._lagrangian(rng, i, n)))
            ops.append(self._case(jv, parse, f"gauge#{i}",
                                  self._gauge_source(rng, i, n)))
        for i, text in enumerate(self.FIXED):
            ops.append(self._case(jv, parse, f"noether#fixed{i}", text))
        return ops

    @staticmethod
    def _lagrangian(rng, i, n):
        """Polynomial (half), over q'^k (a quarter), over q + c (a quarter)."""
        kind = i % 4
        if kind < 2:
            return _rand_poly_text(rng, n, jets_max=3, allow_t=False)
        if kind == 2:
            p = _rand_poly_text(rng, n, jets_max=3, allow_t=False)
            return f"({p})/q'^{1 + i // 4 % 2}"
        # over q + c, numerators of second order and degree <= 2: higher
        # ones can take seconds, on some seeds only (FIXED holds two)
        p = _rand_poly_text(rng, n, jets_max=2, allow_t=False, max_exp=1)
        return f"({p})/(q + {rng.randint(1, 9)})"

    @staticmethod
    def _gauge_source(rng, i, n):
        """P with L = D_t P; one in five needs a log to integrate."""
        p = _rand_poly_text(rng, n, jets_max=4, allow_t=True)
        k = rng.choice([k for k in range(-9, 10) if k])
        if i % 10 == 0:
            return f"{p} + {k}*log(q + {rng.randint(1, 9)})"
        if i % 10 == 5:
            return f"{p} + {k}*log(q')"
        return p

    def _case(self, jv, parse, label, text):
        self.src[label] = text
        e = parse(text)
        dt = jv.jets.total_derivative
        var = jv.variational
        kind = label.split("#")[0]
        if kind == "E(DtP)":
            def run():
                d = dt(e)
                return d, var.euler_lagrange(d)
        elif kind == "J(DtP)":
            def run():
                d = dt(e)
                return d, var.jacobi(d)
        elif kind == "noether":
            q1 = jv.expr.jet(1)

            def run():
                E, J = var.euler_lagrange(e), var.jacobi(e)
                return E, J, dt(J) + q1 * E
        else:
            def run():
                L = dt(e)
                G = var.extract_gauge(L).gauge
                return L, G, dt(G)
        return Op(label, run)

    def texts(self, jv, label, out):
        return [_canon(jv, e) for e in out]

    def check(self, jv, outputs, seed):
        c = _Checks(outputs, KNOWN_FAULTS[self.name])
        o = Oracle(seed)
        for label, src in self.src.items():
            out = c.out(label)
            if out is None:
                continue
            kind = label.split("#")[0]
            t = self.texts(jv, label, out)
            if kind in ("E(DtP)", "J(DtP)"):
                c.expect(o.value(t[0]) == o.dt(src), f"{label}: D_t P wrong")
                c.expect(t[1] == "0", f"{label}: identity gives {t[1]}")
            elif kind == "noether":
                c.expect(o.value(t[0]) == o.el(src), f"{label}: E(L) wrong")
                c.expect(o.value(t[1]) == o.jacobi(src), f"{label}: J(L) wrong")
                c.expect(t[2] == "0", f"{label}: D_t J + q'E = {t[2]}")
            else:
                c.expect(o.value(t[0]) == o.dt(src), f"{label}: D_t P wrong")
                c.expect(o.dt(t[1]) == o.value(t[0]), f"{label}: D_t(gauge) != L")
                c.expect(t[2] == t[0], f"{label}: library D_t(gauge) != L")
        return c.problems


# -- mobius ------------------------------------------------------------------


class Mobius:
    """Both SL(2,R) routes and D_t^k of the symbolic Mobius map."""

    name = "mobius"
    INVARIANT = ("sigma(3)", "sigma(4)", "sigma(5)", "sigma(6)")
    NOT_INVARIANT = ("presch()", "schippers(4)", "schippers(5)", "schippers(6)")
    # inputs with a log take the generic substitute_many route
    LOGGED = ("presch() + log(q')", "sigma(3) + log(q')", "sigma(4) + log(q')")
    W = "(a*q + b)/(c*q + d)"
    DT_ORDERS = (1, 2, 3, 4)
    WARM = ("sl2_residues sigma(3)", "sl2_finite sigma(3)",
            "sl2_finite presch()+log(q')", "dt^1 w")
    DIGESTED = ("",)

    def build(self, jv, seed):
        parse = jv.parser.parse_expr
        sl2 = jv.sl2
        self.text = {}
        ops = []
        for name in self.INVARIANT + self.NOT_INVARIANT:
            e = parse(name)
            self.text[name] = _canon(jv, e)
            ops.append(Op(f"sl2_residues {name}", lambda e=e: sl2.sl2_residues(e)))
            ops.append(Op(f"sl2_finite {name}", lambda e=e: sl2.sl2_finite_check(e)))
        for name in self.LOGGED:
            e = parse(name)
            ops.append(Op(f"sl2_finite {name.replace(' ', '')}",
                          lambda e=e: sl2.sl2_finite_check(e)))
        w = parse(self.W)
        self.w_text = _canon(jv, w)
        dt = jv.jets.total_derivative
        for k in self.DT_ORDERS:
            ops.append(Op(f"dt^{k} w", lambda k=k: dt(w, k)))
        random.Random(seed).shuffle(ops)
        self.labels = [op.label for op in ops]
        return ops

    def texts(self, jv, label, out):
        if label.startswith("sl2_residues"):
            return [str(out.invariant)] + [
                f(jv, r) for r in (out.residue_translation, out.residue_scaling,
                                   out.residue_special) for f in (_canon, _json)]
        if label.startswith("sl2_finite"):
            return [str(out)]
        return [_canon(jv, out), _json(jv, out)]

    def check(self, jv, outputs, seed):
        c = _Checks(outputs, KNOWN_FAULTS[self.name])
        o = Oracle(seed)
        for label in self.labels:
            out = c.out(label)
            if out is None:
                continue
            t = self.texts(jv, label, out)
            kind, _, name = label.partition(" ")
            if kind == "sl2_residues":
                want = name in self.INVARIANT
                c.expect(t[0] == str(want), f"{label}: verdict {t[0]}")
                for (canon, js), phi in zip((t[1:3], t[3:5], t[5:7]),
                                            ("1", "q", "q^2")):
                    r = o.prolong(phi, self.text[name])
                    c.expect(o.value(canon) == r and o.json_value(js) == r,
                             f"{label}: residue for {phi} differs from the oracle")
            elif kind == "sl2_finite":
                want = name in self.INVARIANT
                c.expect(t[0] == str(want), f"{label}: verdict {t[0]}")
            else:
                k = int(kind[3:])
                want = o.dt(self.w_text, k)
                c.expect(o.value(t[0]) == want and o.json_value(t[1]) == want,
                         f"{label}: differs from the oracle")
                if k == 1:
                    a, b, cc, d = (o.param(x) for x in "abcd")
                    den = (cc * o.jet(0) + d) ** 2 % P
                    formula = (a * d - b * cc) * o.jet(1) * pow(den, P - 2, P)
                    c.expect(want == formula % P,
                             f"{label}: oracle D_t w != (ad-bc)q'/(cq+d)^2")
        return c.problems


# -- dynamics ----------------------------------------------------------------


class Dynamics:
    """derive_ode, about 10^4 RK4 steps and monitor, on L2() and sigma(5)."""

    name = "dynamics"
    WARM = ("derive_ode L2()",)
    DIGESTED = ("derive_ode",)  # the trajectories depend on the seed
    DRIFT_MAX = 1e-6
    MOBIUS_SCHWARZIAN_MAX = 1e-8

    def build(self, jv, seed):
        rng = random.Random(seed)
        u = rng.uniform
        h = jv.hierarchy
        var = jv.variational
        num = jv.numeric
        self.lag = {"L2()": h.l2(), "sigma(5)": h.sigma(5)}
        self.text = {k: _canon(jv, e) for k, e in self.lag.items()}
        self.jac = {k: var.jacobi(e) for k, e in self.lag.items()}
        self.s3_text = _canon(jv, h.sigma(3))
        # initial data from the seed, away from the singular set q' = 0
        # (the Schwarzian, which J(L2()) negates, stays below -0.29 here)
        g = (u(-0.5, 0.5), u(0.8, 1.2), u(0.8, 1.5), u(-0.3, 0.3))
        a, b, cc = self.mobius = u(0.5, 1.5), u(-1.0, 1.0), u(0.1, 0.3)
        # jets at t = 0 of the Mobius function (a' t + b)/(cc t + 1) with
        # a' - b*cc = a; its Schwarzian vanishes identically
        mob = (b, a, -2 * cc * a, 6 * cc * cc * a)
        s5 = (u(-0.3, 0.3), u(0.8, 1.2)) + tuple(u(-0.3, 0.3) for _ in range(4))
        self.runs = {  # label -> (Lagrangian, initial state, t1, steps)
            "L2()": ("L2()", g, 1.0, 4000),
            "L2() mobius": ("L2()", mob, 1.0, 2000),
            "sigma(5)": ("sigma(5)", s5, 0.5, 4000),
        }
        systems, trajs = {}, {}

        def derive(lag):
            systems[lag] = num.derive_ode(self.lag[lag])
            return systems[lag]

        def rk4(run):
            lag, init, t1, steps = self.runs[run]
            trajs[run] = num.integrate_rk4(systems[lag], init, 0.0, t1, t1 / steps)
            return trajs[run]

        # one pipeline per Lagrangian, in this order: each step reads the
        # previous step's output
        ops = []
        for lag in self.lag:
            ops.append(Op(f"derive_ode {lag}", lambda lag=lag: derive(lag)))
            for run in self.runs:
                if self.runs[run][0] == lag:
                    ops.append(Op(f"rk4 {run}", lambda run=run: rk4(run)))
            ops.append(Op(f"monitor {lag}", lambda lag=lag: num.monitor(
                trajs[lag], self.jac[lag])))
        self.labels = [op.label for op in ops]
        return ops

    def texts(self, jv, label, out):
        if label.startswith("derive_ode"):
            return [str(out.order)] + [f(jv, e) for e in (out.rhs, out.singular_set)
                                       for f in (_canon, _json)]
        if label.startswith("rk4"):
            return [repr(out[-1])]
        return [repr(out.max_rel_drift)]

    def check(self, jv, outputs, seed):
        c = _Checks(outputs)
        o = Oracle(seed)
        for label in self.labels:
            out = c.out(label)
            if out is None:
                continue
            kind, _, name = label.partition(" ")
            if kind == "derive_ode":
                _, rhs, rhs_js, sing, _ = self.texts(jv, label, out)
                # E(L) = C * (q_m - rhs) by the oracle's E(L)
                m = out.order
                want = o.el(self.text[name])
                got = o.value(sing) * (o.jet(m) - o.value(rhs)) % P
                c.expect(want == got and o.json_value(rhs_js) == o.value(rhs),
                         f"{label}: E(L) != C*(q^({m}) - rhs)")
                c.expect(m == {"L2()": 4, "sigma(5)": 6}[name],
                         f"{label}: order {m}")
            elif kind == "rk4":
                steps = self.runs[name][3]
                c.expect(len(out) == steps + 1, f"{label}: {len(out) - 1} steps")
                lag = self.runs[name][0]
                if name.endswith("mobius"):
                    s3 = float_fn(self.s3_text)
                    worst = max(abs(s3(t, y)) for t, y in out)
                    c.expect(worst <= self.MOBIUS_SCHWARZIAN_MAX,
                             f"{label}: Schwarzian reaches {worst:.3g}")
                else:
                    jf = float_fn(_canon(jv, self.jac[lag]))
                    vals = [jf(t, y) for t, y in out]
                    drift = max(abs(v - vals[0]) for v in vals) / abs(vals[0])
                    c.expect(drift <= self.DRIFT_MAX,
                             f"{label}: Jacobi drift {drift:.3g}")
            else:
                c.expect(out.max_rel_drift <= self.DRIFT_MAX,
                         f"{label}: monitored drift {out.max_rel_drift:.3g}")
        c.problems += self._convergence(jv)
        return c.problems

    def _convergence(self, jv):
        """Terminal error at h and h/2 on the exact Mobius solution: ~2^4."""
        num = jv.numeric
        system = num.derive_ode(self.lag["L2()"])
        init = self.runs["L2() mobius"][1]
        a, b, cc = self.mobius
        s = cc + 1.0  # the exact solution's jets at t = 1
        exact = ((a + b * cc + b) / s, a / s**2, -2 * a * cc / s**3,
                 6 * a * cc * cc / s**4)

        def error(steps):
            y = num.integrate_rk4(system, init, 0.0, 1.0, 1.0 / steps)[-1][1]
            return max(abs(u - v) for u, v in zip(y, exact))

        ratio = error(50) / error(100)
        return [] if 12 <= ratio <= 20 else [f"RK4 convergence ratio {ratio:.3g}"]


WORKLOADS = {w.name: w for w in (Hierarchy, RandomIdentities, Mobius, Dynamics)}
