"""Independent exact oracle for jet expressions.

Nothing here imports jetvar.  Expressions arrive as jetvar's canonical text
(or its json-ast), are parsed with Python's own ``ast`` module, and are
evaluated exactly in the field of integers modulo the prime 2^61 - 1 at one
random point per oracle (Schwartz-Zippel: two different rational functions
of modest degree agree at a random point with probability about deg/p).

Total time derivatives are taken in Taylor mode.  The jets are the Taylor
coefficients of one random polynomial curve q(t) through the point, so along
the curve D_t is d/dt and D_t^k X at the point is k! times the k-th Taylor
coefficient of X(curve(t)).  Partial derivatives d/dq_i are taken in forward
mode with dual numbers.  Log atoms are independent transcendentals, as in
jetvar: log(A) gets a random value keyed by the value of A, and its Taylor
tail follows from (log A)' = A'/A.

There is no gcd, no canonical form and no cancellation anywhere, so the
oracle shares no code path with the library it checks.  A float evaluator
for the numeric checks sits at the end.
"""

from __future__ import annotations

import ast
import json
import math
import random
import re

P = (1 << 61) - 1
CURVE_DEGREE = 64

_JET = re.compile(r"(?<![A-Za-z0-9_])q(?:\^\((\d+)\)|('*))(?![A-Za-z0-9_'])")


def _pyname(order: int) -> str:
    return f"_q{order}"


def to_python(text: str) -> str:
    """jetvar canonical text as a Python expression (jets become _q<k>)."""
    def jet(m):
        order = int(m.group(1)) if m.group(1) is not None else len(m.group(2))
        return _pyname(order)

    return _JET.sub(jet, text).replace("^", "**")


def jet_orders(text: str) -> set:
    return {int(m.group(1)) if m.group(1) is not None else len(m.group(2))
            for m in _JET.finditer(text)}


def _inv(a: int) -> int:
    if a % P == 0:
        raise ZeroDivisionError("oracle hit a zero denominator")
    return pow(a, P - 2, P)


# -- truncated Taylor series over Z/p -------------------------------------------
#
# A series is a list of n+1 coefficients; a dual series is a pair (v, e) of
# series standing for v + e*eps with eps^2 = 0.

def _s_mul(a, b):
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j in range(n - i):
                out[i + j] += ai * b[j]
    return [x % P for x in out]


def _s_inv(a):
    n = len(a)
    b0 = _inv(a[0])
    out = [b0] + [0] * (n - 1)
    for m in range(1, n):
        s = 0
        for j in range(1, m + 1):
            s += a[j] * out[m - j]
        out[m] = (-b0 * s) % P
    return out


def _s_deriv(a):
    return [(k * a[k]) % P for k in range(1, len(a))] + [0]


def _s_integrate(a, c0):
    n = len(a)
    return [c0] + [(a[k - 1] * _inv(k)) % P for k in range(1, n)]


class _Series:
    """Arithmetic on plain truncated series."""

    def __init__(self, n):
        self.n = n

    def const(self, c):
        return [c % P] + [0] * self.n

    def add(self, a, b):
        return [(x + y) % P for x, y in zip(a, b)]

    def neg(self, a):
        return [(-x) % P for x in a]

    def mul(self, a, b):
        return _s_mul(a, b)

    def inv(self, a):
        return _s_inv(a)

    def log(self, a, ell):
        return _s_integrate(_s_mul(_s_deriv(a), _s_inv(a)), ell(a[0]))


class _Dual:
    """Arithmetic on dual series (v, e): forward-mode d/dq_i along the curve."""

    def __init__(self, n):
        self.n = n
        self.zero = [0] * (n + 1)

    def const(self, c):
        return ([c % P] + [0] * self.n, self.zero)

    def add(self, a, b):
        return ([(x + y) % P for x, y in zip(a[0], b[0])],
                [(x + y) % P for x, y in zip(a[1], b[1])])

    def neg(self, a):
        return ([(-x) % P for x in a[0]], [(-x) % P for x in a[1]])

    def mul(self, a, b):
        v = _s_mul(a[0], b[0])
        e = [(x + y) % P for x, y in zip(_s_mul(a[0], b[1]), _s_mul(a[1], b[0]))]
        return (v, e)

    def inv(self, a):
        iv = _s_inv(a[0])
        e = _s_mul(_s_mul(a[1], iv), iv)
        return (iv, [(-x) % P for x in e])

    def log(self, a, ell):
        iv = _s_inv(a[0])
        v = _s_integrate(_s_mul(_s_deriv(a[0]), iv), ell(a[0][0]))
        return (v, _s_mul(a[1], iv))


class Oracle:
    """Exact evaluator at one random point of jet space, seeded."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self._rng = rng
        # Taylor coefficients of the curve q(t) = sum c_k t^k around t0
        self.c = [rng.randrange(1, P) for _ in range(CURVE_DEGREE + 1)]
        self.t0 = rng.randrange(1, P)
        self._params = {}
        self._logs = {}
        self._asts = {}
        self._partial_cache = {}

    # -- point data ---------------------------------------------------------

    def param(self, name: str) -> int:
        if name not in self._params:
            self._params[name] = self._rng.randrange(1, P)
        return self._params[name]

    def _ell(self, arg_value: int) -> int:
        if arg_value not in self._logs:
            self._logs[arg_value] = self._rng.randrange(1, P)
        return self._logs[arg_value]

    def jet_series(self, j: int, n: int):
        """Taylor series of q_j = d^j q/dt^j along the curve, to order n."""
        out = []
        for m in range(n + 1):
            k = j + m
            if k > CURVE_DEGREE:
                raise ValueError("jet order beyond the oracle curve degree")
            f = 1
            for r in range(m + 1, k + 1):
                f *= r
            out.append(self.c[k] * f % P)  # c_k * k!/m!
        return out

    def jet(self, j: int) -> int:
        return self.jet_series(j, 0)[0]

    # -- evaluation -----------------------------------------------------------

    def _tree(self, text: str):
        tree = self._asts.get(text)
        if tree is None:
            tree = ast.parse(to_python(text), mode="eval").body
            self._asts[text] = tree
        return tree

    def _eval(self, node, alg, leaf):
        ev = lambda x: self._eval(x, alg, leaf)  # noqa: E731
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                k = _exponent(node.right)
                base = ev(node.left)
                out = alg.const(1)
                while k:
                    if k & 1:
                        out = alg.mul(out, base)
                    k >>= 1
                    if k:
                        base = alg.mul(base, base)
                return out
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return alg.add(a, b)
            if isinstance(node.op, ast.Sub):
                return alg.add(a, alg.neg(b))
            if isinstance(node.op, ast.Mult):
                return alg.mul(a, b)
            if isinstance(node.op, ast.Div):
                return alg.mul(a, alg.inv(b))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return alg.neg(ev(node.operand))
        elif isinstance(node, ast.Constant) and isinstance(node.value, int):
            return alg.const(node.value)
        elif isinstance(node, ast.Name):
            return leaf(node.id)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "log" and len(node.args) == 1):
            return alg.log(ev(node.args[0]), self._ell)
        raise ValueError(f"oracle cannot evaluate {ast.dump(node)}")

    def _leaf_series(self, n, wrt=None):
        def leaf(name):
            if name.startswith("_q"):
                j = int(name[2:])
                v = self.jet_series(j, n)
            elif name == "t":
                v = [self.t0, 1] + [0] * (n - 1) if n else [self.t0]
            else:
                v = [self.param(name)] + [0] * n
            if wrt is None:
                return v
            e = [1] + [0] * n if name == wrt else [0] * (n + 1)
            return (v, e)
        return leaf

    def series(self, text: str, n: int):
        """Taylor coefficients 0..n of the expression along the curve."""
        return self._eval(self._tree(text), _Series(n), self._leaf_series(n))

    def value(self, text: str) -> int:
        return self.series(text, 0)[0]

    def dt(self, text: str, k: int = 1) -> int:
        """D_t^k of the expression at the point."""
        return self.series(text, k)[k] * math.factorial(k) % P

    def partial_series(self, text: str, i: int, n: int):
        """Taylor coefficients 0..n of d(expr)/dq_i along the curve."""
        alg = _Dual(n)
        return self._eval(self._tree(text), alg,
                          self._leaf_series(n, wrt=_pyname(i)))[1]

    # -- variational operators by their defining formulas ----------------------

    def _partials(self, text: str):
        """(n, {i: Taylor series of dL/dq_i to order n}), n the jet order."""
        if text not in self._partial_cache:
            orders = jet_orders(text)
            n = max(orders) if orders else -1
            self._partial_cache[text] = n, {
                i: self.partial_series(text, i, n) for i in range(n + 1)}
        return self._partial_cache[text]

    def el(self, text: str) -> int:
        """E(L) = sum_i (-1)^i D_t^i dL/dq_i at the point."""
        n, parts = self._partials(text)
        out = 0
        for i in range(n + 1):
            term = parts[i][i] * math.factorial(i)
            out += -term if i % 2 else term
        return out % P

    def jacobi(self, text: str) -> int:
        """J(L) = sum_r q_r sum_k (-1)^k D_t^k dL/dq_{r+k} - L at the point."""
        n, parts = self._partials(text)
        out = -self.value(text)
        for r in range(1, n + 1):
            inner = 0
            for k in range(0, n - r + 1):
                term = parts[r + k][k] * math.factorial(k)
                inner += -term if k % 2 else term
            out += self.jet(r) * inner
        return out % P

    def prolong(self, phi: str, text: str) -> int:
        """pr v_phi applied to the expression: sum_k D_t^k(phi) d/dq_k."""
        out = 0
        for k in sorted(jet_orders(text)):
            out += self.dt(phi, k) * self.partial_series(text, k, 0)[0]
        return out % P

    # -- json-ast ---------------------------------------------------------------

    def json_value(self, obj) -> int:
        """Value of jetvar's json-ast form (a str or the decoded dict)."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        return self._json_expr(obj)

    def _json_expr(self, e) -> int:
        return self._json_poly(e["num"]) * _inv(self._json_poly(e["den"])) % P

    def _json_poly(self, terms) -> int:
        total = 0
        for term in terms:
            c = term["coeff"]
            v = int(c["n"]) * _inv(int(c["d"]))
            for a in term["atoms"]:
                kind = a["kind"]
                if kind == "jet":
                    base = self.jet(a["order"])
                elif kind == "time":
                    base = self.t0
                elif kind == "param":
                    base = self.param(a["name"])
                elif kind == "log":
                    base = self._ell(self._json_expr(a["arg"]))
                else:
                    raise ValueError(f"unknown json atom kind {kind!r}")
                v = v * pow(base, a["exp"], P) % P
            total += v
        return total % P


def _exponent(node) -> int:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    raise ValueError("oracle supports positive integer exponents only")


# -- floats, for the numeric checks ---------------------------------------------


def float_fn(text: str):
    """f(t, y) evaluating canonical text in floats, y[k] standing for q_k."""
    src = re.sub(r"_q(\d+)", r"y[\1]", to_python(text))
    code = compile(f"lambda t, y: {src}", "<oracle>", "eval")
    return eval(code, {"log": math.log, "__builtins__": {}})
